// Plain FCFS scheduler — the classic in-order baseline used by the ablation
// benches to quantify how much of the baseline's row locality FR-FCFS's
// re-ordering already provides. Serves each bank's requests strictly in
// arrival order (no row-hit prioritization).
#pragma once

#include "mem/scheduler.hpp"

namespace lazydram {

class FcfsScheduler : public Scheduler {
 public:
  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override;

  /// Strict age order closes an open row even while hits for it pend.
  bool hit_first() const override { return false; }
};

}  // namespace lazydram
