// Baseline First-Row First-Come-First-Serve scheduler (Rixner et al.),
// Section II-C: row-buffer-hit requests first (oldest hit among them), else
// the oldest request destined to the bank.
#pragma once

#include "mem/scheduler.hpp"

namespace lazydram {

class FrFcfsScheduler : public Scheduler {
 public:
  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override;
};

}  // namespace lazydram
