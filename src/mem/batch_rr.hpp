// Batch-cap round-robin scheduler: FR-FCFS's hit-first rule, but each bank
// may stream at most `cap` consecutive column accesses to one row before the
// policy rotates to the oldest request of a *different* pending row (the
// per-bank batch cap of GPGPU-Sim-style RR arbiters). Bounds the worst-case
// wait a row miss suffers behind a hot row while keeping most of the
// open-row locality.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "mem/scheduler.hpp"

namespace lazydram {

class BatchRrScheduler : public Scheduler {
 public:
  BatchRrScheduler(const PolicyParams& p, unsigned num_banks);

  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override;
  void on_serve(const MemRequest& req) override;
  void register_stats(telemetry::TelemetryHub& hub, const std::string& prefix) const override;

  /// The rotation rule deliberately closes a capped row with hits pending.
  bool hit_first() const override { return false; }

  std::uint64_t rotations() const { return rotations_; }

 private:
  /// Oldest request for `bank` whose row differs from `avoid`; null when
  /// every pending request targets `avoid`.
  static const MemRequest* oldest_other_row(const PendingQueue& queue, BankId bank,
                                            RowId avoid);

  unsigned cap_;
  std::vector<RowId> last_row_;     ///< Per bank: row of the running batch.
  std::vector<unsigned> streak_;    ///< Per bank: consecutive serves to last_row_.
  std::uint64_t rotations_ = 0;     ///< Cap-forced row switches (cumulative).
};

}  // namespace lazydram
