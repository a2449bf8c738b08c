// Hill-climbing delay autotuner — a Dyn-DMS rival built on plain FR-FCFS.
// Row misses are age-gated by an online-searched delay: a miss may not be
// scheduled until `enqueue_cycle + delay`, buying time for same-row arrivals
// to coalesce (the DMS idea) — but instead of Dyn-DMS's profile/adjust state
// machine, the delay hill-climbs on measured bus utilization: every
// `tune_window` cycles the achieved BWUTIL is compared against the best seen;
// within tolerance the climb continues upward with a doubling step, otherwise
// it backs off with a halving step. Row hits are never gated.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "mem/scheduler.hpp"

namespace lazydram {

class AutotuneScheduler : public Scheduler {
 public:
  explicit AutotuneScheduler(const PolicyParams& p);

  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override;
  void tick(Cycle now, std::uint64_t bus_busy_total) override;
  void fill_probe(telemetry::WindowProbe& probe) const override;
  void register_stats(telemetry::TelemetryHub& hub, const std::string& prefix) const override;

  Cycle delay() const { return delay_; }
  std::uint64_t accepts() const { return accepts_; }
  std::uint64_t backoffs() const { return backoffs_; }

 private:
  Cycle min_delay_;
  Cycle max_delay_;
  Cycle base_step_;
  Cycle window_;
  double tolerance_;

  Cycle delay_;        ///< Current gating delay for row misses.
  Cycle step_;         ///< Adaptive hill-climb step.
  Cycle window_end_ = 0;
  Cycle window_start_cycle_ = 0;
  std::uint64_t window_start_busy_ = 0;
  double best_bw_ = 0.0;  ///< Best window BWUTIL observed so far.

  std::uint64_t accepts_ = 0;   ///< Windows that kept climbing (delay +=).
  std::uint64_t backoffs_ = 0;  ///< Windows that retreated (delay -=).
};

}  // namespace lazydram
