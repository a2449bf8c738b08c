// Delayed Memory Scheduling unit (Section IV-B).
//
// Static-DMS holds a fixed delay. Dyn-DMS runs the paper's profiling loop on
// 4096-memory-cycle windows:
//   1. SAMPLING  - one window at delay 0 (AMS halted) to record the baseline
//                  bandwidth utilization (BWUTIL);
//   2. SEARCHING - starting from 128 cycles (or the previously recorded
//                  delay after a restart), step the delay by +/-128 per
//                  window while the window's BWUTIL stays >= 95% of the
//                  sampled baseline; on an upward step that violates the
//                  threshold, fall back to the last passing value;
//   3. HOLDING   - keep the settled delay.
// The whole process restarts every 32 windows to track phase changes,
// seeded with the settled delay.
//
// The paper specifies the upward search; stepping *down* when the seeded
// starting value itself violates the threshold is our completion of the
// spec (required for the mechanism to recover after a phase change).
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"
#include "telemetry/trace.hpp"

namespace lazydram::core {

class DmsUnit {
 public:
  /// `dynamic` selects Dyn-DMS; otherwise the unit holds `static_delay`.
  DmsUnit(const SchemeParams& params, bool dynamic, Cycle static_delay);

  /// Once per memory cycle. `bus_busy_total` is the channel's cumulative
  /// data-bus busy cycles (the BWUTIL numerator); the unit differences it
  /// across window boundaries.
  void tick(Cycle now_mem, std::uint64_t bus_busy_total);

  /// True iff a request enqueued at `enqueue_cycle` has aged enough to be
  /// allowed to open a new row at `now` (row hits are never gated; callers
  /// apply this only to row-miss candidates).
  bool allows(Cycle enqueue_cycle, Cycle now) const {
    return now - enqueue_cycle >= current_delay_;
  }

  Cycle current_delay() const { return current_delay_; }

  /// True while Dyn-DMS samples the baseline BWUTIL; a co-running AMS unit
  /// must halt during this window (Section IV-B).
  bool sampling() const {
    return dynamic_ && (phase_ == Phase::kSampling || phase_ == Phase::kWarmup);
  }

  // Introspection for tests/benches.
  double last_baseline_bwutil() const { return baseline_bwutil_; }
  double last_window_bwutil() const { return last_window_bwutil_; }
  Cycle window_start() const { return window_start_; }

  /// Emits kDmsDelayChange events through `tracer` (nullable to detach).
  void set_telemetry(telemetry::Tracer* tracer, ChannelId channel) {
    tracer_ = tracer;
    channel_ = channel;
  }

 private:
  enum class Phase { kWarmup, kSampling, kSearching, kHolding };
  enum class Direction { kUp, kDown };

  void on_window_end(double window_bwutil);

  SchemeParams params_;
  bool dynamic_;

  Cycle current_delay_ = 0;
  Phase phase_ = Phase::kSampling;
  Direction direction_ = Direction::kUp;

  double baseline_bwutil_ = 0.0;
  double last_window_bwutil_ = 0.0;
  Cycle last_good_delay_ = 0;     ///< Last delay meeting the threshold this search.
  bool saw_good_delay_ = false;
  Cycle recorded_delay_ = 0;      ///< Settled value; seeds the next restart.

  Cycle window_start_ = 0;
  std::uint64_t busy_at_window_start_ = 0;
  unsigned windows_since_restart_ = 0;

  telemetry::Tracer* tracer_ = nullptr;
  ChannelId channel_ = 0;
};

}  // namespace lazydram::core
