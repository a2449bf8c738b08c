#include "mem/autotune.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "telemetry/hub.hpp"

namespace lazydram {

AutotuneScheduler::AutotuneScheduler(const PolicyParams& p)
    : min_delay_(p.tune_min_delay),
      max_delay_(p.tune_max_delay),
      base_step_(p.tune_step),
      window_(p.tune_window),
      tolerance_(p.tune_tolerance),
      delay_(p.tune_min_delay),
      step_(p.tune_step),
      window_end_(p.tune_window) {
  LD_ASSERT(min_delay_ <= max_delay_ && base_step_ > 0 && window_ > 0);
  LD_ASSERT(tolerance_ > 0.0 && tolerance_ <= 1.0);
}

Decision AutotuneScheduler::decide(const PendingQueue& queue, const BankView& bank,
                                   Cycle now) {
  // FR-FCFS hit path: hits are never gated (serving them costs no ACT, so
  // delaying them only loses bandwidth).
  if (bank.row_open) {
    if (const MemRequest* hit = queue.oldest_for_row(bank.bank, bank.open_row))
      return Decision::serve(hit->id);
  }
  const MemRequest* oldest = queue.oldest_for_bank(bank.bank);
  if (oldest == nullptr) return Decision::none();
  // Row miss: age-gate by the current delay. The horizon is sound because
  // the controller invalidates none_until memos whenever the probe's
  // dms_delay gauge (which fill_probe maps to delay_) changes.
  const Cycle ready = oldest->enqueue_cycle + delay_;
  if (now < ready) return Decision::gated(ready);
  return Decision::serve(oldest->id);
}

void AutotuneScheduler::tick(Cycle now, std::uint64_t bus_busy_total) {
  if (now < window_end_) return;
  const Cycle elapsed = now - window_start_cycle_;
  const double bw =
      elapsed == 0 ? 0.0
                   : static_cast<double>(bus_busy_total - window_start_busy_) /
                         static_cast<double>(elapsed);
  best_bw_ = std::max(best_bw_, bw);
  if (bw >= tolerance_ * best_bw_) {
    // Utilization held up: keep climbing, accelerating while it keeps
    // working (step doubles, capped at 8x the configured step).
    delay_ = std::min(max_delay_, delay_ + step_);
    step_ = std::min(step_ * 2, base_step_ * 8);
    ++accepts_;
  } else {
    // Paid too much bandwidth: retreat and probe more carefully.
    delay_ = delay_ >= min_delay_ + step_ ? delay_ - step_ : min_delay_;
    step_ = std::max<Cycle>(std::max<Cycle>(1, base_step_ / 8), step_ / 2);
    ++backoffs_;
  }
  window_start_cycle_ = now;
  window_start_busy_ = bus_busy_total;
  window_end_ = now + window_;
}

void AutotuneScheduler::fill_probe(telemetry::WindowProbe& probe, Cycle now,
                                   std::vector<std::uint64_t>* bank_stalls) const {
  // Gated misses are not tracked as per-bank stall intervals here.
  (void)now;
  (void)bank_stalls;
  probe.dms_delay = delay_;
}

void AutotuneScheduler::register_stats(telemetry::TelemetryHub& hub,
                                       const std::string& prefix) const {
  hub.add_gauge(prefix + "autotune.delay", [this] { return static_cast<double>(delay_); });
  hub.add_counter(prefix + "autotune.accepts", [this] { return accepts_; });
  hub.add_counter(prefix + "autotune.backoffs", [this] { return backoffs_; });
}

}  // namespace lazydram
