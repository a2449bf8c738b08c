#include "telemetry/window_sampler.hpp"

#include <utility>

namespace lazydram::telemetry {

void WindowSampler::set_bank_probe(unsigned num_banks, BankProbeFn fn) {
  bank_probe_ = std::move(fn);
  bank_scratch_.assign(num_banks, BankProbe{});
  bank_base_.assign(num_banks, BankProbe{});
}

void WindowSampler::set_tenant_probe(unsigned num_tenants, TenantProbeFn fn) {
  tenant_probe_ = std::move(fn);
  tenant_scratch_.assign(num_tenants, TenantProbe{});
  tenant_base_.assign(num_tenants, TenantProbe{});
}

void WindowSampler::tick(Cycle now, const WindowProbe& probe) {
  // Same boundary arithmetic as DmsUnit/AmsUnit: the tick that lands on the
  // boundary closes the elapsed window before being accounted itself.
  if (now - window_start_ >= window_ && ticks_ > 0) close_window(now, probe);

  ++ticks_;
  delay_sum_ += probe.dms_delay;
  th_rbl_sum_ += probe.th_rbl;
  queue_sum_ += probe.queue_size;
  last_tick_ = now;
}

void WindowSampler::flush(const WindowProbe& probe) {
  if (ticks_ > 0) close_window(last_tick_ + 1, probe);
}

void WindowSampler::close_window(Cycle end, const WindowProbe& probe) {
  WindowSample w;
  w.channel = channel_;
  w.index = static_cast<std::uint64_t>(samples_.size());
  w.start_cycle = window_start_;
  w.end_cycle = end;
  w.ticks = ticks_;

  const WindowProbe& base = at_window_start_;
  w.bus_busy_cycles = probe.bus_busy_cycles - base.bus_busy_cycles;
  w.activations = probe.activations - base.activations;
  w.column_reads = probe.column_reads - base.column_reads;
  w.column_writes = probe.column_writes - base.column_writes;
  w.drops = probe.reads_dropped - base.reads_dropped;
  w.reads_received = probe.reads_received - base.reads_received;
  w.energy_nj = probe.energy_nj - base.energy_nj;
  w.energy_row_nj = probe.energy_row_nj - base.energy_row_nj;
  w.energy_access_nj = probe.energy_access_nj - base.energy_access_nj;
  w.energy_background_nj = probe.energy_background_nj - base.energy_background_nj;
  w.energy_refresh_nj = probe.energy_refresh_nj - base.energy_refresh_nj;

  const std::uint64_t accesses = w.column_reads + w.column_writes;
  // Every activation serves at least its first column access; the remainder
  // are row-buffer hits. A window can close mid-row, so clamp at zero.
  w.row_hits = accesses > w.activations ? accesses - w.activations : 0;

  const double ticks = static_cast<double>(ticks_);
  w.bwutil = static_cast<double>(w.bus_busy_cycles) / ticks;
  w.delay_sum = delay_sum_;
  w.avg_delay = static_cast<double>(delay_sum_) / ticks;
  w.th_rbl_sum = th_rbl_sum_;
  w.avg_th_rbl = static_cast<double>(th_rbl_sum_) / ticks;
  w.queue_occupancy = static_cast<double>(queue_sum_) / ticks;
  w.coverage = w.reads_received == 0
                   ? 0.0
                   : static_cast<double>(w.drops) / static_cast<double>(w.reads_received);
  w.avg_power_w = w.energy_nj / ticks * power_scale_;

  if (bank_probe_) {
    for (auto& b : bank_scratch_) b = BankProbe{};
    bank_probe_(end, bank_scratch_);
    w.banks.resize(bank_scratch_.size());
    for (std::size_t b = 0; b < bank_scratch_.size(); ++b) {
      const BankProbe& cur = bank_scratch_[b];
      const BankProbe& base = bank_base_[b];
      BankWindowSample& out = w.banks[b];
      out.activations = cur.activations - base.activations;
      out.column_accesses = cur.column_accesses - base.column_accesses;
      out.drops = cur.drops - base.drops;
      out.dms_stall_cycles = cur.stall_cycles - base.stall_cycles;
      out.active_cycles = cur.active_cycles - base.active_cycles;
      out.energy_nj = cur.energy_nj - base.energy_nj;
      out.row_hits = out.column_accesses > out.activations
                         ? out.column_accesses - out.activations
                         : 0;
    }
    bank_base_ = bank_scratch_;
  }

  if (tenant_probe_) {
    for (auto& t : tenant_scratch_) t = TenantProbe{};
    tenant_probe_(tenant_scratch_);
    w.tenants.resize(tenant_scratch_.size());
    for (std::size_t t = 0; t < tenant_scratch_.size(); ++t) {
      const TenantProbe& cur = tenant_scratch_[t];
      const TenantProbe& prev = tenant_base_[t];
      w.tenants[t].reads_received = cur.reads_received - prev.reads_received;
      w.tenants[t].reads_served = cur.reads_served - prev.reads_served;
      w.tenants[t].drops = cur.drops - prev.drops;
    }
    tenant_base_ = tenant_scratch_;
  }

  samples_.push_back(w);
  if (tracer_ != nullptr) tracer_->emit_window(w);

  window_start_ = end;
  at_window_start_ = probe;
  ticks_ = 0;
  delay_sum_ = 0;
  th_rbl_sum_ = 0;
  queue_sum_ = 0;
}

}  // namespace lazydram::telemetry
