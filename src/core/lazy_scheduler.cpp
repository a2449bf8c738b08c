#include "core/lazy_scheduler.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/lifecycle.hpp"

namespace lazydram::core {

LazyScheduler::LazyScheduler(const SchemeParams& params, const SchemeSpec& spec,
                             unsigned num_banks)
    : spec_(spec),
      dms_(params, spec.dms_dynamic, spec.dms_enabled ? spec.static_delay : 0),
      ams_(params, spec.ams_dynamic, spec.static_th_rbl),
      draining_(num_banks, kInvalidRow),
      stalled_(num_banks, kNoStall),
      stall_begin_(num_banks, 0),
      bank_stall_cycles_(num_banks, 0) {
  LD_ASSERT_MSG(num_banks <= 64, "draining_banks_ is a 64-bit bank mask");
}

Decision LazyScheduler::decide(const PendingQueue& queue, const BankView& bank,
                               Cycle now) {
  // 0. Drain an in-progress AMS row-group drop. A non-approximable request
  //    arriving for the row mid-drain — a write OR a precise read — ends the
  //    drain: the row will be activated for it anyway, so the remaining
  //    reads are served normally. (Requiring only "all reads" here would
  //    hand a precise read a predicted value; the protocol checker flags
  //    that as kDropNotApproximable.)
  if (draining_[bank.bank] != kInvalidRow) {
    const RowId row = draining_[bank.bank];
    const MemRequest* r = queue.oldest_for_row(bank.bank, row);
    if (r != nullptr && queue.row_group_all_approximable(bank.bank, row))
      return Decision::drop(r->id);
    draining_[bank.bank] = kInvalidRow;
    draining_banks_ &= ~(std::uint64_t{1} << bank.bank);
  }

  // 1. Row-buffer hits are served immediately (never delayed). The
  //    delay-all ablation gates them like misses, and a gated hit is a DMS
  //    stall like any other — it must show up in the stall trace.
  if (bank.row_open) {
    if (const MemRequest* hit = queue.oldest_for_row(bank.bank, bank.open_row)) {
      const Cycle hit_delay = effective_delay(hit->tenant);
      if (!spec_.dms_delay_row_hits || !spec_.dms_enabled ||
          now - hit->enqueue_cycle >= hit_delay) {
        // Close the stall only if it belongs to this hit: a different
        // stalled request (the bank's gated miss candidate) stays gated
        // while hits stream past it, so its interval must stay open.
        if (stalled_[bank.bank] == hit->id) close_stall(bank.bank, now);
        return Decision::serve(hit->id);
      }
      open_stall(bank.bank, hit->id, now, hit_delay);
      // The gate flips exactly at enqueue + delay; until then (and absent
      // queue/delay changes) this answer cannot change.
      return Decision::gated(hit->enqueue_cycle + hit_delay);
    }
  }

  // 2. Oldest request for this bank is the row-miss candidate.
  const MemRequest* cand = queue.oldest_for_bank(bank.bank);
  if (cand == nullptr) {
    close_stall(bank.bank, now);
    return Decision::none();
  }

  const Cycle cand_delay = effective_delay(cand->tenant);
  if (spec_.dms_enabled && now - cand->enqueue_cycle < cand_delay) {
    open_stall(bank.bank, cand->id, now, cand_delay);
    // Age gate: kNone is stable until the candidate reaches enqueue + delay.
    return Decision::gated(cand->enqueue_cycle + cand_delay);
  }
  close_stall(bank.bank, now);

  // 3. AMS drop decision (criteria 1, 3, 4; criterion 2 was the age gate).
  if (spec_.ams_enabled && ams_.should_drop(queue, *cand)) return Decision::drop(cand->id);

  // 4. FR-FCFS service.
  return Decision::serve(cand->id);
}

void LazyScheduler::tick(Cycle now, std::uint64_t bus_busy_total) {
  // Credit AMS-dropped requests with the bus cycles they would have used:
  // otherwise the drop-induced traffic reduction reads as a delay-induced
  // BWUTIL loss and Dyn-DMS (whose baseline is sampled with AMS halted)
  // would collapse the delay to zero whenever both schemes co-run.
  const std::uint64_t adjusted =
      bus_busy_total + ams_.reads_dropped() * kBurstCyclesPerDrop;
  if (spec_.dms_enabled) dms_.tick(now, adjusted);
  if (spec_.ams_enabled) ams_.tick(now, spec_.dms_enabled && dms_.sampling());
  trace_now_ = now;
  ++ticks_;
  delay_sum_ += static_cast<double>(spec_.dms_enabled ? dms_.current_delay() : 0);
  th_rbl_sum_ += static_cast<double>(spec_.ams_enabled ? ams_.th_rbl() : 0);
}

DropState LazyScheduler::drop_state() const {
  return {spec_.ams_enabled && (draining_banks_ != 0 || ams_.may_drop()), draining_banks_};
}

void LazyScheduler::on_enqueue(const MemRequest& req) {
  if (req.is_read()) ams_.on_read_received(req.tenant);
}

void LazyScheduler::on_serve(const MemRequest& req) {
  // A stalled request can be served without another decide() on its bank
  // (e.g. it becomes a row hit after a drain re-opens its row); close the
  // stall here so the trace never leaks an open interval.
  if (stalled_[req.loc.bank] == req.id) close_stall(req.loc.bank, trace_now_);
}

void LazyScheduler::on_drop(const MemRequest& req) {
  // The drain branch of decide() drops without touching the stall state, so
  // a stalled request swallowed by a row-group drop is closed out here.
  if (stalled_[req.loc.bank] == req.id) close_stall(req.loc.bank, trace_now_);
  ams_.on_drop(req.tenant);
  if (draining_[req.loc.bank] == kInvalidRow) {
    draining_[req.loc.bank] = req.loc.row;
    draining_banks_ |= std::uint64_t{1} << req.loc.bank;
  }
  LD_ASSERT_MSG(draining_[req.loc.bank] == req.loc.row,
                "a bank can only drain one row group at a time");
}

void LazyScheduler::set_ams_ready(bool ready) { ams_.set_ready(ready); }

void LazyScheduler::set_tenant_qos(const std::vector<TenantQos>& qos) {
  ams_.set_tenant_qos(qos);
  delay_caps_.clear();
  for (const TenantQos& q : qos) delay_caps_.push_back(q.dms_delay_cap);
}

void LazyScheduler::set_telemetry(telemetry::Tracer* tracer, ChannelId channel) {
  tracer_ = tracer;
  channel_ = channel;
  dms_.set_telemetry(tracer, channel);
  ams_.set_telemetry(tracer, channel);
}

void LazyScheduler::open_stall(BankId bank, RequestId req, Cycle now, Cycle delay) {
  if (stalled_[bank] == req) return;
  // The bank's gated candidate can switch identity while the old one is
  // still queued (a gated row hit overtakes a gated miss candidate, or —
  // with per-tenant delay caps — tenants with different effective delays
  // alternate). Close the previous request's interval at `now` before
  // opening the new one, so stall_begin_ always describes the request in
  // stalled_; silently keeping the old interval open would attribute the new
  // request's gated cycles to the old id.
  if (stalled_[bank] != kNoStall) close_stall(bank, now);
  stalled_[bank] = req;
  stall_begin_[bank] = now;
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->dms_stall_begin(now, channel_, bank, req, delay);
}

void LazyScheduler::close_stall(BankId bank, Cycle now) {
  if (stalled_[bank] == kNoStall) return;
  const RequestId req = stalled_[bank];
  stalled_[bank] = kNoStall;
  bank_stall_cycles_[bank] += now - stall_begin_[bank];
  if (tracer_ != nullptr && tracer_->enabled()) tracer_->dms_stall_end(now, channel_, bank);
  if (lifecycle_ != nullptr && now > stall_begin_[bank])
    lifecycle_->on_gate_end(req, stall_begin_[bank], now);
}

void LazyScheduler::fill_probe(telemetry::WindowProbe& probe, Cycle now,
                               std::vector<std::uint64_t>* bank_stalls) const {
  probe.dms_delay = spec_.dms_enabled ? dms_.current_delay() : 0;
  probe.th_rbl = spec_.ams_enabled ? ams_.th_rbl() : 0;
  if (bank_stalls == nullptr) return;
  for (BankId b = 0; b < stalled_.size(); ++b) {
    (*bank_stalls)[b] += bank_stall_cycles_[b];
    if (stalled_[b] != kNoStall && now > stall_begin_[b])
      (*bank_stalls)[b] += now - stall_begin_[b];
  }
}

void LazyScheduler::register_stats(telemetry::TelemetryHub& hub,
                                   const std::string& prefix) const {
  hub.add_gauge(prefix + "dms.delay",
                [this] { return static_cast<double>(dms_.current_delay()); });
  hub.add_gauge(prefix + "dms.avg_delay", [this] { return average_delay(); });
  hub.add_gauge(prefix + "ams.th_rbl",
                [this] { return static_cast<double>(ams_.th_rbl()); });
  hub.add_gauge(prefix + "ams.avg_th_rbl", [this] { return average_th_rbl(); });
  hub.add_gauge(prefix + "ams.coverage", [this] { return ams_.coverage(); });
  hub.add_counter(prefix + "ams.reads_dropped", [this] { return ams_.reads_dropped(); });
}

}  // namespace lazydram::core
