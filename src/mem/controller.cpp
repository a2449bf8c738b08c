#include "mem/controller.hpp"

#include <algorithm>

#include "check/checker.hpp"
#include "check/recorder.hpp"
#include "common/assert.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/selfprof.hpp"

namespace lazydram {

using dram::CommandKind;

MemoryController::MemoryController(const GpuConfig& cfg, ChannelId id,
                                   const AddressMapper& mapper,
                                   std::unique_ptr<Scheduler> scheduler,
                                   RowPolicy row_policy)
    : id_(id),
      mapper_(mapper),
      row_policy_(row_policy),
      queue_(cfg.pending_queue_size, cfg.banks_per_channel),
      dram_(cfg, id),
      scheduler_(std::move(scheduler)),
      num_banks_(cfg.banks_per_channel),
      watts_per_nj_per_cycle_(static_cast<double>(cfg.mem_clock_mhz) * 1e-3),
      fast_path_(cfg.fast_path),
      bank_retry_at_(cfg.banks_per_channel, 0),
      bank_none_until_(cfg.banks_per_channel, 0),
      bank_acts_(cfg.banks_per_channel, 0),
      bank_cols_(cfg.banks_per_channel, 0),
      bank_drops_(cfg.banks_per_channel, 0) {
  LD_ASSERT(scheduler_ != nullptr);
  drops_possible_ = scheduler_->drops_possible();
  memo_safe_ = scheduler_->decide_memo_safe();
}

void MemoryController::enqueue(MemRequest req, Cycle now_mem) {
  LD_ASSERT_MSG(can_accept(), "enqueue into full pending queue");
  req.enqueue_cycle = now_mem;
  req.loc = mapper_.map(req.line_addr);
  LD_ASSERT_MSG(req.loc.channel == id_, "request routed to wrong channel");
  if (req.is_read()) {
    ++reads_received_;
    if (req.tenant < tenant_reads_received_.size()) ++tenant_reads_received_[req.tenant];
  } else {
    ++writes_received_;
  }
  scheduler_->on_enqueue(req);
  if (lifecycle_ != nullptr) lifecycle_->on_enqueue(req, id_, now_mem);
  if (checker_ != nullptr) checker_->on_enqueue(req, now_mem);
  if (recorder_ != nullptr) recorder_->on_enqueue(req);
  // An arrival can change the bank's decision; both memos are stale, and so
  // are the pass-level wakes aggregated from them.
  bank_retry_at_[req.loc.bank] = 0;
  bank_none_until_[req.loc.bank] = 0;
  cmd_wake_ = 0;
  drop_wake_ = 0;
  queue_.push(std::move(req));
}

void MemoryController::complete_bursts(Cycle now) {
  next_burst_done_ = kNeverCycle;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->done > now) {
      if (it->done < next_burst_done_) next_burst_done_ = it->done;
      ++it;
      continue;
    }
    if (it->req.is_read()) {
      ++reads_served_;
      read_latency_.add(static_cast<double>(it->done - it->req.enqueue_cycle));
      read_latency_hist_.add(it->done - it->req.enqueue_cycle);
      if (it->req.tenant < tenant_reads_served_.size()) {
        const TenantId t = it->req.tenant;
        ++tenant_reads_served_[t];
        tenant_latency_sum_[t] += it->done - it->req.enqueue_cycle;
        tenant_latency_hist_[t].add(it->done - it->req.enqueue_cycle);
      }
      if (lifecycle_ != nullptr) lifecycle_->on_data_return(it->req.id, it->done);
      replies_.push_back(MemReply{it->req.id, it->req.line_addr, it->req.src_sm,
                                  /*approximate=*/false, it->done});
    } else {
      ++writes_served_;
    }
    it = inflight_.erase(it);
  }
}

bool MemoryController::advance_request(const MemRequest& req, Cycle now,
                                       Cycle* retry_at) {
  const BankId b = req.loc.bank;
  const dram::Bank& bank = dram_.bank(b);

  if (bank.row_open() && bank.open_row() == req.loc.row) {
    const CommandKind cas = req.is_read() ? CommandKind::kRead : CommandKind::kWrite;
    if (!dram_.can_issue(cas, b, now)) {
      if (retry_at != nullptr) *retry_at = dram_.earliest_issue(cas, b);
      return false;
    }
    const Cycle done = dram_.issue(cas, b, req.loc.row, now);
    ++bank_cols_[b];
    if (checker_ != nullptr) checker_->on_command(cas, b, req.loc.row, now, queue_);
    MemRequest popped = queue_.erase(req.id);
    scheduler_->on_serve(popped);
    if (lifecycle_ != nullptr && popped.is_read()) lifecycle_->on_cas(popped.id, now);
    if (recorder_ != nullptr) recorder_->on_serve(popped.id, now, done);
    inflight_.push_back(InFlight{std::move(popped), done});
    if (done < next_burst_done_) next_burst_done_ = done;
    return true;
  }

  if (bank.row_open()) {
    // Demand precharge: the scheduler chose a request for another row.
    // (Hit-first policies only reach here with no pending hits; plain FCFS
    // may legitimately close a row that still has younger hits pending.)
    if (!dram_.can_issue(CommandKind::kPrecharge, b, now)) {
      if (retry_at != nullptr)
        *retry_at = dram_.earliest_issue(CommandKind::kPrecharge, b);
      return false;
    }
    dram_.issue(CommandKind::kPrecharge, b, kInvalidRow, now);
    if (checker_ != nullptr)
      checker_->on_command(CommandKind::kPrecharge, b, kInvalidRow, now, queue_);
    return true;
  }

  if (!dram_.can_issue(CommandKind::kActivate, b, now)) {
    if (retry_at != nullptr)
      *retry_at = dram_.earliest_issue(CommandKind::kActivate, b);
    return false;
  }
  dram_.issue(CommandKind::kActivate, b, req.loc.row, now);
  ++bank_acts_[b];
  if (checker_ != nullptr)
    checker_->on_command(CommandKind::kActivate, b, req.loc.row, now, queue_);
  if (tracer_ != nullptr) tracer_->row_activate(now, id_, b, req.loc.row);
  return true;
}

bool MemoryController::try_closed_row_precharge(BankId b, Cycle now) {
  const dram::Bank& bank = dram_.bank(b);
  if (!bank.row_open() || bank.open_row_accesses() == 0) return false;
  if (queue_.oldest_for_row(b, bank.open_row()) != nullptr) return false;
  if (!dram_.can_issue(CommandKind::kPrecharge, b, now)) return false;
  dram_.issue(CommandKind::kPrecharge, b, kInvalidRow, now);
  if (checker_ != nullptr)
    checker_->on_command(CommandKind::kPrecharge, b, kInvalidRow, now, queue_);
  rr_bank_ = (b + 1) % num_banks_;
  return true;
}

void MemoryController::issue_one_command(Cycle now) {
  // Pass-level memo accounting: while the scan runs, record whether every
  // bank with work is blocked by a per-bank memo and, if so, the earliest
  // memo horizon. Until a command issues nothing moves the DRAM timing
  // gates, so a fully-blocked pass is provably a no-op until that horizon
  // and tick() skips it outright (cmd_wake_).
  bool all_blocked = true;
  Cycle min_wake = kNeverCycle;
  for (unsigned i = 0; i < num_banks_; ++i) {
    BankId b = rr_bank_ + i;
    if (b >= num_banks_) b -= num_banks_;

    // Schedulability skips: an empty bank can yield no request command, so
    // decide() is not consulted (policies return kNone without side effects
    // for empty banks). A draining bank is NOT skipped even when empty:
    // decide() retires exhausted drain state lazily, and deferring that
    // retirement to the next drop pass would let a same-row arrival join a
    // drain the unskipped path had already ended. A bank whose chosen
    // command failed legality is skipped until its retry memo expires: the
    // DRAM gates it is waiting on only move forward, so it provably cannot
    // issue before then, and the memo is invalidated whenever its pending
    // set changes. Only the closed-row ablation's idle precharge can still
    // apply here.
    if (fast_path_) {
      const bool empty = queue_.bank_size(b) == 0;
      if (empty && !scheduler_->bank_draining(b)) {
        if (row_policy_ == RowPolicy::kClosedRow && try_closed_row_precharge(b, now))
          return;
        continue;
      }
      // Memos are only honored under open-row policy: a skipped decide()
      // under the closed-row ablation could miss an idle precharge the
      // unskipped path would have issued. The bank unblocks when the later
      // of its two memos expires (each alone suffices to skip it).
      if (!empty && row_policy_ == RowPolicy::kOpenRow) {
        const Cycle memo = std::max(bank_retry_at_[b], bank_none_until_[b]);
        if (now < memo) {
          min_wake = std::min(min_wake, memo);
          continue;
        }
      }
    }

    const dram::Bank& bank = dram_.bank(b);
    const BankView view{b, bank.row_open(), bank.open_row()};

    const Decision d = scheduler_->decide(queue_, view, now);
    LD_ASSERT_MSG(d.action != Decision::Action::kNone || d.req_id == kInvalidRequest,
                  "kNone decision carries a request id (use none()/gated())");
    if (d.action == Decision::Action::kServe) {
      const MemRequest* req = queue_.find(d.req_id);
      LD_ASSERT_MSG(req != nullptr, "scheduler chose a request not in the queue");
      LD_ASSERT_MSG(req->loc.bank == b, "scheduler chose a request for another bank");
      // Activation commitment: policies with cross-bank ranking state (e.g. a
      // BLISS blacklist update landing between this bank's ACT and CAS) can
      // switch rows after an activation was already paid for. Closing a row
      // that never served an access wastes the ACT and trips the channel's
      // zero-access accounting invariant, so the engine first retires the
      // oldest pending request of the untouched open row; the policy's new
      // choice proceeds next cycle. Row-stable policies never take this path.
      if (bank.row_open() && bank.open_row_accesses() == 0 &&
          req->loc.row != bank.open_row()) {
        if (const MemRequest* sticky = queue_.oldest_for_row(b, bank.open_row()))
          req = sticky;
      }
      Cycle retry_at = 0;
      if (advance_request(*req, now, &retry_at)) {
        rr_bank_ = b + 1 == num_banks_ ? 0 : b + 1;
        return;
      }
      if (fast_path_ && memo_safe_ && retry_at > now) {
        bank_retry_at_[b] = retry_at;
        min_wake = std::min(min_wake, retry_at);
      } else {
        // No usable bound (e.g. a bus-turnaround bubble, which
        // earliest_issue() excludes): re-scan this bank every cycle.
        all_blocked = false;
      }
      continue;  // Command not legal this cycle; give other banks a chance.
    }

    if (fast_path_ && memo_safe_ && d.action == Decision::Action::kNone &&
        d.none_until > now) {
      bank_none_until_[b] = d.none_until;
      min_wake = std::min(min_wake, d.none_until);
    } else {
      // kDrop gates and horizon-free kNone (drain retirement just ran) must
      // keep re-deciding every cycle.
      all_blocked = false;
    }

    // A kDrop answer in the command pass is a gate: the bank issues nothing
    // this cycle (the drop itself, if any, already ran in the drop pass).
    // Recorded so golden replay skips the bank at exactly this point.
    if (d.action == Decision::Action::kDrop && recorder_ != nullptr)
      recorder_->on_drop_gate(b, now);

    // Closed-row ablation: precharge banks left open with no work for the
    // open row. (Under open-row policy rows stay open until a conflict.)
    if (row_policy_ == RowPolicy::kClosedRow && try_closed_row_precharge(b, now))
      return;
  }
  if (fast_path_ && row_policy_ == RowPolicy::kOpenRow && all_blocked &&
      min_wake != kNeverCycle && min_wake > now)
    cmd_wake_ = min_wake;
}

void MemoryController::tick(Cycle now_mem) {
  end_mem_ = now_mem + 1;
  // Nothing in `inflight_` can retire before the tracked minimum done-cycle,
  // so until then the completion scan is a provable no-op (ungated by
  // fast_path_: bit-exact by construction).
  if (next_burst_done_ <= now_mem) complete_bursts(now_mem);
  scheduler_->tick(now_mem, dram_.bus_busy_cycles());
  if (checker_ != nullptr) checker_->on_tick(queue_, now_mem);

  // Policy gauges (DMS delay, Th_RBL) only change inside the scheduler tick
  // above, so one fill_probe serves the recorder — which needs the delay
  // current *at decision time* — the end-of-cycle sampler below, and the
  // fast path's delay-change edge detection.
  telemetry::WindowProbe probe;
  if (fast_path_ || recorder_ != nullptr || sampler_ != nullptr)
    scheduler_->fill_probe(probe);
  if (recorder_ != nullptr) recorder_->on_delay(now_mem, probe.dms_delay);

  // The none_until horizons assumed a constant DMS delay; drop them all on
  // a delay change (rare: at most once per profiling window). The retry
  // memos must go too: a retry horizon bounds when the bank's *chosen*
  // command becomes legal, but a delay change can un-gate a different
  // request (e.g. a younger row hit) whose command is legal immediately —
  // the choice the memo froze is stale, not just its timing.
  if (fast_path_ && probe.dms_delay != last_dms_delay_) {
    last_dms_delay_ = probe.dms_delay;
    std::fill(bank_none_until_.begin(), bank_none_until_.end(), Cycle{0});
    std::fill(bank_retry_at_.begin(), bank_retry_at_.end(), Cycle{0});
    cmd_wake_ = 0;
    drop_wake_ = 0;
  }

  // Idle short-circuit: with no pending requests there is no request to
  // drop or advance, and under open-row policy no command to issue at all —
  // the whole per-bank machinery is skipped. The one empty-queue case with
  // drop-pass work is an active drain awaiting lazy retirement (the pass
  // must keep visiting that bank), hence draining(), not may_drop(): budget
  // headroom alone gives the pass nothing to visit.
  const bool idle_cycle = fast_path_ && queue_.empty() &&
                          !(drops_possible_ && scheduler_->draining()) &&
                          row_policy_ == RowPolicy::kOpenRow;
  if (!idle_cycle) {
    // At most one AMS drop per cycle ("dropped sequentially in the following
    // memory cycles", Section IV-C). Drops use the reply path, not the DRAM
    // command bus, so a drop and a DRAM command can share a cycle. The scan
    // starts past the bank that dropped last (like rr_bank_ in the command
    // pass) so concurrent drains on different banks interleave their drops
    // instead of the lowest-numbered bank always finishing first.
    //
    // drop_wake_: a completed scan in which every visited bank was (or just
    // became) age-gated proves the pass stays dropless until the earliest
    // gate horizon — no decide() can reach the AMS admission check before
    // then, so its time-varying state (coverage, Th_RBL, halted) cannot
    // matter. Never set while a drain is active (a draining bank decides
    // kDrop and clears the wake on execution) or after an early exit.
    if (drops_possible_ && now_mem >= drop_wake_) {
      bool all_gated = true;
      Cycle min_wake = kNeverCycle;
      bool dropped_one = false;
      unsigned i = 0;
      for (; scheduler_->may_drop() && i < num_banks_; ++i) {
        BankId b = drop_rr_bank_ + i;
        if (b >= num_banks_) b -= num_banks_;
        if (fast_path_ && queue_.bank_size(b) == 0 && !scheduler_->bank_draining(b))
          continue;  // Nothing to drop and no drain state to retire.
        if (fast_path_ && row_policy_ == RowPolicy::kOpenRow &&
            now_mem < bank_none_until_[b]) {
          min_wake = std::min(min_wake, bank_none_until_[b]);
          continue;  // Age-gated: decide() is provably still kNone.
        }
        const dram::Bank& bank = dram_.bank(b);
        const BankView view{b, bank.row_open(), bank.open_row()};
        const Decision d = scheduler_->decide(queue_, view, now_mem);
        LD_ASSERT_MSG(
            d.action != Decision::Action::kNone || d.req_id == kInvalidRequest,
            "kNone decision carries a request id (use none()/gated())");
        if (d.action != Decision::Action::kDrop) {
          if (fast_path_ && memo_safe_ && d.action == Decision::Action::kNone &&
              d.none_until > now_mem) {
            bank_none_until_[b] = d.none_until;
            min_wake = std::min(min_wake, d.none_until);
          } else {
            all_gated = false;  // kServe / drain retirement: re-decide next cycle.
          }
          continue;
        }
        if (checker_ != nullptr) {
          const MemRequest* victim = queue_.find(d.req_id);
          LD_ASSERT(victim != nullptr);
          checker_->on_drop(*victim, now_mem, queue_);
        }
        MemRequest dropped = queue_.erase(d.req_id);
        LD_ASSERT_MSG(dropped.is_read(), "AMS must only drop reads");
        // The drop can change this bank's decision; both memos and the
        // pass-level wakes aggregated from them are stale.
        bank_retry_at_[b] = 0;
        bank_none_until_[b] = 0;
        cmd_wake_ = 0;
        drop_wake_ = 0;
        ++reads_dropped_;
        ++bank_drops_[dropped.loc.bank];
        if (dropped.tenant < tenant_reads_dropped_.size())
          ++tenant_reads_dropped_[dropped.tenant];
        scheduler_->on_drop(dropped);
        // After on_drop so the scheduler's stall closeout reaches the
        // collector before the record finalizes.
        if (lifecycle_ != nullptr) lifecycle_->on_drop(dropped.id, now_mem);
        if (recorder_ != nullptr) recorder_->on_drop(dropped.id, now_mem);
        if (tracer_ != nullptr)
          tracer_->row_group_drop(now_mem, id_, dropped.loc.bank, dropped.loc.row,
                                  dropped.id);
        replies_.push_back(MemReply{dropped.id, dropped.line_addr, dropped.src_sm,
                                    /*approximate=*/true, now_mem});
        drop_rr_bank_ = b + 1 == num_banks_ ? 0 : b + 1;
        dropped_one = true;
        break;
      }
      if (fast_path_ && row_policy_ == RowPolicy::kOpenRow && !dropped_one &&
          i == num_banks_ && all_gated && min_wake != kNeverCycle)
        drop_wake_ = min_wake;
    }

    if (now_mem >= cmd_wake_) issue_one_command(now_mem);
  }

  // The sampler observes the cycle last, so its probe reflects everything
  // issued up to and including `now_mem`. Read-only: cannot perturb the run.
  if (sampler_ != nullptr) {
    fill_channel_counters(probe, now_mem);
    sampler_->tick(now_mem, probe);
  }
}

std::optional<MemReply> MemoryController::pop_reply(Cycle now_mem) {
  if (replies_.empty() || replies_.front().ready_cycle > now_mem) return std::nullopt;
  MemReply r = replies_.front();
  replies_.pop_front();
  return r;
}

void MemoryController::inject_command_for_test(dram::CommandKind kind, BankId bank,
                                               RowId row, Cycle now) {
  LD_ASSERT_MSG(checker_ != nullptr, "inject_command_for_test needs a checker");
  checker_->on_command(kind, bank, row, now, queue_);
}

void MemoryController::finalize() {
  LD_SELF_ZONE("mc.finalize");
  dram_.flush_open_rows();
  // The run ends one past the last ticked cycle — the same boundary the
  // sampler's flush closes its final window at (last_tick_ + 1).
  dram_.finalize_power(end_mem_);
  if (sampler_ != nullptr) sampler_->flush(telemetry_probe(end_mem_));
}

void MemoryController::enable_tenant_accounting(unsigned num_tenants) {
  tenant_reads_received_.assign(num_tenants, 0);
  tenant_reads_served_.assign(num_tenants, 0);
  tenant_reads_dropped_.assign(num_tenants, 0);
  tenant_latency_sum_.assign(num_tenants, 0);
  tenant_latency_hist_.assign(num_tenants, Histogram{4096});
  attach_tenant_probe();
}

void MemoryController::attach_tenant_probe() {
  // Per-tenant window columns need both features on; enable_tenant_accounting
  // and enable_window_sampling can arrive in either order.
  if (sampler_ == nullptr || tenant_reads_served_.empty()) return;
  sampler_->set_tenant_probe(
      num_tenants(), [this](std::vector<telemetry::TenantProbe>& out) {
        for (std::size_t t = 0; t < out.size(); ++t) {
          out[t].reads_received = tenant_reads_received_[t];
          out[t].reads_served = tenant_reads_served_[t];
          out[t].drops = tenant_reads_dropped_[t];
        }
      });
}

void MemoryController::enable_window_sampling(Cycle window, telemetry::Tracer* tracer) {
  sampler_ = std::make_unique<telemetry::WindowSampler>(id_, window, tracer);
  sampler_->set_power_scale(watts_per_nj_per_cycle_);
  scheduler_->enable_bank_stall_tracking();
  stall_scratch_.assign(num_banks_, 0);
  sampler_->set_bank_probe(
      num_banks_, [this](Cycle end, std::vector<telemetry::BankProbe>& out) {
        std::fill(stall_scratch_.begin(), stall_scratch_.end(), std::uint64_t{0});
        scheduler_->harvest_bank_stalls(end, stall_scratch_);
        const dram::PowerAccountant* pw = dram_.power();
        for (unsigned b = 0; b < num_banks_; ++b) {
          out[b].activations = bank_acts_[b];
          out[b].column_accesses = bank_cols_[b];
          out[b].drops = bank_drops_[b];
          out[b].stall_cycles = stall_scratch_[b];
          if (pw != nullptr) {
            out[b].active_cycles = pw->bank_active_cycles(b, end);
            out[b].energy_nj = pw->bank_energy(b, end).total_nj();
          }
        }
      });
  attach_tenant_probe();
}

void MemoryController::fill_channel_counters(telemetry::WindowProbe& p,
                                             Cycle now) const {
  p.bus_busy_cycles = dram_.bus_busy_cycles();
  p.activations = dram_.activations();
  p.column_reads = dram_.energy().read_accesses();
  p.column_writes = dram_.energy().write_accesses();
  p.reads_dropped = reads_dropped_;
  p.reads_received = reads_received_;
  if (const dram::PowerAccountant* pw = dram_.power()) {
    // O(1): channel_energy never loops over banks.
    const dram::PowerBreakdown e = pw->channel_energy(now);
    p.energy_row_nj = e.row_nj;
    p.energy_access_nj = e.access_nj;
    p.energy_background_nj = e.background_nj;
    p.energy_refresh_nj = e.refresh_nj;
    p.energy_nj = e.total_nj();
  } else {
    p.energy_row_nj = dram_.energy().row_energy_nj();
    p.energy_access_nj = dram_.energy().access_energy_nj();
    p.energy_nj = dram_.energy().total_energy_nj();
  }
  p.queue_size = queue_.size();
}

telemetry::WindowProbe MemoryController::telemetry_probe(Cycle now) const {
  telemetry::WindowProbe p;
  fill_channel_counters(p, now);
  scheduler_->fill_probe(p);
  return p;
}

}  // namespace lazydram
