// Approximate Memory Scheduling unit (Section IV-C).
//
// Decides whether the current row-miss candidate should be *dropped* (served
// by the value predictor) instead of opening its DRAM row. All four paper
// criteria are checked, in order:
//   1. the candidate is an annotated-approximable global read,
//   2. the DMS delay criterion is satisfied (checked by the LazyScheduler
//      before consulting this unit),
//   3. cumulative prediction coverage (drops / global reads received) is
//      below the user-defined cap (10%),
//   4. the candidate's pending row group is entirely approximable global
//      reads and its size (the RBL its activation would achieve) is <=
//      Th_RBL.
//
// Dyn-AMS modulates Th_RBL per 4096-cycle window: if the window's measured
// coverage reaches the target it lowers Th_RBL by 1 (more selective, down to
// 1); otherwise it raises it by 1 (more permissive, up to 8).
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/pending_queue.hpp"
#include "telemetry/trace.hpp"

namespace lazydram::core {

class AmsUnit {
 public:
  AmsUnit(const SchemeParams& params, bool dynamic, unsigned static_th_rbl);

  /// Once per memory cycle. `halted` is true while a co-running Dyn-DMS
  /// samples its baseline (AMS is temporarily suspended, Section IV-B).
  void tick(Cycle now_mem, bool halted);

  /// External readiness gate: the L2 slice must be warmed up before the VP
  /// unit can predict ("AMS is initially disabled until the cache is ready",
  /// Section IV-D).
  void set_ready(bool ready) { ready_ = ready; }
  bool ready() const { return ready_; }

  /// Partitions the coverage cap per client: tenant t's approximable reads
  /// may only be dropped while t's own coverage (t's drops / t's global
  /// reads) stays below t's cap. Entries with a negative cap inherit the
  /// global SchemeParams::coverage_cap. An empty vector (the default)
  /// restores the legacy single global budget, arithmetically bit-identical
  /// to pre-tenancy behavior.
  void set_tenant_qos(const std::vector<TenantQos>& qos);

  /// Criteria 1, 3, 4 on the candidate (criterion 2, DMS delay, is the
  /// caller's responsibility). Side-effect free.
  bool should_drop(const PendingQueue& queue, const MemRequest& candidate) const;

  /// True iff a drop answer is possible at all right now (fast pre-check).
  /// The global cap remains necessary for every drop even with per-tenant
  /// budgets, so this stays a sound over-approximation under tenancy.
  bool may_drop() const { return ready_ && !halted_ && coverage() < params_.coverage_cap; }

  // --- Accounting hooks (called by the LazyScheduler notifications) ---
  void on_read_received(TenantId tenant = 0);
  void on_drop(TenantId tenant = 0);

  /// Cumulative coverage: dropped reads / global reads received.
  double coverage() const {
    return reads_received_ == 0
               ? 0.0
               : static_cast<double>(reads_dropped_) / static_cast<double>(reads_received_);
  }

  /// Tenant t's own cumulative coverage (0 when per-tenant budgets are off).
  double tenant_coverage(TenantId tenant) const {
    if (tenant >= tenant_reads_.size() || tenant_reads_[tenant] == 0) return 0.0;
    return static_cast<double>(tenant_drops_[tenant]) /
           static_cast<double>(tenant_reads_[tenant]);
  }
  /// Tenant t's resolved coverage cap (the global cap when budgets are off
  /// or the entry inherits).
  double tenant_cap(TenantId tenant) const {
    return tenant < tenant_caps_.size() ? tenant_caps_[tenant] : params_.coverage_cap;
  }
  std::uint64_t tenant_reads_received(TenantId tenant) const {
    return tenant < tenant_reads_.size() ? tenant_reads_[tenant] : 0;
  }
  std::uint64_t tenant_reads_dropped(TenantId tenant) const {
    return tenant < tenant_drops_.size() ? tenant_drops_[tenant] : 0;
  }

  unsigned th_rbl() const { return th_rbl_; }
  bool halted() const { return halted_; }

  std::uint64_t reads_received() const { return reads_received_; }
  std::uint64_t reads_dropped() const { return reads_dropped_; }

  /// Emits kAmsThresholdChange events through `tracer` (nullable to detach).
  void set_telemetry(telemetry::Tracer* tracer, ChannelId channel) {
    tracer_ = tracer;
    channel_ = channel;
  }

 private:
  SchemeParams params_;
  bool dynamic_;
  unsigned th_rbl_;
  bool ready_ = false;
  bool halted_ = false;

  std::uint64_t reads_received_ = 0;
  std::uint64_t reads_dropped_ = 0;

  // Per-tenant budgets; all empty unless set_tenant_qos configured them.
  std::vector<double> tenant_caps_;         ///< Resolved caps (inherit applied).
  std::vector<std::uint64_t> tenant_reads_;
  std::vector<std::uint64_t> tenant_drops_;

  // Dyn-AMS per-window sampling.
  Cycle window_start_ = 0;
  std::uint64_t window_reads_ = 0;
  std::uint64_t window_drops_ = 0;

  telemetry::Tracer* tracer_ = nullptr;
  ChannelId channel_ = 0;
};

}  // namespace lazydram::core
