// Runtime DRAM protocol checker: an independent observer of one channel's
// command stream.
//
// The checker re-derives every timing constraint from its own shadow copy of
// the bank state machines and channel-scope gates — it never consults the
// DramChannel's ledgers — so a bug in the optimized command engine (or a
// scheduler handing it an illegal request) is caught even though both sides
// implement the same GDDR5 rules. On top of pure timing it validates the
// scheduler-level invariants the lazy scheduler's correctness argument rests
// on:
//
//   * bank state machine: ACT only on a closed bank, PRE/RD/WR only on an
//     open one, RD/WR only to the open row;
//   * timing: tRCD, tRP, tRC, tRAS, tRRD, tCCD (bank + bank-group scope),
//     tCDLR, tWR, read-to-PRE burst drain, tFAW (when configured), data-bus
//     occupancy with the RD<->WR turnaround bubble, one command per channel
//     per cycle, one AMS drop per channel per cycle;
//   * policy: a PRE must never bypass a pending row-buffer hit (hit-first
//     schedulers only — DMS delays misses, never hits), an ACT must open a
//     row some pending request wants, AMS may only drop annotated
//     approximable global reads, a new row-group drop requires cumulative
//     coverage below the cap, and no request may starve past a configurable
//     age bound.
//
// Per CheckMode::kLog violation: recorded (up to max_recorded), counted,
// emitted as a telemetry kCheckViolation event and log_warn'ed. In kStrict
// the first violation throws ViolationError instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/mode.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "dram/channel.hpp"
#include "mem/pending_queue.hpp"
#include "mem/request.hpp"
#include "telemetry/trace.hpp"

namespace lazydram::check {

enum class ViolationKind : std::uint8_t {
  kBankState,        ///< Command illegal for the bank's open/closed state.
  kTRcd,             ///< RD/WR before ACT + tRCD.
  kTRp,              ///< ACT before PRE + tRP.
  kTRc,              ///< ACT before previous ACT + tRC.
  kTRas,             ///< PRE before ACT + tRAS.
  kTCcd,             ///< CAS before previous CAS + tCCD (bank or bank group).
  kTRrd,             ///< ACT before previous ACT (any bank) + tRRD.
  kTFaw,             ///< Fifth ACT inside a rolling tFAW window.
  kTWr,              ///< PRE before write recovery completed.
  kTCdlr,            ///< RD before write-to-read turnaround completed.
  kReadToPre,        ///< PRE before the open row's read burst drained.
  kBusConflict,      ///< Data burst overlaps the previous one (+ turnaround).
  kCommandBus,       ///< Two commands on one channel in one cycle.
  kDropBus,          ///< Two AMS drops on one channel in one cycle.
  kRowHitBypassed,   ///< PRE closed a row that still had a pending hit.
  kActWithoutWork,   ///< ACT opened a row no pending request wants.
  kDropNotApproximable,  ///< AMS dropped a write or a non-approximable read.
  kCoverageExceeded,     ///< New row-group drop at/above the coverage cap.
  kStarvation,           ///< A request aged past the starvation bound.
};

const char* violation_kind_name(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kBankState;
  Cycle cycle = 0;
  ChannelId channel = 0;
  std::int32_t bank = -1;  ///< -1 when the violation has no bank scope.
  std::string detail;      ///< Human-readable context (cycles, bounds, ids).
};

struct CheckerOptions {
  CheckMode mode = CheckMode::kLog;
  /// The scheduler serves row hits before conflicting requests, so a PRE
  /// with a pending hit is a bug. Disable for plain FCFS, which legitimately
  /// closes rows that still have younger hits pending.
  bool hit_first = true;
  /// The scheme may drop reads at all (AMS enabled). When false any on_drop
  /// notification is a violation.
  bool ams_allowed = false;
  double coverage_cap = 0.10;
  /// Per-tenant coverage caps (resolved, i.e. inherit already applied).
  /// When non-empty a new row-group drop additionally requires the owning
  /// tenant's own coverage to be below its cap — the checker keeps shadow
  /// per-tenant counters with the same integer arithmetic as the AmsUnit.
  std::vector<double> tenant_coverage_caps;
  Cycle starvation_bound = kDefaultStarvationBound;
  std::size_t max_recorded = 32;  ///< Violations kept with full detail.
};

class ProtocolChecker {
 public:
  ProtocolChecker(const GpuConfig& cfg, ChannelId channel, const CheckerOptions& opts);

  /// Routes kCheckViolation events through `tracer` (nullable to detach).
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }

  // --- Observation hooks (called by MemoryController) ---

  /// A request entered the pending queue (already stamped with loc/cycle).
  void on_enqueue(const MemRequest& req, Cycle now);

  /// A DRAM command issued. `row` is the target row for ACT/RD/WR and
  /// ignored for PRE (the shadow open row is used). `queue` is the pending
  /// queue *before* the served request is removed.
  void on_command(dram::CommandKind kind, BankId bank, RowId row, Cycle now,
                  const PendingQueue& queue);

  /// AMS dropped `req` (still present in `queue` at the time of the call).
  void on_drop(const MemRequest& req, Cycle now, const PendingQueue& queue);

  /// Once per memory cycle: age/starvation scan (oldest request only).
  void on_tick(const PendingQueue& queue, Cycle now);

  // --- Results ---
  std::uint64_t commands_checked() const { return commands_checked_; }
  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<Violation>& violations() const { return violations_; }
  const CheckerOptions& options() const { return opts_; }
  ChannelId channel() const { return channel_; }

  /// Active-state residency of `bank` as of cycle `end`, derived purely from
  /// the checker's shadow open/close transitions. An independent witness for
  /// the power accountant's residencies: the two track the same command
  /// stream through disjoint state machines, so tests can cross-check them
  /// (see PowerAccounting.ResidenciesMatchCheckerShadow).
  std::uint64_t shadow_active_cycles(BankId bank, Cycle end) const;

 private:
  /// Shadow per-bank timing ledger, split per constraint so a violation can
  /// name the exact rule it broke. Update rules mirror dram::Bank exactly
  /// (running max semantics included).
  struct ShadowBank {
    RowId open_row = kInvalidRow;
    Cycle open_since = 0;               ///< ACT cycle of the current open row.
    std::uint64_t active_cycles = 0;    ///< Closed open-row residency.
    Cycle act_after_rc = 0;    ///< Last ACT + tRC.
    Cycle act_after_rp = 0;    ///< Last PRE + tRP.
    Cycle pre_after_ras = 0;   ///< Last ACT + tRAS.
    Cycle pre_after_rtp = 0;   ///< Last RD + tBURST (burst drain).
    Cycle pre_after_wr = 0;    ///< Last WR data end + tWR (write recovery).
    Cycle cas_after_rcd = 0;   ///< Last ACT + tRCD.
    Cycle cas_after_ccd = 0;   ///< Last CAS + tCCD (bank scope).
    Cycle rd_after_cdlr = 0;   ///< Last WR data end + tCDLR.
  };

  void check_activate(ShadowBank& b, BankId bank, RowId row, Cycle now,
                      const PendingQueue& queue);
  void check_precharge(ShadowBank& b, BankId bank, Cycle now, const PendingQueue& queue);
  void check_cas(ShadowBank& b, dram::CommandKind kind, BankId bank, RowId row,
                 Cycle now);

  void report(ViolationKind kind, Cycle cycle, std::int32_t bank, std::string detail);

  DramTiming t_;
  ChannelId channel_;
  unsigned groups_;
  CheckerOptions opts_;

  std::vector<ShadowBank> banks_;

  // Channel-scope shadow gates (mirror dram::DramChannel).
  Cycle act_after_rrd_ = 0;
  std::vector<Cycle> group_cas_;
  Cycle bus_free_at_ = 0;
  bool last_burst_was_write_ = false;

  // tFAW: rolling window of the last four ACT cycles (only when tFAW > 0).
  Cycle act_ring_[4] = {0, 0, 0, 0};
  unsigned act_ring_pos_ = 0;
  unsigned acts_in_ring_ = 0;

  // One-command-per-cycle / one-drop-per-cycle tracking.
  bool have_command_ = false;
  Cycle last_command_cycle_ = 0;
  bool have_drop_ = false;
  Cycle last_drop_cycle_ = 0;

  // AMS coverage shadow accounting (mirrors AmsUnit's integer counters, so
  // the coverage comparison is arithmetically identical to should_drop's).
  std::uint64_t reads_received_ = 0;
  std::uint64_t reads_dropped_ = 0;
  // Per-tenant shadow counters (sized from opts_.tenant_coverage_caps).
  std::vector<std::uint64_t> tenant_reads_received_;
  std::vector<std::uint64_t> tenant_reads_dropped_;
  /// Row a bank is currently draining (continuation drops of an admitted
  /// group are exempt from the new-group coverage pre-check).
  std::vector<RowId> drain_row_;

  // Starvation: report each wedged request once.
  bool have_starved_ = false;
  RequestId last_starved_ = 0;

  std::uint64_t commands_checked_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<Violation> violations_;
  unsigned logged_ = 0;

  telemetry::Tracer* tracer_ = nullptr;
};

}  // namespace lazydram::check
