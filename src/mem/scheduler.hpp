// Memory-scheduler policy interface.
//
// The MemoryController owns the command engine (PRE/ACT/RD/WR sequencing and
// timing legality); a Scheduler only answers the *policy* question: "which
// pending request should bank B work toward right now — or should one be
// dropped to the value predictor instead?". This split lets FR-FCFS, FCFS and
// the paper's lazy scheduler share one verified command engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mem/pending_queue.hpp"
#include "telemetry/window_sampler.hpp"

namespace lazydram {

namespace telemetry {
class TelemetryHub;
}

/// Snapshot of a bank's externally visible state.
struct BankView {
  BankId bank = 0;
  bool row_open = false;
  RowId open_row = kInvalidRow;
};

/// A scheduling decision for one bank at one memory cycle.
struct Decision {
  enum class Action : std::uint8_t {
    kNone,   ///< Nothing to do for this bank now (empty / gated by policy).
    kServe,  ///< Advance `req_id` toward service (PRE/ACT/RD/WR as needed).
    kDrop,   ///< Remove `req_id` from the queue; reply via the VP unit (AMS).
  };
  Action action = Action::kNone;
  /// Meaningful for kServe/kDrop only; kNone answers carry kInvalidRequest so
  /// an accidental dereference can never alias a live request (ids start at 1,
  /// but 0 was still a representable id — see the controller's LD_ASSERTs).
  RequestId req_id = kInvalidRequest;
  /// For kNone only: the policy guarantees the answer stays kNone until this
  /// cycle *provided* the bank's pending set and the policy's delay knobs do
  /// not change (the controller invalidates on either). 0 = no guarantee.
  Cycle none_until = 0;

  static Decision none() { return {}; }
  /// kNone with a stability horizon (see none_until).
  static Decision gated(Cycle until) { return {Action::kNone, kInvalidRequest, until}; }
  static Decision serve(RequestId id) { return {Action::kServe, id}; }
  static Decision drop(RequestId id) { return {Action::kDrop, id}; }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Policy decision for `bank` at memory cycle `now`. Must be free of
  /// observable side effects: the controller may call it more than once per
  /// cycle per bank (once in the drop pass, once in the command pass) — and,
  /// symmetrically, may not call it at all for a bank with no pending work
  /// and no draining drop, so a policy must not rely on decide() running
  /// every cycle for every bank.
  virtual Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) = 0;

  /// Cheap pre-check: can this policy ever answer kDrop right now? The
  /// controller skips the per-bank drop pass entirely when false, keeping
  /// the non-AMS schemes on the fast path.
  virtual bool may_drop() const { return false; }

  /// Static capability: can this policy ever answer kDrop at all? Must be
  /// constant over the scheduler's lifetime (a configuration fact, not a
  /// state query — may_drop() answers the per-cycle question). The
  /// controller caches it once and never even polls may_drop() when false.
  virtual bool drops_possible() const { return false; }

  /// Row-hit-first capability: true iff the policy never issues a PRE on a
  /// bank that still holds pending row hits for the open row. The strict
  /// protocol checker enforces hit-first ordering only when this holds;
  /// policies that deliberately close rows with hits outstanding (FCFS's
  /// strict age order, BLISS's blacklist ranking, batch-cap RR's rotation)
  /// return false. Constant over the scheduler's lifetime.
  virtual bool hit_first() const { return true; }

  /// Memoization capability: true iff a decide(queue, bank, now) answer can
  /// only change when that bank's pending set changes, the policy's delay
  /// knobs change, or its none_until horizon expires. The controller's
  /// retry/none_until memo layer is sound exactly under that assumption;
  /// policies with cross-bank coupling (BLISS: a serve on bank A can
  /// blacklist an SM and reorder bank B's candidates) return false and run
  /// with memos disabled. Constant over the scheduler's lifetime.
  virtual bool decide_memo_safe() const { return true; }

  /// True iff an AMS row-group drop is draining on `bank`. The controller's
  /// drop pass must keep visiting a draining bank even when its pending
  /// queue ran dry, so the policy can retire the drain state; banks that are
  /// neither draining nor holding pending work are skipped.
  virtual bool bank_draining(BankId bank) const {
    (void)bank;
    return false;
  }

  /// True iff any bank has an active drain awaiting lazy retirement. This is
  /// the only condition under which the drop pass has work with an *empty*
  /// pending queue: may_drop() also answers true on mere budget headroom
  /// (coverage below cap), but with nothing queued and nothing draining the
  /// pass provably visits no bank and mutates nothing — the controller's
  /// idle short-circuit keys off this instead.
  virtual bool draining() const { return false; }

  /// Called once per memory cycle before any decide(); `bus_busy_total` is
  /// the channel's cumulative data-bus busy cycle count (BWUTIL numerator).
  virtual void tick(Cycle now, std::uint64_t bus_busy_total) {
    (void)now;
    (void)bus_busy_total;
  }

  /// Notification: a request entered the pending queue.
  virtual void on_enqueue(const MemRequest& req) { (void)req; }

  /// Notification: a request left the queue because its column access issued.
  virtual void on_serve(const MemRequest& req) { (void)req; }

  /// Notification: a request left the queue because AMS dropped it.
  virtual void on_drop(const MemRequest& req) { (void)req; }

  /// Contributes policy-side gauges (DMS delay, Th_RBL, ...) to a windowed
  /// telemetry probe. Plain policies have nothing to add.
  virtual void fill_probe(telemetry::WindowProbe& probe) const { (void)probe; }

  /// Registers policy-owned stats (counters/gauges reading this scheduler's
  /// internal state) with the stat registry under `prefix` (e.g. "core.ch0.").
  /// Called once after construction; the scheduler must outlive the hub's
  /// snapshots. Stateless policies register nothing.
  virtual void register_stats(telemetry::TelemetryHub& hub, const std::string& prefix) const {
    (void)hub;
    (void)prefix;
  }

  /// Asks the policy to start accumulating per-bank observability counters
  /// (DMS stall cycles) for the windowed bank probe. Policies without
  /// bank-level state ignore it.
  virtual void enable_bank_stall_tracking() {}

  /// Adds the policy's cumulative per-bank DMS-stall cycles as of memory
  /// cycle `end` into `cum` (pre-zeroed, sized to the bank count). The
  /// default policy has no stalls and leaves the zeros. Observational only:
  /// implementations may rebase internal bookkeeping but must never let this
  /// affect scheduling decisions.
  virtual void harvest_bank_stalls(Cycle end, std::vector<std::uint64_t>& cum) {
    (void)end;
    (void)cum;
  }
};

}  // namespace lazydram
