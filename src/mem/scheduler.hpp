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

/// Constant facts about a policy, read once by the controller (and by the
/// protocol checker's configuration) at construction.
struct SchedulerTraits {
  /// Can the policy ever answer kDrop? When false the controller never runs
  /// the drop pass and never asks for drop_state().
  bool can_drop = false;
  /// True iff the policy never issues a PRE on a bank that still holds
  /// pending row hits for the open row. The strict protocol checker enforces
  /// hit-first ordering only when this holds; policies that deliberately
  /// close rows with hits outstanding (FCFS's strict age order, BLISS's
  /// blacklist ranking, batch-cap RR's rotation) set it false.
  bool hit_first = true;
  /// True iff a decide(queue, bank, now) answer can only change when that
  /// bank's pending set changes, the policy's delay knobs change, or its
  /// none_until horizon expires. The controller's retry/none_until memo
  /// layer is sound exactly under that assumption; policies with cross-bank
  /// coupling (BLISS: a serve on bank A can blacklist an SM and reorder bank
  /// B's candidates) set it false and run with memos disabled.
  bool memo_safe = true;
};

/// Per-cycle drop state of a policy whose traits().can_drop holds.
struct DropState {
  /// Can decide() answer kDrop right now? The drop pass stops as soon as
  /// this turns false.
  bool may_drop = false;
  /// Bit b set iff an AMS row-group drop is draining on bank b. The drop and
  /// command passes keep visiting a draining bank even when its pending
  /// queue ran dry, so decide() can retire the drain; with no bit set and
  /// nothing queued the drop pass has no bank to visit. Only on_drop() sets
  /// bank b's bit and only decide() on bank b clears it.
  std::uint64_t draining_banks = 0;
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

  /// Capabilities; must be constant over the scheduler's lifetime.
  virtual SchedulerTraits traits() const { return {}; }

  /// Current drop state; only consulted when traits().can_drop holds.
  virtual DropState drop_state() const { return {}; }

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
  /// telemetry probe. When `bank_stalls` is non-null (pre-zeroed, sized to
  /// the bank count) also adds each bank's cumulative DMS-stall cycles as of
  /// memory cycle `now`. Plain policies have nothing to add.
  virtual void fill_probe(telemetry::WindowProbe& probe, Cycle now,
                          std::vector<std::uint64_t>* bank_stalls) const {
    (void)probe;
    (void)now;
    (void)bank_stalls;
  }

  /// Registers policy-owned stats (counters/gauges reading this scheduler's
  /// internal state) with the stat registry under `prefix` (e.g. "core.ch0.").
  /// Called once after construction; the scheduler must outlive the hub's
  /// snapshots. Stateless policies register nothing.
  virtual void register_stats(telemetry::TelemetryHub& hub, const std::string& prefix) const {
    (void)hub;
    (void)prefix;
  }
};

}  // namespace lazydram
