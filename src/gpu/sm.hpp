// One Streaming Multiprocessor: warp contexts, loose round-robin warp
// scheduling, a private L1 data cache with MSHRs, and the request/reply
// interface to the interconnect.
//
// Issue model: one warp operation (or one line of a multi-line memory op)
// per core cycle. Loads are non-blocking; a warp blocks at its next
// kCompute/kStore op until all its outstanding loads have returned — the
// same in-order-core-with-MLP model GPGPU-Sim's scoreboard enforces.
//
// Scheduling is event-driven for speed: only *active* warps are scanned each
// cycle. A warp leaves the active list when it blocks for a reason with a
// known wake event (compute occupancy -> timer; outstanding loads -> reply/
// completion) and re-enters on that event. Warps blocked on SM-global
// resources (crossbar slot, MSHR table) stay active, but the scan skips them
// once one of them has hit the block in this cycle: each active warp carries
// a "holds a decoded memory op" flag, and after the block only unflagged
// warps (compute, or not yet decoded) can still issue. A flagged warp is
// never done or busy (decode happens after the busy check), so polling it
// would change nothing, and the scan ends as soon as no unflagged warp is
// left. Issue order and the L1 / stall counters are those of a full scan.
//
// The SM itself sleeps when a tick changes nothing but the stall and L1 miss
// counters: no completion or timer fired, and nothing issued, decoded,
// retired or left the active list. That is an idle SM, or one whose LSU
// owner or blocked warps wait on a full request-crossbar queue or a full (or
// merge-full) MSHR table. Every later tick would repeat it exactly until one
// of three events: the earliest completion or timer comes due, the request
// crossbar grants a packet from this SM's queue, or a reply lands. The
// caller (GpuTop) stops ticking a sleeping SM until then. On wake, and on
// settle(), the SM adds slept ticks x that tick's two counter deltas, so
// every counter equals what per-cycle polling gives.
#pragma once

#include <algorithm>
#include <deque>
#include <queue>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "dram/address.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/warp.hpp"
#include "icnt/crossbar.hpp"
#include "workloads/workload.hpp"

namespace lazydram::gpu {

class Sm {
 public:
  Sm(const GpuConfig& cfg, SmId id, const workloads::Workload& workload,
     const AddressMapper& mapper);

  /// Adds a resident warp executing the workload's stream `global_warp_id`.
  /// Precondition: resident_warps() < max_warps_per_sm.
  void assign_warp(unsigned global_warp_id);
  unsigned resident_warps() const { return static_cast<unsigned>(warps_.size()); }

  /// One core cycle: retire L1-hit completions, wake timed-out warps, then
  /// issue at most one warp op / memory line. L1 misses are pushed into
  /// `req_xbar` (port `id()`). Puts the SM to sleep if nothing but the stall
  /// and L1 miss counters changed. Precondition: !asleep().
  void tick(Cycle now, icnt::Crossbar& req_xbar);

  /// Delivers a reply packet from the memory side at core cycle `now`
  /// (after this cycle's tick), waking the SM.
  void on_reply(const icnt::Packet& packet, Cycle now);

  /// True after a tick that changed nothing but the stall and L1 miss
  /// counters, until wake().
  bool asleep() const { return asleep_; }
  /// Ends a sleep whose ticks are skipped through cycle `through`: call it
  /// when the request crossbar grants from this SM's queue, or when a
  /// completion or timer comes due (through = that cycle - 1).
  void wake(Cycle through);
  /// Adds the counter deltas of the ticks a sleeping SM skipped through
  /// cycle `through`, staying asleep. Call before reading the counters.
  void settle(Cycle through);

  bool all_done() const { return done_warps_ == warps_.size(); }
  /// Resident warps that have retired, for run-progress reporting (the
  /// heartbeat's warps-done / ETA line).
  unsigned done_warps() const { return static_cast<unsigned>(done_warps_); }

  /// First future cycle at which tick() could change any state other than
  /// the slept-tick counters, assuming no reply arrives and the request
  /// crossbar grants nothing from this SM in between (both are external
  /// events the caller accounts for). An awake SM polls every cycle. A
  /// sleeping one wakes at its head L1-hit completion (FIFO: constant
  /// latency keeps it sorted) or its earliest compute timer, whichever is
  /// first (kNeverCycle if neither). Skipping the gap is bit-exact because
  /// the skipped ticks are replayed into the counters on wake or settle().
  Cycle next_event(Cycle now) const { return asleep_ ? wake_at_ : now + 1; }

  SmId id() const { return id_; }
  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t l1_miss_stalls() const { return stall_cycles_; }
  const cache::Cache& l1() const { return l1_; }

  // --- Per-tenant accounting (sized from workload.num_tenants()) ---
  std::uint64_t tenant_instructions(TenantId t) const { return tenant_instructions_[t]; }
  /// Core cycle the tenant's last resident warp on this SM retired (0 if the
  /// tenant has no warps here or none have finished yet).
  Cycle tenant_finish_cycle(TenantId t) const { return tenant_finish_cycle_[t]; }

 private:
  enum class IssueResult {
    kIssued,       ///< Used the issue slot.
    kPollBlocked,  ///< Blocked on a pollable resource; stay active.
    kSleep,        ///< Blocked with a known wake event; deactivate.
  };

  /// The issue half of tick(). Returns true iff it issued or took a warp
  /// off the active list.
  bool issue(Cycle now, icnt::Crossbar& req_xbar);
  IssueResult try_issue(unsigned warp_idx, Cycle now, icnt::Crossbar& req_xbar,
                        bool& mem_blocked);
  IssueResult issue_memory_line(unsigned warp_idx, Cycle now, icnt::Crossbar& req_xbar,
                                bool& mem_blocked);

  void activate(unsigned warp_idx);
  /// Sets the warp's decoded-memory-op flag, keeping active_without_mem_op_
  /// in step. Call only when the flag changes.
  void set_holds_mem_op(unsigned warp_idx, bool holds);

  const GpuConfig& cfg_;
  SmId id_;
  const workloads::Workload& workload_;
  const AddressMapper& mapper_;

  cache::Cache l1_;
  cache::MshrTable mshr_;  ///< Token = warp index within warps_.
  std::vector<Warp> warps_;
  std::size_t done_warps_ = 0;

  std::vector<unsigned> active_;    ///< Warp indices eligible for issue scan.
  std::vector<std::uint8_t> in_active_;
  /// Per warp: 1 while it holds a decoded, not yet fully issued memory op.
  std::vector<std::uint8_t> holds_mem_op_;
  /// Entries of active_ whose warp does not hold a decoded memory op.
  std::size_t active_without_mem_op_ = 0;
  /// (wake cycle, warp): compute-occupancy expirations.
  std::priority_queue<std::pair<Cycle, unsigned>, std::vector<std::pair<Cycle, unsigned>>,
                      std::greater<>>
      timers_;

  /// L1 hits complete after l1_hit_latency: (ready cycle, warp index).
  std::deque<std::pair<Cycle, unsigned>> completions_;

  /// Warp index currently owning the load/store unit mid-instruction
  /// (issues its remaining transactions with strict priority); -1 if none.
  int lsu_owner_ = -1;

  // Sleep state (see tick()). While asleep, the counters are exact through
  // settled_through_, and each skipped tick adds sleep_stalls_ stall cycles
  // and sleep_misses_ L1 misses.
  bool asleep_ = false;
  Cycle settled_through_ = 0;
  Cycle wake_at_ = kNeverCycle;  ///< Earliest completion or timer while asleep.
  std::uint64_t sleep_stalls_ = 0;
  std::uint64_t sleep_misses_ = 0;

  std::uint64_t instructions_ = 0;
  std::uint64_t stall_cycles_ = 0;
  std::vector<std::uint64_t> tenant_instructions_;
  std::vector<Cycle> tenant_finish_cycle_;
  RequestId next_packet_id_;
};

}  // namespace lazydram::gpu
