// Top-level simulated GPU: SMs + request/reply crossbars + memory partitions
// (L2 slice, VP unit, memory controller) + clock domains + functional memory.
//
// This is the substrate equivalent of GPGPU-Sim's top level for the paper's
// purposes: it turns a workload model into the interleaved, coalesced DRAM
// request streams the lazy memory scheduler operates on, and runs the whole
// machine cycle by cycle until the kernel (all warps) completes and the
// memory system drains.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/value_predictor.hpp"
#include "dram/address.hpp"
#include "gpu/functional_memory.hpp"
#include "gpu/sm.hpp"
#include "icnt/crossbar.hpp"
#include "mem/controller.hpp"
#include "telemetry/telemetry.hpp"

namespace lazydram {
namespace check {
class CheckContext;
class ProtocolChecker;
}  // namespace check
}  // namespace lazydram

namespace lazydram::gpu {

class GpuTop {
 public:
  /// Creates the per-channel scheduler. Returning a core::LazyScheduler
  /// enables the DMS/AMS/VP integration; other Scheduler implementations
  /// (plain FR-FCFS, FCFS) run without it.
  using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(ChannelId)>;

  /// `telemetry` (nullable) attaches the observability layer: its tracer is
  /// wired into every controller/scheduler, and window sampling is enabled
  /// on each channel when requested. Purely observational — a run's
  /// RunMetrics are bit-identical with or without it.
  /// `check` (nullable) attaches the verification layer: a protocol checker
  /// and/or request-stream recorder per channel, per its CheckConfig. The
  /// checker observes but never schedules, so (outside of a strict-mode
  /// throw) a run's results are bit-identical with or without it.
  GpuTop(const GpuConfig& cfg, const workloads::Workload& workload,
         const SchedulerFactory& factory, RowPolicy row_policy = RowPolicy::kOpenRow,
         telemetry::Telemetry* telemetry = nullptr,
         check::CheckContext* check = nullptr);

  /// Runs until the workload finishes and the memory system drains, or
  /// `max_core_cycles` elapse. Returns true iff it finished. The one driver:
  /// step() every core cycle, polling finished() every 1024th.
  bool run(Cycle max_core_cycles = 200'000'000);

  /// Advances one core cycle.
  void step();

  bool finished() const;

  // --- Results ---
  Cycle core_cycles() const { return core_cycle_; }
  Cycle mem_cycles() const { return divider_.slow_cycles(); }
  std::uint64_t instructions() const;
  double ipc() const {
    return core_cycle_ == 0
               ? 0.0
               : static_cast<double>(instructions()) / static_cast<double>(core_cycle_);
  }

  // --- Per-tenant results (single-workload runs have one tenant, id 0) ---
  unsigned num_tenants() const { return workload_.num_tenants(); }
  std::uint64_t tenant_instructions(TenantId t) const;
  /// Core cycle the tenant's last warp retired, max over SMs (0 if none
  /// finished yet).
  Cycle tenant_finish_cycle(TenantId t) const;

  unsigned num_channels() const { return static_cast<unsigned>(partitions_.size()); }
  const MemoryController& controller(ChannelId ch) const { return *partitions_[ch].mc; }
  const cache::Cache& l2(ChannelId ch) const { return partitions_[ch].l2; }
  /// The channel's lazy scheduler, or nullptr if another policy runs there.
  const core::LazyScheduler* lazy(ChannelId ch) const { return partitions_[ch].lazy; }
  const core::ValuePredictor& vp(ChannelId ch) const { return *partitions_[ch].vp; }
  const FunctionalMemory& fmem() const { return fmem_; }
  const AddressMapper& mapper() const { return mapper_; }
  const Sm& sm(SmId id) const { return *sms_[id]; }
  unsigned num_sms() const { return static_cast<unsigned>(sms_.size()); }
  const GpuConfig& config() const { return cfg_; }

  /// Registers every component's counters/gauges/histograms into `hub`
  /// under hierarchical names ("dram.ch0.activations", "core.ch1.dms.delay",
  /// ...). The hub must not outlive this GpuTop.
  void register_stats(telemetry::TelemetryHub& hub) const;

  /// Wall-clock attribution of one run(), collected only while the
  /// SelfProfiler is armed (all zero otherwise). The hot loop carries no RAII
  /// zones; run() reads the clock at its ends and step() times one core step
  /// in 64, so arming stays within the <=5% overhead budget. The sm/icnt/
  /// partition sample sums decompose the sampled steps' wall time; scale by
  /// 64 (or normalize by step_samples) for shares. (The name predates the
  /// single run loop; reports and the benchmark read it under this name.)
  struct WheelSelfStats {
    double run_wall_seconds = 0.0;
    std::uint64_t step_samples = 0;
    double sm_sample_seconds = 0.0;
    double icnt_sample_seconds = 0.0;
    double partition_sample_seconds = 0.0;
  };
  WheelSelfStats self_stats() const { return self_stats_; }

 private:
  struct PendingReply {
    Cycle ready = 0;
    icnt::Packet packet;
  };

  struct Partition {
    cache::Cache l2;
    std::unique_ptr<MemoryController> mc;
    core::LazyScheduler* lazy = nullptr;  ///< Borrowed from mc's scheduler.
    std::unique_ptr<core::ValuePredictor> vp;

    /// L2 miss table: line -> packets waiting for the refill.
    std::unordered_map<Addr, std::vector<icnt::Packet>> waiting;
    std::deque<icnt::Packet> input_backlog;   ///< Stalled request packets.
    std::deque<MemRequest> pending_mc;        ///< Waiting for MC queue space.
    std::deque<PendingReply> pending_replies; ///< Waiting for reply crossbar.
    bool ams_ready = false;

    explicit Partition(const CacheGeometry& geo) : l2(geo) {}
  };

  /// Ticks every awake SM after waking the sleepers whose completion or
  /// timer is due (see Sm::tick for the sleep rule).
  void tick_sms();
  void set_awake(SmId s) { awake_[s / 64] |= std::uint64_t{1} << (s % 64); }
  void partition_tick(Partition& p, unsigned idx, bool mem_ticked);
  void handle_request_packet(Partition& p, unsigned idx, const icnt::Packet& pkt,
                             bool& stalled);

  /// Emits one LAZYDRAM_HEARTBEAT status line when the period elapsed.
  /// Called every 1024th step only, never when cfg_.heartbeat_seconds == 0.
  void maybe_heartbeat();

  GpuConfig cfg_;
  const workloads::Workload& workload_;
  AddressMapper mapper_;
  FunctionalMemory fmem_;

  std::vector<std::unique_ptr<Sm>> sms_;
  /// Bit s set iff SM s is awake (ticked every cycle). A sleeping SM wakes
  /// on a request-crossbar grant from its queue, a reply, or its own timed
  /// event; next_timed_wake_ is at or before the earliest such event.
  std::vector<std::uint64_t> awake_;
  Cycle next_timed_wake_ = kNeverCycle;
  icnt::Crossbar req_xbar_;
  icnt::Crossbar reply_xbar_;
  std::vector<Partition> partitions_;

  ClockDivider divider_;
  Cycle core_cycle_ = 0;
  Cycle mem_now_ = 0;
  RequestId next_request_id_ = 1;
  telemetry::Tracer* tracer_ = nullptr;  ///< Borrowed; null when detached.
  /// Borrowed lifecycle collector; null when detached. Observational only.
  telemetry::LifecycleCollector* lifecycle_ = nullptr;
  /// Per-channel checkers, borrowed from the CheckContext (empty when
  /// checking is off; used only for stats registration).
  std::vector<check::ProtocolChecker*> checkers_;

  // Self-observability state (inert unless the SelfProfiler is armed /
  // cfg_.heartbeat_seconds > 0). Strictly passive: never read by simulation.
  bool self_enabled_ = false;  ///< SelfProfiler::enabled(), cached at run().
  WheelSelfStats self_stats_;
  std::chrono::steady_clock::time_point run_start_wall_;
  std::chrono::steady_clock::time_point next_heartbeat_;
  std::chrono::steady_clock::time_point last_heartbeat_;
  Cycle last_heartbeat_core_ = 0;

  /// Caps on per-core-cycle partition work (ports).
  static constexpr unsigned kInputsPerCycle = 2;
  static constexpr unsigned kRepliesPerCycle = 4;
  static constexpr std::size_t kPendingMcCap = 64;
};

}  // namespace lazydram::gpu
