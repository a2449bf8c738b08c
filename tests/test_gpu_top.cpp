// End-to-end GpuTop integration tests: completion, conservation, determinism,
// scheme invariants (coverage cap, baseline equivalence) on a small custom
// workload plus spot checks on registry apps.
#include <gtest/gtest.h>

#include "core/scheduler_registry.hpp"
#include "gpu/gpu_top.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workloads/patterns.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

using workloads::AddrRange;
using workloads::Level;

/// Small deterministic workload: strided tile reads + scattered reads +
/// stores, sized to finish in ~50k cycles.
class MiniWorkload final : public workloads::Workload {
 public:
  std::string name() const override { return "mini"; }
  std::string description() const override { return "test workload"; }
  unsigned group() const override { return 1; }
  workloads::FeatureTargets targets() const override { return {}; }
  unsigned num_warps() const override { return 120; }

  bool op_at(unsigned warp, unsigned step, gpu::WarpOp& op) const override {
    constexpr unsigned kIters = 24;
    if (step >= kIters * 4) return false;
    const unsigned iter = step / 4;
    const Addr base = workloads::MiB(16) +
                      (static_cast<Addr>(warp) * kIters + iter) * 8 * kLineBytes;
    switch (step % 4) {
      case 0:
        op = workloads::wide_load(base, 8, true);
        return true;
      case 1:
        op = gpu::WarpOp::load_line(
            workloads::MiB(512) +
                (workloads::mix64(warp * 131 + iter) % 4096) * kLineBytes,
            true);
        return true;
      case 2:
        op = gpu::WarpOp::compute(12);
        return true;
      default:
        op = gpu::WarpOp::store_line(workloads::MiB(768) +
                                     static_cast<Addr>(warp) * kLineBytes);
        return true;
    }
  }

  void init_memory(gpu::MemoryImage& image) const override {
    workloads::fill_smooth(image, workloads::MiB(16), 4096, 1.0, 3.0, 2.0);
    workloads::fill_smooth(image, workloads::MiB(512), 4096 * 32, 0.5, 5.0, 1.0);
  }
  void compute_output(gpu::MemView& view) const override {
    double acc = 0.0;
    for (unsigned i = 0; i < 4096; ++i)
      acc += view.read_f32(workloads::f32_addr(workloads::MiB(16), i));
    view.write_f32(workloads::MiB(896), static_cast<float>(acc));
  }
  std::vector<AddrRange> output_ranges() const override {
    return {{workloads::MiB(896), 4}};
  }
  std::vector<AddrRange> approximable_ranges() const override {
    return {{workloads::MiB(16), workloads::MiB(256)},
            {workloads::MiB(512), workloads::MiB(4)}};
  }
};

gpu::GpuTop::SchedulerFactory lazy_factory(const GpuConfig& cfg,
                                           const core::SchemeSpec& spec) {
  return core::make_scheduler_factory(cfg, spec);
}

TEST(GpuTop, BaselineRunCompletesAndConserves) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec;
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
  ASSERT_TRUE(top.run(20'000'000));
  EXPECT_TRUE(top.finished());
  EXPECT_GT(top.instructions(), 0u);

  // Conservation: every read received by every controller was served or
  // dropped; every write received was served.
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch) {
    const MemoryController& mc = top.controller(ch);
    EXPECT_EQ(mc.reads_received(), mc.reads_served() + mc.reads_dropped());
    EXPECT_EQ(mc.writes_received(), mc.writes_served());
    EXPECT_EQ(mc.reads_dropped(), 0u);  // No AMS in baseline.
  }
  EXPECT_TRUE(top.fmem().overlay().empty());
}

TEST(GpuTop, DeterministicAcrossRuns) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kDynCombo, cfg.scheme);
  auto run_once = [&] {
    gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
    top.run(20'000'000);
    return sim::collect_metrics(top, wl, "x", false);
  };
  const sim::RunMetrics a = run_once();
  const sim::RunMetrics b = run_once();
  EXPECT_EQ(a.core_cycles, b.core_cycles);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST(GpuTop, BaselineLazyMatchesPlainFrFcfs) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec;
  gpu::GpuTop lazy_top(cfg, wl, lazy_factory(cfg, spec));
  lazy_top.run(20'000'000);
  GpuConfig fr_cfg = cfg;
  fr_cfg.policy.name = "frfcfs";
  gpu::GpuTop fr_top(fr_cfg, wl,
                     core::make_scheduler_factory(fr_cfg, core::SchemeSpec{}));
  fr_top.run(20'000'000);
  EXPECT_EQ(lazy_top.core_cycles(), fr_top.core_cycles());
  sim::RunMetrics a = sim::collect_metrics(lazy_top, wl, "a", false);
  sim::RunMetrics b = sim::collect_metrics(fr_top, wl, "b", false);
  EXPECT_EQ(a.activations, b.activations);
}

TEST(GpuTop, AmsCoverageRespectsCap) {
  MiniWorkload wl;
  GpuConfig cfg;
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kStaticAms, cfg.scheme);
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, spec));
  ASSERT_TRUE(top.run(20'000'000));
  const sim::RunMetrics m = sim::collect_metrics(top, wl, "ams", false);
  EXPECT_GT(m.drops, 0u);
  // Row-group drains may overshoot the cap by at most Th_RBL per channel.
  const double slack =
      static_cast<double>(cfg.scheme.static_th_rbl * cfg.num_channels) /
      static_cast<double>(m.reads_received);
  EXPECT_LE(m.coverage, cfg.scheme.coverage_cap + slack);
  EXPECT_FALSE(top.fmem().overlay().empty());
}

TEST(GpuTop, DmsReducesActivationsOnMini) {
  MiniWorkload wl;
  GpuConfig cfg;
  gpu::GpuTop base(cfg, wl, lazy_factory(cfg, core::SchemeSpec{}));
  base.run(20'000'000);
  const core::SchemeSpec dms = core::make_static_dms_spec(512, cfg.scheme);
  gpu::GpuTop delayed(cfg, wl, lazy_factory(cfg, dms));
  delayed.run(20'000'000);
  const auto acts = [](const gpu::GpuTop& t) {
    std::uint64_t n = 0;
    for (ChannelId ch = 0; ch < t.num_channels(); ++ch)
      n += t.controller(ch).channel().activations();
    return n;
  };
  EXPECT_LT(acts(delayed), acts(base));
}

TEST(GpuTop, MetricsIdentities) {
  MiniWorkload wl;
  GpuConfig cfg;
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, core::SchemeSpec{}));
  top.run(20'000'000);
  const sim::RunMetrics m = sim::collect_metrics(top, wl, "base", false);
  // Avg-RBL identity: column accesses / activations.
  EXPECT_NEAR(m.avg_rbl,
              static_cast<double>(m.dram_reads + m.dram_writes) /
                  static_cast<double>(m.activations),
              1e-9);
  // The RBL histogram accounts for every activation and every access.
  std::uint64_t acts = 0, accesses = 0;
  for (std::uint64_t k = 1; k <= m.rbl_hist.max_key(); ++k) {
    acts += m.rbl_hist.at(k);
    accesses += k * m.rbl_hist.at(k);
  }
  EXPECT_EQ(acts + m.rbl_hist.overflow(), m.activations);
  EXPECT_LE(accesses, m.dram_reads + m.dram_writes);
  EXPECT_GT(m.ipc, 0.0);
  EXPECT_GT(m.bwutil, 0.0);
  EXPECT_LE(m.bwutil, 1.0);
}

/// Core-side counters that the SM issue scan, the SM sleep replay and the
/// crossbars decide. The benchmark's per-run digests do not cover the L1 or
/// issue-stall counters, so these pin them directly.
struct CoreSideCounters {
  Cycle core_cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_miss_stalls = 0;
  std::uint64_t reads_received = 0;
};

CoreSideCounters read_counters(const gpu::GpuTop& top) {
  CoreSideCounters c;
  c.core_cycles = top.core_cycles();
  c.instructions = top.instructions();
  for (SmId s = 0; s < top.num_sms(); ++s) {
    c.l1_accesses += top.sm(s).l1().accesses();
    c.l1_hits += top.sm(s).l1().hits();
    c.l1_miss_stalls += top.sm(s).l1_miss_stalls();
  }
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch)
    c.reads_received += top.controller(ch).reads_received();
  return c;
}

CoreSideCounters core_side_counters(const workloads::Workload& wl, core::SchemeKind kind,
                                    const GpuConfig& cfg = GpuConfig{}) {
  gpu::GpuTop top(cfg, wl, lazy_factory(cfg, core::make_scheme_spec(kind, cfg.scheme)));
  EXPECT_TRUE(top.run(200'000'000));
  return read_counters(top);
}

void expect_counters(const CoreSideCounters& got, const CoreSideCounters& want) {
  EXPECT_EQ(got.core_cycles, want.core_cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.l1_accesses, want.l1_accesses);
  EXPECT_EQ(got.l1_hits, want.l1_hits);
  EXPECT_EQ(got.l1_miss_stalls, want.l1_miss_stalls);
  EXPECT_EQ(got.reads_received, want.reads_received);
}

TEST(GpuTop, CoreSideCountersPinned) {
  // Recorded with the full issue scan, the full crossbar arbitration scan
  // and every SM ticked every cycle. The blocked-warp skip, the head-mask
  // arbiter and SM sleep are bit-exact, so no counter may move.
  MiniWorkload mini;
  {
    SCOPED_TRACE("mini Baseline");
    expect_counters(core_side_counters(mini, core::SchemeKind::kBaseline),
                    {44'032, 11'520, 292'895, 9, 295'071, 25'487});
  }
  {
    SCOPED_TRACE("mini Dyn-DMS+AMS");
    expect_counters(core_side_counters(mini, core::SchemeKind::kDynCombo),
                    {39'936, 11'520, 117'009, 9, 98'866, 25'474});
  }
  {
    SCOPED_TRACE("3MM Baseline");
    const auto mm3 = workloads::make_workload("3MM");
    expect_counters(core_side_counters(*mm3, core::SchemeKind::kBaseline),
                    {87'040, 288'000, 2'419'339, 75'972, 1'846'084, 3'693});
  }
  {
    // Stores blocked at a full request-crossbar queue sleep without an L1
    // probe: only the stall counter replays, and grants wake them.
    SCOPED_TRACE("SLA Baseline");
    const auto sla = workloads::make_workload("SLA");
    expect_counters(core_side_counters(*sla, core::SchemeKind::kBaseline),
                    {208'896, 23'040, 3'236'699, 52, 6'011'516, 81'973});
  }
  {
    // A full MSHR table: the blocked SM's queue is often empty, so only a
    // reply (or a timer) wakes it, and each slept tick replays an L1 miss.
    SCOPED_TRACE("3MM Baseline, 4 MSHRs");
    GpuConfig cfg;
    cfg.l1.mshr_entries = 4;
    const auto mm3 = workloads::make_workload("3MM");
    expect_counters(core_side_counters(*mm3, core::SchemeKind::kBaseline, cfg),
                    {241'664, 288'000, 6'892'015, 144'756, 6'313'615, 3'427});
  }
  {
    // The event wheel fast-forwards the core clock while every SM sleeps on
    // its MSHR table; the skipped cycles replay on wake.
    SCOPED_TRACE("SCP Baseline, 8 MSHRs, wheel");
    GpuConfig cfg;
    cfg.l1.mshr_entries = 8;
    cfg.shard_threads = 1;
    const auto scp = workloads::make_workload("SCP");
    expect_counters(core_side_counters(*scp, core::SchemeKind::kBaseline, cfg),
                    {142'336, 26'400, 4'066'787, 60, 3'935'987, 128'388});
  }
}

TEST(GpuTop, CappedRunCountsSleepingSms) {
  // A run cut by its cycle cap returns with SMs still asleep. Their skipped
  // ticks must be in the counters when run() returns, not only on a wake
  // that never comes.
  const auto mm3 = workloads::make_workload("3MM");
  GpuConfig cfg;
  gpu::GpuTop top(cfg, *mm3,
                  lazy_factory(cfg, core::make_scheme_spec(core::SchemeKind::kBaseline,
                                                           cfg.scheme)));
  EXPECT_FALSE(top.run(5000));
  const CoreSideCounters c = read_counters(top);
  EXPECT_EQ(c.core_cycles, 5000u);
  EXPECT_EQ(c.instructions, 17'022u);
  EXPECT_EQ(c.l1_accesses, 147'454u);
  EXPECT_EQ(c.l1_hits, 5'240u);
  EXPECT_EQ(c.l1_miss_stalls, 111'831u);
  EXPECT_EQ(c.reads_received, 2'506u);
}

TEST(Simulator, EndToEndSchemeOrderingOnScp) {
  // The paper's headline ordering on one real app: combo <= AMS < baseline
  // activations, and AMS must not hurt IPC.
  const auto wl = workloads::make_workload("SCP");
  GpuConfig cfg;
  const sim::RunMetrics base = sim::simulate_scheme(*wl, core::SchemeKind::kBaseline, cfg);
  const sim::RunMetrics ams = sim::simulate_scheme(*wl, core::SchemeKind::kStaticAms, cfg);
  const sim::RunMetrics combo =
      sim::simulate_scheme(*wl, core::SchemeKind::kStaticCombo, cfg);
  EXPECT_LT(ams.activations, base.activations);
  EXPECT_LT(combo.activations, ams.activations);
  EXPECT_GE(ams.ipc, base.ipc);
  EXPECT_GT(ams.coverage, 0.05);
  EXPECT_GT(ams.app_error, 0.0);
  EXPECT_LT(ams.app_error, 0.25);
}

}  // namespace
}  // namespace lazydram
