// sim/ layer tests: scheme construction, spec cache keys, the experiment
// runner's memoization and the report helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "workloads/mix.hpp"
#include "workloads/registry.hpp"

namespace lazydram {
namespace {

TEST(Scheme, AllSevenSchemesConstruct) {
  const SchemeParams params;
  EXPECT_EQ(core::all_schemes().size(), 7u);
  for (const core::SchemeKind kind : core::all_schemes()) {
    const core::SchemeSpec spec = core::make_scheme_spec(kind, params);
    EXPECT_EQ(spec.kind, kind);
    EXPECT_STRNE(core::scheme_name(kind), "");
  }
}

TEST(Scheme, SpecFlagsMatchKind) {
  const SchemeParams params;
  const auto spec = [&](core::SchemeKind k) { return core::make_scheme_spec(k, params); };
  EXPECT_FALSE(spec(core::SchemeKind::kBaseline).dms_enabled);
  EXPECT_FALSE(spec(core::SchemeKind::kBaseline).ams_enabled);
  EXPECT_TRUE(spec(core::SchemeKind::kStaticDms).dms_enabled);
  EXPECT_FALSE(spec(core::SchemeKind::kStaticDms).dms_dynamic);
  EXPECT_TRUE(spec(core::SchemeKind::kDynDms).dms_dynamic);
  EXPECT_TRUE(spec(core::SchemeKind::kDynCombo).dms_dynamic);
  EXPECT_TRUE(spec(core::SchemeKind::kDynCombo).ams_dynamic);
  EXPECT_EQ(spec(core::SchemeKind::kStaticDms).static_delay, params.static_delay);
  EXPECT_EQ(core::make_static_dms_spec(777, params).static_delay, 777u);
  EXPECT_EQ(core::make_static_ams_spec(3, params).static_th_rbl, 3u);
  const core::SchemeSpec combo = core::make_combo_spec(256, 4, params);
  EXPECT_TRUE(combo.dms_enabled);
  EXPECT_TRUE(combo.ams_enabled);
  EXPECT_EQ(combo.static_delay, 256u);
  EXPECT_EQ(combo.static_th_rbl, 4u);
}

TEST(Experiment, SpecKeysDistinguishParameters) {
  const SchemeParams params;
  EXPECT_NE(sim::spec_key(core::make_static_dms_spec(128, params)),
            sim::spec_key(core::make_static_dms_spec(256, params)));
  EXPECT_NE(sim::spec_key(core::make_static_ams_spec(1, params)),
            sim::spec_key(core::make_static_ams_spec(8, params)));
  EXPECT_EQ(sim::spec_key(core::make_scheme_spec(core::SchemeKind::kDynCombo, params)),
            sim::spec_key(core::make_scheme_spec(core::SchemeKind::kDynCombo, params)));
}

TEST(Experiment, RunnerMemoizesRuns) {
  sim::ExperimentRunner runner;
  const sim::RunMetrics& a = runner.baseline("3MM");
  const std::size_t after_first = runner.runs_executed();
  const sim::RunMetrics& b = runner.baseline("3MM");
  EXPECT_EQ(&a, &b);  // Same cached object.
  EXPECT_EQ(runner.runs_executed(), after_first);
}

TEST(Report, Geomean) {
  EXPECT_DOUBLE_EQ(sim::geomean({}), 1.0);
  EXPECT_NEAR(sim::geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(sim::geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Report, MeanAndRatio) {
  EXPECT_DOUBLE_EQ(sim::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(sim::mean({1.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(sim::ratio(3.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(sim::ratio(3.0, 0.0), 0.0);
}

TEST(Report, BenchWorkloadsNonEmptyAndRegistered) {
  for (const std::string& name : sim::bench_workloads()) {
    EXPECT_FALSE(name.empty());
  }
  EXPECT_GE(sim::bench_workloads().size(), 8u);
}

// The schedulability fast paths (GpuConfig::fast_path: bank skipping, retry
// and none-horizon memos, idle-cycle skipping) are a pure wall-clock
// optimization: with them off the same run must produce bit-identical
// metrics. Dyn-DMS+AMS exercises every memo (age gating, drops, delay
// changes); the closed-row baseline exercises the idle-precharge carve-out.
TEST(Simulator, FastPathOffMatchesFastPathOn) {
  struct Case {
    core::SchemeKind kind;
    RowPolicy row_policy;
  };
  for (const Case& c : {Case{core::SchemeKind::kDynCombo, RowPolicy::kOpenRow},
                        Case{core::SchemeKind::kBaseline, RowPolicy::kClosedRow}}) {
    const auto wl = workloads::make_workload("SCP");
    ASSERT_NE(wl, nullptr);
    sim::RunConfig on;
    on.spec = core::make_scheme_spec(c.kind, on.gpu.scheme);
    on.row_policy = c.row_policy;
    on.compute_error = false;
    sim::RunConfig off = on;
    on.gpu.fast_path = true;
    off.gpu.fast_path = false;

    const sim::RunMetrics a = sim::simulate(*wl, on);
    const sim::RunMetrics b = sim::simulate(*wl, off);
    ASSERT_TRUE(a.finished);
    ASSERT_TRUE(b.finished);
    EXPECT_EQ(a.core_cycles, b.core_cycles);
    EXPECT_EQ(a.mem_cycles, b.mem_cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.dram_reads, b.dram_reads);
    EXPECT_EQ(a.dram_writes, b.dram_writes);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.reads_received, b.reads_received);
    EXPECT_DOUBLE_EQ(a.avg_rbl, b.avg_rbl);
    EXPECT_DOUBLE_EQ(a.total_energy_nj, b.total_energy_nj);
    EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
    EXPECT_DOUBLE_EQ(a.avg_delay, b.avg_delay);
    EXPECT_DOUBLE_EQ(a.avg_th_rbl, b.avg_th_rbl);
    EXPECT_DOUBLE_EQ(a.bwutil, b.bwutil);
  }
}

// The one run loop, pinned: the paper's seven-scheme matrix on SCP, CONS and
// MVT plus a three-tenant QoS mix, each run once and compared exactly against
// values recorded from the same configurations. Counts are exact; the
// doubles are %.17g literals, so they round-trip bit for bit. A change that
// moves any of them changes the model, not just how fast it runs.
TEST(Simulator, SchemeMatrixPinned) {
  using K = core::SchemeKind;
  struct Pinned {
    const char* workload;  ///< Registry name, or "mix" for the tenant mix.
    K kind;
    Cycle core_cycles, mem_cycles;
    std::uint64_t instructions, activations, dram_reads, dram_writes, drops,
        reads_received;
    double avg_rbl, total_energy_nj, coverage, avg_delay, avg_th_rbl, bwutil;
  };
  const Pinned pinned[] = {
    {"SCP", K::kBaseline, 139264, 91914, 26400, 53142, 128415, 1200, 0, 128415,
     2.439031274697979, 380000.31599999999, 0, 0, 0, 0.94011793633178842},
    {"SCP", K::kStaticDms, 138240, 91238, 26400, 50352, 128391, 1200, 0, 128391,
     2.5737011439466158, 371163.196, 0, 128, 0, 0.94690808654288783},
    {"SCP", K::kDynDms, 139264, 91914, 26400, 48434, 128358, 1200, 0, 128358,
     2.6749390923731262, 366249.17999999999, 0, 332.66714537502452, 0, 0.93970450638640468},
    {"SCP", K::kStaticAms, 123904, 81776, 26400, 47247, 115540, 1200, 12843, 128383,
     2.470844709717019, 338550.592, 0.10003660920838429, 0, 8, 0.95170547185808385},
    {"SCP", K::kDynAms, 124928, 82452, 26400, 46133, 115562, 1200, 12845, 128407,
     2.5309864955671646, 336112.04399999999, 0.10003348727094317, 0, 2.4240002263943463, 0.94408059638739306},
    {"SCP", K::kStaticCombo, 123904, 81776, 26400, 44570, 115545, 1200, 12847, 128392,
     2.6193628000897466, 330372.07199999999, 0.1000607514486884, 128, 8, 0.9517462336137742},
    {"SCP", K::kDynCombo, 134144, 88535, 26400, 39744, 115487, 1200, 12836, 128323,
     2.9359651771336552, 323202.32400000002, 0.10002883349048884, 435.02217202236403, 3.1743378324956235, 0.87865062781197645},
    {"CONS", K::kBaseline, 372736, 246005, 61440, 138068, 152427, 122880, 0, 152427,
     1.9939957122577281, 945616.96399999992, 0, 0, 0, 0.74607426678319544},
    {"CONS", K::kStaticDms, 362496, 239247, 61440, 133332, 151866, 122880, 0, 151866,
     2.0606156061560617, 924223.82799999998, 0, 128, 0, 0.76558535739215117},
    {"CONS", K::kDynDms, 373760, 246681, 61440, 134046, 152383, 122880, 0, 152383,
     2.0534965608820852, 934605.23600000003, 0, 255.85990003283595, 0, 0.74391082680330733},
    {"CONS", K::kStaticAms, 349184, 230461, 61440, 130128, 137195, 122880, 15254, 152449,
     1.9986090618467971, 889840.2080000001, 0.10005969209374939, 0, 8, 0.75233264341182815},
    {"CONS", K::kDynAms, 345088, 227758, 61440, 127446, 137255, 122880, 15250, 152505,
     2.0411389922006182, 879635.45600000001, 0.099996721418969869, 0, 1.5125132816410398, 0.76143684671156808},
    {"CONS", K::kStaticCombo, 338944, 223703, 61440, 124853, 137208, 122880, 15252, 152460,
     2.0831537888556944, 867642.46799999999, 0.10003935458480913, 128, 8, 0.77509912696745242},
    {"CONS", K::kDynCombo, 345088, 227758, 61440, 119095, 137482, 122880, 15277, 152759,
     2.1861707040597844, 855745.16800000006, 0.10000720088505424, 310.82366371323951, 2.0736454189680864, 0.76210129464899878},
    {"MVT", K::kBaseline, 156672, 103403, 307200, 36459, 73251, 3072, 0, 73251,
     2.0933925779642886, 289836.49200000003, 0, 0, 0, 0.49207469802616943},
    {"MVT", K::kStaticDms, 165888, 109486, 307200, 33705, 73638, 3072, 0, 73638,
     2.2759234534935469, 288419.39199999999, 0, 128, 0, 0.46709168295489834},
    {"MVT", K::kDynDms, 167936, 110837, 307200, 29713, 68170, 3072, 0, 68170,
     2.3976710530744119, 272616.20799999998, 0, 123.27089329375569, 0, 0.42850913202871482},
    {"MVT", K::kStaticAms, 152576, 100700, 307200, 35817, 68342, 3072, 7597, 75939,
     1.9938576653544406, 278989.74800000002, 0.10004082223890227, 0, 8, 0.47278384640847404},
    {"MVT", K::kDynAms, 152576, 100700, 307200, 33777, 66676, 3072, 7410, 74086,
     2.0649554430529649, 271357.85600000003, 0.10001889695758982, 0, 2.2134094670638862, 0.46175438596491231},
    {"MVT", K::kStaticCombo, 164864, 108810, 307200, 27668, 62627, 3072, 6962, 69589,
     2.3745482145438772, 257665.65999999997, 0.10004454727040193, 128, 8, 0.40253040468094231},
    {"MVT", K::kDynCombo, 159744, 105431, 307200, 28006, 64290, 3072, 7146, 71436,
     2.4052702992215953, 256851.26400000002, 0.10003359650596338, 123.02840720471208, 3.4928120445283333, 0.42594682778309984},
    {"mix", K::kDynCombo, 102400, 67584, 28260, 8479, 16694, 6060, 1007, 17701,
     2.6835711758462084, 117441.84400000001, 0.056889441274504265, 137.6991792929293, 7.7878787878787881, 0.22445154671717171},
  };

  // Three tenants with distinct kernels, budgets and think times, under the
  // full Dyn-DMS+AMS scheme with per-tenant QoS caps.
  std::vector<workloads::MixTenant> tenants(3);
  tenants[0].kernels = {"SCP"};
  tenants[0].warps = 60;
  tenants[0].coverage_cap = 0.05;
  tenants[1].kernels = {"CONS"};
  tenants[1].warps = 60;
  tenants[1].think = 2000;
  tenants[2].kernels = {"MVT"};
  tenants[2].warps = 60;
  tenants[2].approx = false;
  const workloads::MixWorkload mix(tenants, /*seed=*/7);

  for (const Pinned& p : pinned) {
    const std::string what = std::string(p.workload) + " / " + core::scheme_name(p.kind);
    SCOPED_TRACE(what);
    sim::RunConfig config;
    config.spec = core::make_scheme_spec(p.kind, config.gpu.scheme);
    config.compute_error = false;
    config.ignore_env_outputs = true;
    sim::RunMetrics m;
    if (std::string(p.workload) == "mix") {
      for (const workloads::MixTenant& t : tenants) {
        TenantQos qos;
        qos.coverage_cap = t.coverage_cap;
        qos.dms_delay_cap = t.dms_delay_cap;
        config.gpu.scheme.tenant_qos.push_back(qos);
      }
      m = sim::simulate(mix, config);
    } else {
      const auto wl = workloads::make_workload(p.workload);
      ASSERT_NE(wl, nullptr);
      m = sim::simulate(*wl, config);
    }
    ASSERT_TRUE(m.finished);
    EXPECT_EQ(m.core_cycles, p.core_cycles);
    EXPECT_EQ(m.mem_cycles, p.mem_cycles);
    EXPECT_EQ(m.instructions, p.instructions);
    EXPECT_EQ(m.activations, p.activations);
    EXPECT_EQ(m.dram_reads, p.dram_reads);
    EXPECT_EQ(m.dram_writes, p.dram_writes);
    EXPECT_EQ(m.drops, p.drops);
    EXPECT_EQ(m.reads_received, p.reads_received);
    EXPECT_EQ(m.avg_rbl, p.avg_rbl);
    EXPECT_EQ(m.total_energy_nj, p.total_energy_nj);
    EXPECT_EQ(m.coverage, p.coverage);
    EXPECT_EQ(m.avg_delay, p.avg_delay);
    EXPECT_EQ(m.avg_th_rbl, p.avg_th_rbl);
    EXPECT_EQ(m.bwutil, p.bwutil);
  }
}

}  // namespace
}  // namespace lazydram
