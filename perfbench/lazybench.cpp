// Benchmark binary for lazydram. perfbench/run.py builds and runs it; it
// prints one JSON document of raw measurements on stdout, which run.py turns
// into the benchmark's metrics.
//
//   lazybench <workload> timed <passes>    round-robin passes over the
//                                          workload's simulation list
//   lazybench <workload> traced            the per-layer run (run_traced)
//
// Timed simulations run on the calling thread in the simulator's default
// configuration: GpuConfig{} (shard_threads = 0, self-profiler and heartbeat
// off), checker off, no trace or report, flight recorder at its default
// depth. Phases are timed here, around the simulator's public calls, so
// measuring needs no change to the simulator.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "check/context.hpp"
#include "common/config.hpp"
#include "core/lazy_scheduler.hpp"
#include "core/scheduler_registry.hpp"
#include "core/scheme.hpp"
#include "dram/address.hpp"
#include "gpu/gpu_top.hpp"
#include "mem/controller.hpp"
#include "sim/metrics.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/json.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/selfprof.hpp"
#include "telemetry/telemetry.hpp"
#include "probe.hpp"
#include "workloads/registry.hpp"

extern char** environ;

namespace {

using namespace lazydram;
using Clock = std::chrono::steady_clock;

/// A run that has not finished by then is a failure, not a result.
constexpr Cycle kMaxCoreCycles = 200'000'000;
/// Set-ups per simulation and pass. Set-up is short next to the run, so it
/// is repeated and run.py reports its median.
constexpr int kSetupRepeats = 3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. App inputs are fixed by the app models; nothing here is seeded.

struct WorkloadDef {
  std::vector<std::string> apps;
  core::SchemeKind lazy;  ///< The lazy scheme run beside Baseline.
  bool app_error;         ///< Application error on for the lazy runs.
};

bool find_workload(const std::string& name, WorkloadDef* out) {
  if (name == "fig12")
    *out = {workloads::fig12_workload_names(), core::SchemeKind::kDynCombo, true};
  else if (name == "core_bound")
    *out = {{"2MM", "3MM", "ATAX"}, core::SchemeKind::kDynDms, false};
  else if (name == "write_heavy")
    *out = {{"CONS", "SLA", "FWT"}, core::SchemeKind::kDynDms, false};
  else
    return false;
  return true;
}

struct Sim {
  std::string app;
  core::SchemeKind kind;
  bool compute_error;
};

/// Baseline and the lazy scheme for each app. Baseline runs without the
/// error pass, as the figure benches run it.
std::vector<Sim> sim_list(const WorkloadDef& def) {
  std::vector<Sim> sims;
  for (const std::string& app : def.apps) {
    sims.push_back({app, core::SchemeKind::kBaseline, false});
    sims.push_back({app, def.lazy, def.app_error});
  }
  return sims;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and written out when the
// run ends. A span's parent is the span that was open when it began.

struct SpanRecord {
  const char* name;
  int sim;
  int parent;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  int open(const char* name, int sim) {
    spans_.push_back({name, sim, open_.empty() ? -1 : open_.back(), Clock::now(), {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double close(int id) {
    spans_[id].end = Clock::now();
    open_.pop_back();
    return seconds_between(spans_[id].start, spans_[id].end);
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  Clock::time_point origin() const { return origin_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(SpanLog& log, const char* name, int sim) : log_(log), id_(log.open(name, sim)) {}
  ~Span() {
    if (id_ >= 0) log_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Closes the span now and returns its duration in seconds.
  double close() {
    const double s = log_.close(id_);
    id_ = -1;
    return s;
  }

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// One simulation.

/// What is switched on around a simulation; the defaults are the timed,
/// default configuration.
struct Observers {
  std::size_t flight_depth = telemetry::FlightRecorder::kDefaultDepth;
  bool self_profile = false;  ///< Arms the simulator's sampled step profiler.
  bool verify = false;        ///< Strict checker, stream recorder, lifecycles.
  int setups = kSetupRepeats;
};

/// Counts read from a verified run's GpuTop before it is destroyed.
struct LayerCounts {
  std::uint64_t l1_accesses = 0, l1_hits = 0, l1_miss_stalls = 0;
  std::uint64_t l2_accesses = 0, l2_hits = 0, l2_fills = 0;
  std::uint64_t writes_received = 0;
  std::uint64_t vp_predictions = 0;
  std::uint64_t check_commands = 0, check_violations = 0;
  telemetry::LifecycleSummary lifecycle;
  std::vector<check::ChannelRecording> recordings;
};

struct SimResult {
  int sim = 0;  ///< Index into the workload's simulation list.
  double probe_before = 0, probe_after = 0;  ///< Host-speed probe around it.
  bool ok = false;
  std::string error;
  std::vector<double> setup_s;  ///< One per set-up.
  double run_s = 0, collect_s = 0;
  sim::RunMetrics metrics;
  gpu::GpuTop::WheelSelfStats self;
  LayerCounts layers;
};

/// Everything one set-up creates. Heap-held so GpuTop's borrowed pointers to
/// the telemetry, checker and workload stay valid.
struct Instance {
  std::unique_ptr<workloads::Workload> workload;
  telemetry::Telemetry tele;
  check::CheckContext check;
  std::unique_ptr<gpu::GpuTop> top;

  explicit Instance(const check::CheckConfig& cc) : check(cc) {}
};

std::unique_ptr<Instance> set_up(const Sim& s, const GpuConfig& cfg,
                                 const gpu::GpuTop::SchedulerFactory& factory,
                                 const Observers& obs, SpanLog& log, int sim,
                                 SimResult& r) {
  check::CheckConfig cc;
  if (obs.verify) {
    cc.mode = check::CheckMode::kStrict;
    cc.record = true;
  }
  auto in = std::make_unique<Instance>(cc);
  if (obs.verify) in->tele.enable_lifecycle(1);
  if (obs.flight_depth > 0) in->tele.enable_flight(obs.flight_depth);

  Span setup(log, "sim.setup", sim);
  {
    Span span(log, "workloads.make_workload", sim);
    in->workload = workloads::make_workload(s.app);
  }
  {
    Span span(log, "gpu.construct", sim);
    in->top = std::make_unique<gpu::GpuTop>(cfg, *in->workload, factory,
                                            RowPolicy::kOpenRow, &in->tele, &in->check);
  }
  {
    Span span(log, "gpu.register_stats", sim);
    in->top->register_stats(in->tele.hub());
  }
  r.setup_s.push_back(setup.close());
  return in;
}

void count_layers(Instance& in, LayerCounts& c) {
  const gpu::GpuTop& top = *in.top;
  for (SmId i = 0; i < top.num_sms(); ++i) {
    c.l1_accesses += top.sm(i).l1().accesses();
    c.l1_hits += top.sm(i).l1().hits();
    c.l1_miss_stalls += top.sm(i).l1_miss_stalls();
  }
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch) {
    c.l2_accesses += top.l2(ch).accesses();
    c.l2_hits += top.l2(ch).hits();
    c.l2_fills += top.l2(ch).fills();
    c.writes_received += top.controller(ch).writes_received();
    c.vp_predictions += top.vp(ch).predictions();
    if (const check::ProtocolChecker* ck = in.check.checker(ch)) {
      c.check_commands += ck->commands_checked();
      c.check_violations += ck->violation_count();
    }
    if (const check::ChannelRecorder* rec = in.check.recorder(ch))
      c.recordings.push_back(rec->recording());
  }
  if (const telemetry::LifecycleCollector* lc = in.tele.lifecycle())
    c.lifecycle = lc->summary();
}

/// Reads must be conserved on every channel: received = served + dropped.
std::string conservation_error(const gpu::GpuTop& top) {
  for (ChannelId ch = 0; ch < top.num_channels(); ++ch) {
    const MemoryController& mc = top.controller(ch);
    if (mc.reads_received() != mc.reads_served() + mc.reads_dropped())
      return "channel " + std::to_string(ch) + " received " +
             std::to_string(mc.reads_received()) + " reads but served " +
             std::to_string(mc.reads_served()) + " and dropped " +
             std::to_string(mc.reads_dropped());
  }
  return {};
}

/// Set-ups, run and collection of one simulation, with the checks on its
/// outcome.
void simulate(const Sim& s, const Observers& obs, SpanLog& log, int sim, SimResult& r) {
  try {
    GpuConfig cfg;  // Table I defaults.
    cfg.self_profile = obs.self_profile;
    const core::SchemeSpec spec = core::make_scheme_spec(s.kind, cfg.scheme);
    const gpu::GpuTop::SchedulerFactory factory = core::make_scheduler_factory(cfg, spec);
    const std::string label = core::run_label(cfg, spec);

    std::unique_ptr<Instance> in;
    for (int i = 0; i < obs.setups; ++i) {
      in.reset();  // One instance alive at a time.
      in = set_up(s, cfg, factory, obs, log, sim, r);
    }

    bool finished = false;
    {
      Span span(log, "gpu.run", sim);
      finished = in->top->run(kMaxCoreCycles);
      r.run_s = span.close();
    }
    {
      // The error pass is timed apart from the rest of collection; the two
      // calls together are what collect_metrics(..., compute_error) does for
      // a single-tenant workload.
      Span collect(log, "sim.collect", sim);
      {
        Span span(log, "sim.collect_metrics", sim);
        r.metrics = sim::collect_metrics(*in->top, *in->workload, label, false,
                                         &in->tele.hub());
      }
      {
        Span span(log, "workloads.application_error", sim);
        if (s.compute_error && !in->top->fmem().overlay().empty())
          r.metrics.app_error = in->workload->application_error(in->top->fmem());
      }
      r.collect_s = collect.close();
    }
    if (obs.self_profile) r.self = in->top->self_stats();
    if (obs.verify) count_layers(*in, r.layers);

    if (!finished) {
      r.error = "did not finish within " + std::to_string(kMaxCoreCycles) + " core cycles";
    } else if (std::string e = conservation_error(*in->top); !e.empty()) {
      r.error = std::move(e);
    } else if (r.layers.check_violations != 0) {
      r.error = std::to_string(r.layers.check_violations) + " checker violation(s)";
    } else {
      r.ok = true;
    }
  } catch (const std::exception& e) {
    r.error = std::string("threw: ") + e.what();
  }
}

/// One simulation between two runs of the host-speed probe.
SimResult run_sim(const Sim& s, const Observers& obs, SpanLog& log, int sim) {
  SimResult r;
  r.sim = sim;
  r.probe_before = perfbench::host_probe_seconds();
  simulate(s, obs, log, sim, r);
  r.probe_after = perfbench::host_probe_seconds();
  return r;
}

// ---------------------------------------------------------------------------
// Open-loop replay of a recorded channel stream into a standalone controller.

struct ReplayResult {
  bool ok = false;
  std::string error;
  Cycle mem_cycles = 0;
  double seconds = 0;
};

ReplayResult replay(const check::ChannelRecording& rec, core::SchemeKind kind,
                    SpanLog& log, int sim) {
  ReplayResult r;
  const GpuConfig cfg;
  const AddressMapper mapper(cfg);
  const core::SchemeSpec spec = core::make_scheme_spec(kind, cfg.scheme);
  MemoryController mc(cfg, rec.channel, mapper, core::make_scheduler(cfg, spec));
  // No L2/VP warm-up outside the GPU model: arm AMS directly, as
  // bench_micro's drive_controller does.
  if (auto* lazy = dynamic_cast<core::LazyScheduler*>(&mc.scheduler()))
    lazy->set_ams_ready(true);

  const std::vector<check::RecordedArrival>& arrivals = rec.arrivals;
  std::uint64_t reads = 0;
  for (const check::RecordedArrival& a : arrivals) reads += a.is_read ? 1 : 0;
  // Generous: a drained queue never needs more than this many extra cycles.
  const Cycle limit = rec.last_cycle + 1'000'000;

  std::uint64_t replies = 0;
  std::size_t next = 0;
  Cycle now = 0;
  Span span(log, kind == core::SchemeKind::kBaseline ? "mem.replay" : "core.replay", sim);
  // As in GpuTop: the controller ticks, then the cycle's arrivals enqueue.
  while ((next < arrivals.size() || !mc.idle()) && now < limit) {
    mc.tick(now);
    while (mc.pop_reply(now)) ++replies;
    while (next < arrivals.size() && arrivals[next].enqueue_cycle <= now &&
           mc.can_accept()) {
      const check::RecordedArrival& a = arrivals[next++];
      MemRequest req;
      req.id = a.id;
      req.kind = a.is_read ? AccessKind::kRead : AccessKind::kWrite;
      req.approximable = a.approximable;
      req.tenant = a.tenant;
      req.src_sm = a.is_read ? 0 : MemRequest::kNoSm;
      req.line_addr = mapper.compose(rec.channel, a.bank, a.row, 0);
      mc.enqueue(req, now);
    }
    ++now;
  }
  mc.finalize();
  r.seconds = span.close();
  r.mem_cycles = now;
  if (now >= limit)
    r.error = "replay of channel " + std::to_string(rec.channel) + " did not drain";
  else if (replies != reads || mc.reads_served() + mc.reads_dropped() != reads)
    r.error = "replay of channel " + std::to_string(rec.channel) + " returned " +
              std::to_string(replies) + " of " + std::to_string(reads) + " reads";
  else
    r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// Output.

/// FNV-1a over the canonical text of a run's simulated results.
std::string digest(const sim::RunMetrics& m) {
  std::string text;
  char buf[64];
  auto put_u = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%llu,", static_cast<unsigned long long>(v));
    text += buf;
  };
  auto put_d = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    text += buf;
  };
  for (std::uint64_t v : {m.core_cycles, m.mem_cycles, m.warps_finish_core_cycle,
                          m.instructions, m.activations, m.dram_reads, m.dram_writes,
                          m.drops, m.reads_received, m.read_latency_p50,
                          m.read_latency_p95, m.read_latency_p99})
    put_u(v);
  for (double v : {m.ipc, m.avg_rbl, m.row_energy_nj, m.access_energy_nj,
                   m.background_energy_nj, m.refresh_energy_nj, m.total_energy_nj,
                   m.coverage, m.app_error, m.avg_delay, m.avg_th_rbl, m.bwutil,
                   m.l2_hit_rate, m.avg_read_latency_mem_cycles})
    put_d(v);
  for (const Histogram* h : {&m.read_latency_hist, &m.rbl_hist, &m.rbl_readonly_hist})
    for (std::uint64_t k = 0; k <= h->max_key() + 1; ++k)
      if (const std::uint64_t n = h->at(k); n != 0) {
        put_u(k);
        put_u(n);
      }
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

void write_metrics(telemetry::JsonWriter& w, const sim::RunMetrics& m) {
  w.key("metrics");
  w.begin_object();
  w.field("finished", m.finished);
  w.field("core_cycles", static_cast<std::uint64_t>(m.core_cycles));
  w.field("mem_cycles", static_cast<std::uint64_t>(m.mem_cycles));
  w.field("instructions", m.instructions);
  w.field("ipc", m.ipc);
  w.field("row_energy_nj", m.row_energy_nj);
  w.field("app_error", m.app_error);
  w.field("coverage", m.coverage);
  w.field("activations", m.activations);
  w.field("dram_reads", m.dram_reads);
  w.field("dram_writes", m.dram_writes);
  w.field("drops", m.drops);
  w.field("reads_received", m.reads_received);
  w.field("avg_rbl", m.avg_rbl);
  w.field("bwutil", m.bwutil);
  w.field("avg_delay", m.avg_delay);
  w.field("avg_th_rbl", m.avg_th_rbl);
  w.field("l2_hit_rate", m.l2_hit_rate);
  w.end_object();
}

void write_sim_result(telemetry::JsonWriter& w, const SimResult& r) {
  w.begin_object();
  w.field("sim", r.sim);
  w.field("ok", r.ok);
  w.key("probe_s");
  w.begin_array();
  w.value(r.probe_before);
  w.value(r.probe_after);
  w.end_array();
  w.field("error", r.error);
  w.key("setup_s");
  w.begin_array();
  for (const double s : r.setup_s) w.value(s);
  w.end_array();
  w.field("run_s", r.run_s);
  w.field("collect_s", r.collect_s);
  w.field("digest", digest(r.metrics));
  write_metrics(w, r.metrics);
  w.end_object();
}

void write_header(telemetry::JsonWriter& w, const std::string& workload,
                  const char* mode, const std::vector<Sim>& sims) {
  w.field("workload", workload);
  w.field("mode", mode);
  const GpuConfig cfg;
  w.key("config");
  w.begin_object();
  for (const auto& [k, v] : cfg.describe()) w.field(k.c_str(), v);
  w.field("shard_threads", cfg.shard_threads);
  w.field("fast_path", cfg.fast_path);
  w.field("power_accounting", cfg.power_accounting);
  w.field("self_profile", cfg.self_profile);
  w.field("heartbeat_seconds", cfg.heartbeat_seconds);
  w.field("flight_depth", static_cast<std::uint64_t>(telemetry::FlightRecorder::kDefaultDepth));
  w.field("check", "off");
  w.field("row_policy", "open");
  w.field("max_core_cycles", static_cast<std::uint64_t>(kMaxCoreCycles));
  w.field("setup_repeats", kSetupRepeats);
  w.end_object();
  w.key("sims");
  w.begin_array();
  for (const Sim& s : sims) {
    w.begin_object();
    w.field("app", s.app);
    w.field("scheme", core::scheme_name(s.kind));
    w.field("compute_error", s.compute_error);
    w.end_object();
  }
  w.end_array();
}

void write_peak_rss(telemetry::JsonWriter& w) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  w.field("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
}

// ---------------------------------------------------------------------------
// Modes.

/// `passes` round-robin passes over the simulation list: within a pass the
/// simulations run in list order, so each simulation's samples are spread
/// over the whole run and a transient slowdown of the host reaches only some
/// of them.
int run_timed(const std::string& workload, const std::vector<Sim>& sims, int passes) {
  SpanLog log;
  telemetry::JsonWriter w(stdout);
  w.begin_object();
  write_header(w, workload, "timed", sims);
  w.key("passes");
  w.begin_array();
  for (int p = 0; p < passes; ++p) {
    std::vector<SimResult> pass;
    for (std::size_t i = 0; i < sims.size(); ++i)
      pass.push_back(run_sim(sims[i], Observers{}, log, static_cast<int>(i)));
    w.begin_array();
    for (const SimResult& r : pass) write_sim_result(w, r);
    w.end_array();
  }
  w.end_array();
  write_peak_rss(w);
  w.end_object();
  std::printf("\n");
  return 0;
}

void write_pass(telemetry::JsonWriter& w, const char* name,
                const std::vector<SimResult>& pass) {
  w.key(name);
  w.begin_array();
  for (const SimResult& r : pass) write_sim_result(w, r);
  w.end_array();
}

/// The per-layer run. Its passes, in order:
///   default, flight_off, default2
///               on the simulations of every other app (the overhead subset),
///               each simulation in the order default, flight_off, default
///               so that a drift of the host lands on both sides: the
///               untraced timed configuration, the same with the flight
///               recorder off (flight_depth = 0), and the first again;
///   traced      every simulation, with the benchmark's spans written out
///               and the simulator's sampled step profiler armed;
///   verify      every simulation, with the strict checker, the stream
///               recorder and the lifecycle collector on, for exact counts
///               and the checker's verdict. Each Baseline run's recorded
///               channel streams are replayed open-loop into fresh
///               controllers under FR-FCFS and under the lazy scheme.
/// The subset keeps the run of the largest workload well inside its time
/// limit.
int run_traced(const std::string& workload, const WorkloadDef& def,
               const std::vector<Sim>& sims) {
  SpanLog unreported;  // Spans of every pass but "traced".
  SpanLog log;
  Observers untraced;
  untraced.setups = 1;
  Observers flight_off = untraced;
  flight_off.flight_depth = 0;

  std::vector<SimResult> dflt, noflight, dflt2, traced, verified;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    if ((i / 2) % 2 != 0) continue;
    const int sim = static_cast<int>(i);
    dflt.push_back(run_sim(sims[i], untraced, unreported, sim));
    noflight.push_back(run_sim(sims[i], flight_off, unreported, sim));
    dflt2.push_back(run_sim(sims[i], untraced, unreported, sim));
  }

  Observers profiled = untraced;
  profiled.self_profile = true;
  telemetry::SelfProfiler::set_enabled(true);
  for (std::size_t i = 0; i < sims.size(); ++i)
    traced.push_back(run_sim(sims[i], profiled, log, static_cast<int>(i)));
  telemetry::SelfProfiler::set_enabled(false);

  Observers verify = untraced;
  verify.verify = true;
  std::vector<ReplayResult> replays;
  std::vector<int> replay_sims;
  std::vector<const char*> replay_schemes;
  for (std::size_t i = 0; i < sims.size(); ++i) {
    SimResult r = run_sim(sims[i], verify, unreported, static_cast<int>(i));
    if (sims[i].kind == core::SchemeKind::kBaseline) {
      for (const core::SchemeKind kind : {core::SchemeKind::kBaseline, def.lazy})
        for (const check::ChannelRecording& rec : r.layers.recordings) {
          replays.push_back(replay(rec, kind, log, static_cast<int>(i)));
          replay_sims.push_back(static_cast<int>(i));
          replay_schemes.push_back(core::scheme_name(kind));
        }
    }
    r.layers.recordings.clear();
    verified.push_back(std::move(r));
  }

  telemetry::JsonWriter w(stdout);
  w.begin_object();
  write_header(w, workload, "traced", sims);
  write_pass(w, "default", dflt);
  write_pass(w, "flight_off", noflight);
  write_pass(w, "default2", dflt2);
  write_pass(w, "traced", traced);
  write_pass(w, "verify", verified);

  w.key("self");
  w.begin_array();
  for (const SimResult& r : traced) {
    w.begin_object();
    w.field("step_samples", r.self.step_samples);
    w.field("sm_s", r.self.sm_sample_seconds);
    w.field("partition_s", r.self.partition_sample_seconds);
    w.field("reply_icnt_s", r.self.icnt_sample_seconds);
    w.end_object();
  }
  w.end_array();

  w.key("layers");
  w.begin_array();
  for (const SimResult& r : verified) {
    const LayerCounts& c = r.layers;
    w.begin_object();
    w.field("l1_accesses", c.l1_accesses);
    w.field("l1_hits", c.l1_hits);
    w.field("l1_miss_stalls", c.l1_miss_stalls);
    w.field("l2_accesses", c.l2_accesses);
    w.field("l2_hits", c.l2_hits);
    w.field("l2_fills", c.l2_fills);
    w.field("writes_received", c.writes_received);
    w.field("vp_predictions", c.vp_predictions);
    w.field("check_commands", c.check_commands);
    w.field("check_violations", c.check_violations);
    w.field("mshr_merges", c.lifecycle.mshr_merges);
    w.key("read_latency_hist");
    w.begin_array();  // [key, count] pairs, overflow keyed max_key + 1.
    const Histogram& h = r.metrics.read_latency_hist;
    for (std::uint64_t k = 0; k <= h.max_key() + 1; ++k)
      if (const std::uint64_t n = h.at(k); n != 0) {
        w.begin_array();
        w.value(k);
        w.value(n);
        w.end_array();
      }
    w.end_array();
    w.key("phases");
    w.begin_object();
    for (const auto& p : c.lifecycle.phases) {
      w.key(p.phase);
      w.begin_object();
      w.field("count", p.count);
      w.field("mean", p.mean);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("replays");
  w.begin_array();
  for (std::size_t i = 0; i < replays.size(); ++i) {
    w.begin_object();
    w.field("sim", replay_sims[i]);
    w.field("scheme", replay_schemes[i]);
    w.field("ok", replays[i].ok);
    w.field("error", replays[i].error);
    w.field("mem_cycles", static_cast<std::uint64_t>(replays[i].mem_cycles));
    w.field("seconds", replays[i].seconds);
    w.end_object();
  }
  w.end_array();

  w.key("spans");
  w.begin_array();
  for (const SpanRecord& s : log.spans()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("sim", s.sim);
    w.field("parent", s.parent);
    w.field("start_s", seconds_between(log.origin(), s.start));
    w.field("end_s", seconds_between(log.origin(), s.end));
    w.end_object();
  }
  w.end_array();
  write_peak_rss(w);
  w.end_object();
  std::printf("\n");
  return 0;
}

/// Names of LAZYDRAM_* variables in the environment. run.py clears them; the
/// binary refuses to run if any is left, since each one changes how a run is
/// configured.
std::vector<std::string> lazydram_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "LAZYDRAM_", 9) == 0)
      names.emplace_back(*e, std::strcspn(*e, "="));
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> env = lazydram_env();
  if (!env.empty()) {
    for (const std::string& n : env) std::fprintf(stderr, "lazybench: %s is set\n", n.c_str());
    std::fprintf(stderr, "lazybench: refusing to run with LAZYDRAM_* variables set\n");
    return 2;
  }
  const std::string mode = argc > 2 ? argv[2] : "";
  WorkloadDef def;
  if (argc < 3 || !find_workload(argv[1], &def) ||
      (mode != "timed" && mode != "traced") || (mode == "timed" && argc != 4)) {
    std::fprintf(stderr,
                 "usage: lazybench fig12|core_bound|write_heavy timed PASSES\n"
                 "       lazybench fig12|core_bound|write_heavy traced\n");
    return 2;
  }
  const std::vector<Sim> sims = sim_list(def);
  if (mode == "timed") {
    const int passes = std::atoi(argv[3]);
    if (passes < 1) {
      std::fprintf(stderr, "lazybench: PASSES must be a positive integer\n");
      return 2;
    }
    return run_timed(argv[1], sims, passes);
  }
  return run_traced(argv[1], def, sims);
}
