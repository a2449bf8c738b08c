#include "sim/multitenant.hpp"

#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "sim/run_report.hpp"
#include "telemetry/json.hpp"

namespace lazydram::sim {

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0, sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq == 0.0) return 0.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sq);
}

MultitenantResult run_multitenant(const gpu::TenantSet& tenants,
                                  const RunConfig& config, unsigned jobs) {
  RunConfig shared_cfg = config;
  tenants.apply_qos(shared_cfg.gpu);

  MultitenantResult r;
  r.shared = simulate_full(tenants.workload(), shared_cfg);

  const unsigned n = tenants.size();
  if (n < 2) return r;  // Alone == shared; nothing to baseline against.

  // Alone-run baselines: the same machine config with the tenant as the only
  // client (window bias 0, global QoS budgets — a client alone is not capped
  // by its shared-run budget). Lanes take no observability outputs at all:
  // per-run file outputs stay with the shared run, and env-named files must
  // not be raced on by parallel lanes.
  RunConfig alone_cfg = config;
  alone_cfg.trace_path.clear();
  alone_cfg.json_report_path.clear();
  alone_cfg.ignore_env_outputs = true;
  alone_cfg.lifecycle = false;
  alone_cfg.window_sampling = false;
  alone_cfg.compute_error = false;  // Baselines only feed finish cycles.

  r.alone.resize(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<unsigned> next{0};
  const auto worker = [&]() {
    for (unsigned t = next.fetch_add(1); t < n; t = next.fetch_add(1)) {
      try {
        const auto alone = tenants.alone_workload(static_cast<TenantId>(t));
        r.alone[t] = simulate(*alone, alone_cfg);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    }
  };

  const unsigned lanes = jobs == 0 ? 1 : (jobs < n ? jobs : n);
  if (lanes <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }
  // Rethrow the lowest-tenant failure so the surfaced error is deterministic.
  for (unsigned t = 0; t < n; ++t)
    if (errors[t]) std::rethrow_exception(errors[t]);

  LD_ASSERT(r.shared.metrics.tenants.size() == n);
  std::vector<double> slowdowns;
  slowdowns.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    TenantMetrics& tm = r.shared.metrics.tenants[t];
    const Cycle alone_finish = r.alone[t].warps_finish_core_cycle;
    if (alone_finish > 0)
      tm.slowdown = static_cast<double>(tm.finish_core_cycle) /
                    static_cast<double>(alone_finish);
    slowdowns.push_back(tm.slowdown);
  }
  r.shared.metrics.jain_fairness = jain_index(slowdowns);
  return r;
}

void write_multitenant_report(std::FILE* out, const MultitenantResult& r) {
  telemetry::JsonWriter w(out);
  w.begin_object();
  write_metrics_section(w, r.shared.metrics);
  w.key("alone");
  w.begin_array();
  for (const RunMetrics& a : r.alone) {
    w.begin_object();
    w.field("workload", a.workload);
    w.field("core_cycles", a.core_cycles);
    w.field("warps_finish_core_cycle", a.warps_finish_core_cycle);
    w.field("instructions", a.instructions);
    w.field("ipc", a.ipc);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::fputc('\n', out);
}

bool write_multitenant_report(const std::string& path, const MultitenantResult& r) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    log_warn("cannot open multitenant report file '%s'; report skipped", path.c_str());
    return false;
  }
  write_multitenant_report(out, r);
  std::fclose(out);
  return true;
}

}  // namespace lazydram::sim
