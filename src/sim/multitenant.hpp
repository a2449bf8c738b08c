// Multi-tenant experiment driver: one shared run of a TenantSet plus each
// tenant's alone-run baseline, combined into per-tenant slowdowns and a Jain
// fairness index.
//
// Slowdown_t = (core cycle tenant t's last warp retired in the shared run) /
// (core cycle the same client's last warp retired running alone on the same
// machine). Both ends use warp retirement — not whole-run core_cycles — so
// the memory drain tail after an unrelated tenant's last write never skews a
// tenant's slowdown.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "gpu/tenant.hpp"
#include "sim/simulator.hpp"

namespace lazydram::sim {

/// Jain fairness index (Σx)² / (N·Σx²) over per-tenant slowdowns: 1.0 means
/// every tenant suffers equally, 1/N means one tenant absorbs all the
/// interference. Empty or all-zero input returns 0.
double jain_index(const std::vector<double>& xs);

struct MultitenantResult {
  /// The shared run; metrics.tenants[].slowdown and metrics.jain_fairness
  /// are filled here (collect_metrics leaves them 0 — they need baselines).
  RunOutput shared;
  /// Per-tenant alone-run baselines, indexed by tenant id. Empty for a
  /// single-tenant set (slowdown is trivially 1).
  std::vector<RunMetrics> alone;
};

/// Runs the shared simulation (after installing the set's QoS budgets via
/// TenantSet::apply_qos) and then every tenant's alone-run baseline, up to
/// `jobs` baselines in parallel. Baseline results are stored by tenant index
/// and each lane suppresses env-named outputs, so the result is bit-identical
/// for any `jobs` value. Throws std::invalid_argument, before any run, when
/// the mix has more warps than the GPU's num_sms x max_warps_per_sm slots.
MultitenantResult run_multitenant(const gpu::TenantSet& tenants,
                                  const RunConfig& config, unsigned jobs = 1);

/// Writes the multi-tenant JSON report: the shared run's metrics section
/// (with per-tenant slices, slowdowns and the Jain index) plus an "alone"
/// baseline array. Contains no wall-clock fields, so serial and parallel
/// runs of the same config produce byte-identical output.
void write_multitenant_report(std::FILE* out, const MultitenantResult& r);
bool write_multitenant_report(const std::string& path, const MultitenantResult& r);

}  // namespace lazydram::sim
