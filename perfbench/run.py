#!/usr/bin/env python3
"""lazydram benchmark: build the simulator from source, run one workload's
simulation list, check the outputs and print the metrics.

    python3 perfbench/run.py --workload fig12 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The lazybench binary is built with CMake into
.bench_build/perfbench/ there. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, from a separate traced run. README.md in this directory says
why each workload was chosen and what each metric should move.

App inputs are fixed by the app models in src/workloads/, so --seed selects
nothing: every seed runs the same inputs. The flag is accepted and echoed.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
LAZYBENCH = os.path.join(BUILD_DIR, "lazybench")
EXPECTED = os.path.join(HERE, "expected.json")

# Host seconds of one pass over each workload's list, single-threaded on a
# 4-vCPU Xeon VM. They fix how many passes a run of --seconds makes, so the
# amount of work per run does not depend on how fast the host happens to be.
PASS_SECONDS = {"fig12": 33.0, "core_bound": 6.0, "write_heavy": 15.0}

# Seconds the host-speed probe (probe.cpp) takes on the 4-vCPU VM above when
# nothing else loads its cores. Host times are reported as the times this
# host would have taken at that speed (see host_scale).
REFERENCE_PROBE_S = 0.023

# How much harder a slowdown of the host hits the simulator than the probe:
# run time ~ probe time ** HOST_SENSITIVITY. Fitted on that VM: between a
# busy and a quiet spell (probe medians 29.6 and 26.1 ms), write_heavy's
# scaled medians moved -5% with exponent 1, +4% with 1.5 and +10% with 2,
# and fig12's unscaled pass wall moved 1.35x for a 1.18x move of the probe.
HOST_SENSITIVITY = 1.5

# Seconds lazybench may take before it is stopped; the whole run must end
# within 180 s.
LAZYBENCH_TIMEOUT = 170.0

# The paper's Fig. 12 numbers (groups 1-3 under Dyn-DMS+AMS), printed beside
# the model's for information; nothing is gated on them.
PAPER_FIG12 = {"row_energy_ratio": 0.56, "ipc_within": 0.05, "app_error": 0.07,
               "coverage": 0.10}

SIM_METRICS = ("sim_core_cycles", "ipc_ratio", "row_energy_ratio", "app_accuracy",
               "exact_read_share")


def benchmark_metrics(kind):
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# ---------------------------------------------------------------------------
# Aggregation (unit-tested in test_run.py).

def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values):
    return sum(values) / len(values)


def ok_share(attempted, failed):
    return (attempted - failed) / attempted


def host_scale(result):
    """Factor that brings a simulation's host times to the reference host
    speed, from the mean of the two probe runs around the simulation."""
    return (REFERENCE_PROBE_S / mean(result["probe_s"])) ** HOST_SENSITIVITY


def min_of_passes(samples):
    """Sum over simulations of each one's fastest pass.

    `samples[p][s]` is simulation s's host seconds in pass p. A slowdown of
    the host that hits one pass of a simulation leaves its minimum alone.
    """
    return sum(min(column) for column in zip(*samples))


def median_setup(setups):
    """Sum over simulations of the median of all of that simulation's
    set-ups in the run. `setups[p][s]` is the list of set-up seconds of
    simulation s in pass p."""
    return sum(statistics.median([x for one in column for x in one])
               for column in zip(*setups))


def spread(values):
    """Slowest over fastest."""
    return max(values) / min(values)


def percentile(hist, p):
    """Nearest-rank percentile of [key, count] pairs, as Histogram::percentile."""
    total = sum(n for _, n in hist)
    if total == 0:
        return 0
    rank = min(max(math.ceil(p * total - 1e-9), 1), total)
    seen = 0
    for key, n in sorted(hist):
        seen += n
        if seen >= rank:
            return key
    return sorted(hist)[-1][0]


def merge_hists(hists):
    merged = {}
    for hist in hists:
        for key, n in hist:
            merged[key] = merged.get(key, 0) + n
    return sorted(merged.items())


def weighted_phase_mean(layers, phase):
    """Count-weighted mean of one lifecycle phase over simulations."""
    count = sum(l["phases"][phase]["count"] for l in layers)
    if count == 0:
        return 0.0
    return sum(l["phases"][phase]["mean"] * l["phases"][phase]["count"]
               for l in layers) / count


def sim_metrics(sims, results):
    """The simulated (exact) end-to-end metrics of one pass. Simulations come
    in (Baseline, lazy) pairs per app."""
    ipc, row, err, cov = [], [], [], []
    for i in range(0, len(sims), 2):
        base, lazy = results[i]["metrics"], results[i + 1]["metrics"]
        ipc.append(lazy["ipc"] / base["ipc"])
        row.append(lazy["row_energy_nj"] / base["row_energy_nj"])
        err.append(lazy["app_error"])
        cov.append(lazy["coverage"])
    return {
        "sim_core_cycles": sum(r["metrics"]["core_cycles"] for r in results),
        "ipc_ratio": geomean(ipc),
        "row_energy_ratio": geomean(row),
        # Complements, so that no metric reads 0 on the workloads without
        # AMS or the error pass: 1 - mean application error, 1 - mean
        # prediction coverage.
        "app_accuracy": 1.0 - mean(err),
        "exact_read_share": 1.0 - mean(cov),
    }


def pass_digest(results):
    """One digest over the per-simulation digests of a pass, in list order."""
    return hashlib.sha256(",".join(r["digest"] for r in results).encode()).hexdigest()[:16]


def check_digests(passes_by_label, expected_digests):
    """Marks failed every simulation whose digest differs from the one
    recorded for it in expected.json, or, with none recorded, from its own
    first pass: a change that only speeds the simulator up leaves every
    simulated statistic as it was."""
    reference = dict(enumerate(expected_digests))
    for label, passes in passes_by_label:
        for p, results in enumerate(passes):
            for r in results:
                want = reference.setdefault(r["sim"], r["digest"])
                if r["digest"] != want and r["ok"]:
                    r["ok"] = False
                    r["error"] = "simulated statistics digest %s, expected %s" % (
                        r["digest"], want)


def count_failures(passes, label):
    """(attempted, failed, messages) over lists of per-simulation results."""
    attempted = failed = 0
    messages = []
    for p, results in enumerate(passes):
        for r in results:
            attempted += 1
            if not r["ok"]:
                failed += 1
                messages.append("%s pass %d simulation %d: %s"
                                % (label, p, r["sim"], r["error"]))
    return attempted, failed, messages


def timed_metrics(doc):
    """End-to-end metrics of a timed run. Host times are scaled to the
    reference host speed per simulation, then each simulation's fastest pass
    is taken (its median set-up for setup_s)."""
    passes = doc["passes"]
    run = [[r["run_s"] * host_scale(r) for r in p] for p in passes]
    wall = [[(statistics.median(r["setup_s"]) + r["run_s"] + r["collect_s"]) * host_scale(r)
             for r in p] for p in passes]
    setups = [[[x * host_scale(r) for x in r["setup_s"]] for r in p] for p in passes]
    out = {
        "wall_s": min_of_passes(wall),
        "core_cycles_per_s": sum(r["metrics"]["core_cycles"] for r in passes[0])
        / min_of_passes(run),
        "setup_s": median_setup(setups),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    out.update(sim_metrics(doc["sims"], passes[0]))
    return out


def span_total(spans, name):
    return sum(s["end_s"] - s["start_s"] for s in spans if s["name"] == name)


def pass_wall(results):
    return sum(r["setup_s"][0] + r["run_s"] + r["collect_s"] for r in results)


def traced_metrics(doc):
    """Per-layer metrics of a traced run."""
    sims, layers, self_ = doc["sims"], doc["layers"], doc["self"]
    spans = doc["spans"]
    verified = [r["metrics"] for r in doc["verify"]]
    lazy = [m for s, m in zip(sims, verified) if s["scheme"] != "Baseline"]
    sampled = sum(x["sm_s"] + x["partition_s"] + x["reply_icnt_s"] for x in self_)
    base_replay = [r for r in doc["replays"] if r["scheme"] == "Baseline"]
    lazy_replay = [r for r in doc["replays"] if r["scheme"] != "Baseline"]
    base_replay_s = sum(r["seconds"] for r in base_replay)
    activations = sum(m["activations"] for m in verified)
    # The overhead subset: default, flight_off and default2 ran the same
    # simulations, each in the order default, flight_off, default2.
    subset = {r["sim"] for r in doc["default"]}
    untraced = [pass_wall(doc["default"]), pass_wall(doc["default2"])]
    flight_on = mean(untraced)
    traced_wall = pass_wall([r for r in doc["traced"] if r["sim"] in subset])
    return {
        "sim.setup_s": span_total(spans, "sim.setup"),
        "sim.run_s": span_total(spans, "gpu.run"),
        "sim.collect_s": span_total(spans, "sim.collect"),
        "sim.pass_spread": spread(untraced),
        "sim.tracing_overhead": traced_wall / flight_on,
        "workloads.build_s": span_total(spans, "workloads.make_workload"),
        "workloads.error_s": span_total(spans, "workloads.application_error"),
        "workloads.instructions": sum(m["instructions"] for m in verified),
        "gpu.sm_share": sum(x["sm_s"] for x in self_) / sampled,
        "gpu.partition_share": sum(x["partition_s"] for x in self_) / sampled,
        "gpu.ipc": sum(m["instructions"] for m in verified)
        / sum(m["core_cycles"] for m in verified),
        "gpu.l1_accesses": sum(l["l1_accesses"] for l in layers),
        "gpu.l1_hit_rate": sum(l["l1_hits"] for l in layers)
        / sum(l["l1_accesses"] for l in layers),
        "gpu.l1_miss_stall_cycles": sum(l["l1_miss_stalls"] for l in layers),
        "icnt.reply_share": sum(x["reply_icnt_s"] for x in self_) / sampled,
        "icnt.request_cycles_mean": weighted_phase_mean(layers, "icnt_request"),
        "icnt.reply_cycles_mean": weighted_phase_mean(layers, "reply_return"),
        "cache.l2_accesses": sum(l["l2_accesses"] for l in layers),
        "cache.l2_hit_rate": sum(l["l2_hits"] for l in layers)
        / sum(l["l2_accesses"] for l in layers),
        "cache.l2_fills": sum(l["l2_fills"] for l in layers),
        "cache.mshr_merges": sum(l["mshr_merges"] for l in layers),
        "mem.reads_received": sum(m["reads_received"] for m in verified),
        "mem.writes_received": sum(l["writes_received"] for l in layers),
        "mem.partition_wait_mean": weighted_phase_mean(layers, "partition_wait"),
        "mem.queue_wait_mean": weighted_phase_mean(layers, "queue_wait"),
        "mem.read_latency_p99": percentile(
            merge_hists(l["read_latency_hist"] for l in layers), 0.99),
        "mem.replay_ns_per_mem_cycle": 1e9 * base_replay_s
        / sum(r["mem_cycles"] for r in base_replay),
        "core.replay_lazy_ratio": sum(r["seconds"] for r in lazy_replay) / base_replay_s,
        "core.drops": sum(m["drops"] for m in verified),
        "core.vp_predictions": sum(l["vp_predictions"] for l in layers),
        "core.dms_gated_mean": weighted_phase_mean(layers, "dms_gated"),
        "core.avg_delay": mean([m["avg_delay"] for m in lazy]),
        "core.avg_th_rbl": mean([m["avg_th_rbl"] for m in lazy]),
        "dram.activations": activations,
        "dram.column_reads": sum(m["dram_reads"] for m in verified),
        "dram.column_writes": sum(m["dram_writes"] for m in verified),
        "dram.bwutil": mean([m["bwutil"] for m in verified]),
        "dram.avg_rbl": sum(m["dram_reads"] + m["dram_writes"] for m in verified)
        / activations,
        "dram.service_mean": weighted_phase_mean(layers, "service"),
        "telemetry.flight_overhead": flight_on / pass_wall(doc["flight_off"]),
        "check.commands": sum(l["check_commands"] for l in layers),
        "check.violations": sum(l["check_violations"] for l in layers),
    }


# ---------------------------------------------------------------------------
# Checks and reporting.

def expected_errors(workload, metrics, expected):
    """The simulated end-to-end metrics must equal the ones recorded in
    expected.json."""
    want = expected.get(workload)
    if want is None:
        return ["no expected results recorded for %s" % workload]
    return ["%s = %r, expected %r" % (name, metrics[name], want[name])
            for name in SIM_METRICS if metrics[name] != want[name]]


def paper_line(metrics):
    """The model against the paper's Fig. 12 numbers; information only."""
    row = metrics["row_energy_ratio"]
    ipc = metrics["ipc_ratio"]
    err = 1.0 - metrics["app_accuracy"]
    cov = 1.0 - metrics["exact_read_share"]
    return ("paper Fig. 12 vs model: row energy %.2f vs %.4f (%+.4f); IPC within %.0f%% vs "
            "%+.2f%%; app error %.0f%% vs %.2f%% (%+.2f pp); coverage %.0f%% vs %.2f%% "
            "(%+.2f pp)" % (
                PAPER_FIG12["row_energy_ratio"], row, row - PAPER_FIG12["row_energy_ratio"],
                100 * PAPER_FIG12["ipc_within"], 100 * (ipc - 1.0),
                100 * PAPER_FIG12["app_error"], 100 * err,
                100 * (err - PAPER_FIG12["app_error"]),
                100 * PAPER_FIG12["coverage"], 100 * cov,
                100 * (cov - PAPER_FIG12["coverage"])))


def clean_environment():
    """The environment for lazybench: every LAZYDRAM_* variable removed,
    since each one changes how a simulation is configured."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("LAZYDRAM_"))
    for k in cleared:
        del env[k]
    return env, cleared


def build(env):
    """Configures and builds lazybench; returns False if either step fails.
    Build output goes to stderr so stdout stays the benchmark's."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as e:
            print("build: %s: %s" % (cmd[0], e), file=sys.stderr)
            return False
        if done.returncode != 0:
            print("build: %s failed with code %d" % (" ".join(cmd), done.returncode),
                  file=sys.stderr)
            return False
    return True


def run_lazybench(args, env):
    """Runs lazybench; returns its parsed document, or None and a reason."""
    try:
        done = subprocess.run([LAZYBENCH] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, env=env, timeout=LAZYBENCH_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, "lazybench did not finish within %.0f s" % LAZYBENCH_TIMEOUT
    if done.returncode != 0:
        return None, "lazybench exited with code %d" % done.returncode
    try:
        return json.loads(done.stdout), None
    except ValueError as e:
        return None, "lazybench output is not JSON: %s" % e


def save(workload, trace, doc, metrics):
    """Keeps the raw run, its effective configuration and its metrics beside
    the build, for inspection after the run."""
    path = os.path.join(BUILD_DIR, "%s-trace%d.json" % (workload, trace))
    with open(path, "w") as f:
        json.dump({"run": doc, "metrics": metrics}, f)
    return path


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env, cleared = clean_environment()
    print("env: %s" % ("cleared " + ", ".join(cleared) if cleared
                       else "no LAZYDRAM_* variable set"))
    print("seed %d: app inputs are fixed by the app models; the seed selects nothing"
          % args.seed)
    if not build(env):
        return 1
    with open(EXPECTED) as f:
        expected = json.load(f)

    if args.trace == 0:
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        doc, why = run_lazybench([args.workload, "timed", str(passes)], env)
    else:
        doc, why = run_lazybench([args.workload, "traced"], env)
    if doc is None:
        # A crash or hang of the simulator is a failed run, not a missing one.
        print("FAIL: " + why)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    if args.trace == 0:
        by_label = [("timed", doc["passes"])]
    else:
        by_label = [(label, [doc[label]])
                    for label in ("default", "flight_off", "default2", "traced", "verify")]
    check_digests(by_label, expected.get(args.workload, {}).get("sim_digests", []))
    attempted = failed = 0
    errors = []
    for label, passes in by_label:
        a, f, msgs = count_failures(passes, label)
        attempted, failed = attempted + a, failed + f
        errors += msgs
    if args.trace == 1:
        for r in doc["replays"]:
            attempted += 1
            if not r["ok"]:
                failed += 1
                errors.append("replay of simulation %d: %s" % (r["sim"], r["error"]))

    first = doc["passes"][0] if args.trace == 0 else doc["verify"]
    digest = pass_digest(first)
    simulated, metrics = None, {}
    try:
        simulated = sim_metrics(doc["sims"], first)
        metrics = timed_metrics(doc) if args.trace == 0 else traced_metrics(doc)
    except (ArithmeticError, ValueError) as e:
        # Only a failed simulation leaves zeros behind to divide by or log.
        errors.append("metrics cannot be computed: %s" % e)
    if simulated is not None:
        errors += expected_errors(args.workload, simulated, expected)
    if args.trace == 0:
        metrics["ok_share"] = ok_share(attempted, failed)

    cfg = doc["config"]
    print("config: %s" % ", ".join("%s=%s" % kv for kv in sorted(cfg.items())))
    print("workload %s: %d simulations; %s; digest %s" % (
        args.workload, len(doc["sims"]),
        ", ".join("%s %d" % (label, len(passes)) for label, passes in by_label), digest))
    if args.workload == "fig12" and simulated is not None:
        print(paper_line(simulated))
    for e in errors:
        print("FAIL: " + e)
    units = benchmark_metrics("end_to_end" if args.trace == 0 else "per_layer")
    for name, value in metrics.items():
        print("  %-28s %.6g %s" % (name, value, units[name]))
    print("raw run: %s" % save(args.workload, args.trace, doc, metrics))

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
