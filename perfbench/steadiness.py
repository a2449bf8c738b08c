#!/usr/bin/env python3
"""Steadiness record: runs the benchmark several times per workload, each
with another seed, and summarises every end-to-end metric.

    python3 perfbench/steadiness.py --runs 10 [--workload fig12 ...]

Run from the root of a checkout. Writes perfbench/steadiness.json: for each
workload the ten values of every end-to-end metric, their median, quartiles
(statistics.quantiles(values, n=4)), min and max, the spread (third minus
first quartile over the median) against the metric's bound, and the host
drift seen: slowest over fastest unscaled pass wall time, across runs and
within a run, and the host-speed probe's mean time in each run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def one_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.BUILD_DIR, "%s-trace0.json" % workload)) as f:
        passes = json.load(f)["run"]["passes"]
    walls = [sum(statistics.median(r["setup_s"]) + r["run_s"] + r["collect_s"] for r in p)
             for p in passes]
    probe = run.mean([x for p in passes for r in p for x in r["probe_s"]])
    return result, walls, probe


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med, "bound": bound}


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    path = os.path.join(HERE, "steadiness.json")
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    for workload in workloads:
        results, pass_walls, probes, correct = [], [], [], True
        started = time.time()
        for i in range(args.runs):
            seed = args.first_seed + i
            result, walls, probe = one_run(workload, seed, bench["run_seconds"])
            correct = correct and result["correct"]
            results.append(result["metrics"])
            pass_walls.append(walls)
            probes.append(probe)
            print("%s seed %d: raw pass walls %s, probe %.4f s: %s" % (
                workload, seed, " ".join("%.3f" % w for w in walls), probe, " ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        metrics = {name: summarise([r[name]["value"] for r in results], bounds[name])
                   for name in bounds}
        multi = [run.spread(w) for w in pass_walls if len(w) > 1]
        record[workload] = {
            "runs": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": bench["run_seconds"],
            "passes_per_run": len(pass_walls[0]),
            "elapsed_s": time.time() - started,
            "all_correct": correct,
            "host_drift": {
                "raw_pass_wall_max_over_min_across_runs": run.spread(
                    [w for walls in pass_walls for w in walls]),
                "raw_pass_wall_max_over_min_within_run": max(multi) if multi else None,
                "probe_s_per_run": probes,
                "probe_max_over_min_across_runs": run.spread(probes),
            },
            "metrics": metrics,
        }
        for name, m in metrics.items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  <-- above a third of the bound"
            print("%-12s %-18s median %-12.6g spread %.4f bound %.2f%s"
                  % (workload, name, m["median"], m["spread"], m["bound"], flag))
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
