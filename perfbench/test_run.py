"""Tests of the benchmark's aggregation on fixture numbers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def result(sim=0, ok=True, error="", digest="d0", run_s=1.0, setups=(0.1,),
           collect_s=0.01, probe=run.REFERENCE_PROBE_S, **metrics):
    m = {"core_cycles": 100, "ipc": 1.0, "row_energy_nj": 10.0, "app_error": 0.0,
         "coverage": 0.0}
    m.update(metrics)
    return {"sim": sim, "ok": ok, "error": error, "digest": digest, "run_s": run_s,
            "setup_s": list(setups), "collect_s": collect_s, "probe_s": [probe, probe],
            "metrics": m}


SIMS = [{"app": "A", "scheme": "Baseline"}, {"app": "A", "scheme": "Dyn-DMS+AMS"},
        {"app": "B", "scheme": "Baseline"}, {"app": "B", "scheme": "Dyn-DMS+AMS"}]


class Aggregation(unittest.TestCase):
    def test_geomean_and_mean(self):
        self.assertAlmostEqual(run.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(run.geomean([0.5, 2.0, 1.0]), 1.0)
        self.assertAlmostEqual(run.mean([0.05, 0.10, 0.0]), 0.05)

    def test_sim_metrics_pairs_baseline_with_lazy(self):
        results = [
            result(core_cycles=1000, ipc=1.0, row_energy_nj=100.0),
            result(core_cycles=1100, ipc=0.9, row_energy_nj=50.0, app_error=0.08,
                   coverage=0.10),
            result(core_cycles=2000, ipc=2.0, row_energy_nj=10.0),
            result(core_cycles=1900, ipc=2.2, row_energy_nj=8.0, app_error=0.06,
                   coverage=0.08),
        ]
        m = run.sim_metrics(SIMS, results)
        self.assertEqual(m["sim_core_cycles"], 6000)
        self.assertAlmostEqual(m["ipc_ratio"], math.sqrt(0.9 * 1.1))
        self.assertAlmostEqual(m["row_energy_ratio"], math.sqrt(0.5 * 0.8))
        self.assertAlmostEqual(m["app_accuracy"], 1.0 - 0.07)
        self.assertAlmostEqual(m["exact_read_share"], 1.0 - 0.09)

    def test_percentile_is_nearest_rank(self):
        hist = [[10, 90], [20, 9], [300, 1]]
        self.assertEqual(run.percentile(hist, 0.5), 10)
        self.assertEqual(run.percentile(hist, 0.95), 20)
        self.assertEqual(run.percentile(hist, 0.99), 20)
        self.assertEqual(run.percentile(hist, 1.0), 300)
        self.assertEqual(run.percentile(run.merge_hists([[[1, 1]], [[1, 2], [5, 1]]]), 0.75),
                         1)

    def test_weighted_phase_mean(self):
        layers = [{"phases": {"queue_wait": {"count": 1, "mean": 10.0}}},
                  {"phases": {"queue_wait": {"count": 3, "mean": 2.0}}}]
        self.assertAlmostEqual(run.weighted_phase_mean(layers, "queue_wait"), 4.0)


class OkShare(unittest.TestCase):
    def test_counts_every_simulation_of_every_pass(self):
        passes = [[result(0), result(1, ok=False, error="threw: boom")],
                  [result(0), result(1)]]
        attempted, failed, messages = run.count_failures(passes, "timed")
        self.assertEqual((attempted, failed), (4, 1))
        self.assertEqual(messages, ["timed pass 0 simulation 1: threw: boom"])
        self.assertAlmostEqual(run.ok_share(attempted, failed), 0.75)

    def test_all_ok(self):
        attempted, failed, _ = run.count_failures([[result()] * 3], "timed")
        self.assertEqual(run.ok_share(attempted, failed), 1.0)


class HostEstimator(unittest.TestCase):
    def test_one_slow_pass_does_not_move_the_result(self):
        steady = [[1.0, 2.0, 3.0], [1.01, 2.02, 3.01], [1.02, 2.01, 3.02]]
        slow = [row[:] for row in steady]
        slow[1] = [x * 1.6 for x in slow[1]]  # The host stalls for a whole pass.
        self.assertAlmostEqual(run.min_of_passes(steady), 6.0)
        self.assertEqual(run.min_of_passes(slow), run.min_of_passes(steady))

    def test_a_slow_simulation_in_each_pass_does_not_move_the_result(self):
        samples = [[1.0, 9.0, 3.0], [5.0, 2.0, 3.0], [1.0, 2.0, 7.0]]
        self.assertAlmostEqual(run.min_of_passes(samples), 6.0)

    def test_setup_is_the_median_of_every_setup(self):
        setups = [[[0.1, 0.9, 0.1], [0.2, 0.2, 0.2]],
                  [[0.1, 0.1, 0.5], [0.2, 5.0, 0.2]]]
        self.assertAlmostEqual(run.median_setup(setups), 0.1 + 0.2)

    def test_timed_metrics(self):
        doc = {
            "sims": SIMS[:2],
            "peak_rss_kb": 2048,
            "passes": [
                [result(run_s=2.0, setups=(0.1, 0.1, 0.1), collect_s=0.5,
                        core_cycles=1000),
                 result(run_s=3.0, setups=(0.2, 0.2, 0.2), collect_s=0.5,
                        core_cycles=1000, ipc=1.0)],
                [result(run_s=2.5, setups=(0.1, 0.3, 0.1), collect_s=0.5,
                        core_cycles=1000),
                 result(run_s=2.8, setups=(0.2, 0.2, 0.9), collect_s=0.6,
                        core_cycles=1000, ipc=1.0)],
            ],
        }
        m = run.timed_metrics(doc)
        self.assertAlmostEqual(m["wall_s"], (0.1 + 2.0 + 0.5) + (0.2 + 2.8 + 0.6))
        self.assertAlmostEqual(m["core_cycles_per_s"], 2000 / (2.0 + 2.8))
        self.assertAlmostEqual(m["setup_s"], 0.1 + 0.2)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_a_host_wide_slowdown_is_scaled_out(self):
        def doc(probe_slow):
            slow = probe_slow ** run.HOST_SENSITIVITY
            return {"sims": SIMS[:2], "peak_rss_kb": 1024, "passes": [[
                result(0, run_s=2.0 * slow, setups=(0.1 * slow,), collect_s=0.5 * slow,
                       probe=run.REFERENCE_PROBE_S * probe_slow),
                result(1, run_s=3.0, setups=(0.2,), collect_s=0.5)]]}
        quiet, loaded = run.timed_metrics(doc(1.0)), run.timed_metrics(doc(1.3))
        for name in ("wall_s", "core_cycles_per_s", "setup_s"):
            self.assertAlmostEqual(loaded[name], quiet[name])
        self.assertAlmostEqual(quiet["wall_s"], 2.6 + 3.7)

    def test_host_scale_uses_both_probes(self):
        r = result(probe=0.0)
        r["probe_s"] = [run.REFERENCE_PROBE_S, 3 * run.REFERENCE_PROBE_S]
        self.assertAlmostEqual(run.host_scale(r), 0.5 ** run.HOST_SENSITIVITY)

    def test_spread(self):
        self.assertAlmostEqual(run.spread([2.0, 2.5, 2.2]), 1.25)


def traced_doc():
    """A traced run of one app: Baseline (simulation 0) and lazy (1)."""
    phases = {name: {"count": 2, "mean": 3.0} for name in
              ("icnt_request", "reply_return", "partition_wait", "queue_wait",
               "dms_gated", "service")}
    layer = {"l1_accesses": 10, "l1_hits": 5, "l1_miss_stalls": 7, "l2_accesses": 8,
             "l2_hits": 6, "l2_fills": 2, "writes_received": 1, "vp_predictions": 1,
             "check_commands": 9, "check_violations": 0, "mshr_merges": 1,
             "read_latency_hist": [[16, 99], [400, 1]], "phases": phases}
    metrics = dict(core_cycles=100, instructions=150, activations=4, dram_reads=6,
                   dram_writes=2, drops=1, reads_received=7, bwutil=0.5, avg_delay=128.0,
                   avg_th_rbl=4.0)
    both = [result(0, **metrics), result(1, **metrics)]
    span = lambda name, length: {"name": name, "start_s": 1.0, "end_s": 1.0 + length}
    return {
        "sims": SIMS[:2], "default": both, "flight_off": both, "default2": both,
        "traced": both, "verify": both, "layers": [layer, layer],
        "self": [{"sm_s": 0.5, "partition_s": 0.3, "reply_icnt_s": 0.2}] * 2,
        "replays": [{"scheme": "Baseline", "seconds": 1.0, "mem_cycles": 1000},
                    {"scheme": "Dyn-DMS+AMS", "seconds": 1.5, "mem_cycles": 1000}],
        "spans": [span("sim.setup", 0.1), span("gpu.run", 2.0), span("sim.collect", 0.2),
                  span("workloads.make_workload", 0.01),
                  span("workloads.application_error", 0.05)],
    }


class MetricNames(unittest.TestCase):
    def test_timed_metrics_are_the_end_to_end_metrics(self):
        doc = {"sims": SIMS[:2], "peak_rss_kb": 1024, "passes": [[result(0), result(1)]]}
        names = set(run.timed_metrics(doc)) | {"ok_share"}
        self.assertEqual(names, set(run.benchmark_metrics("end_to_end")))

    def test_traced_metrics_are_the_per_layer_metrics(self):
        m = run.traced_metrics(traced_doc())
        self.assertEqual(set(m), set(run.benchmark_metrics("per_layer")))
        self.assertAlmostEqual(m["gpu.sm_share"], 0.5)
        self.assertAlmostEqual(m["sim.run_s"], 2.0)
        self.assertAlmostEqual(m["core.replay_lazy_ratio"], 1.5)
        self.assertAlmostEqual(m["mem.replay_ns_per_mem_cycle"], 1e6)
        self.assertEqual(m["mem.read_latency_p99"], 16)
        self.assertAlmostEqual(m["dram.avg_rbl"], 2.0)
        self.assertAlmostEqual(m["telemetry.flight_overhead"], 1.0)


class Checks(unittest.TestCase):
    def test_a_changed_digest_fails_its_simulation(self):
        a = [result(0, digest="x"), result(1, digest="y")]
        b = [result(0, digest="x"), result(1, digest="z")]
        run.check_digests([("timed", [a, a])], ["x", "y"])
        self.assertEqual(run.count_failures([a], "timed")[1], 0)
        run.check_digests([("timed", [b])], ["x", "y"])
        attempted, failed, messages = run.count_failures([b], "timed")
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("simulation 1: simulated statistics digest z, expected y", messages[0])

    def test_without_recorded_digests_passes_must_agree(self):
        a = [result(0, digest="x"), result(1, digest="y")]
        b = [result(0, digest="x"), result(1, digest="z")]
        run.check_digests([("timed", [a]), ("verify", [b])], [])
        self.assertEqual(run.count_failures([b], "verify")[1], 1)
        # A pass over a subset of the list is matched by simulation index.
        c = [result(1, digest="y")]
        run.check_digests([("timed", [a]), ("sub", [c])], [])
        self.assertTrue(c[0]["ok"])

    def test_expected_results(self):
        metrics = {name: 1.0 for name in run.SIM_METRICS}
        expected = {"w": dict(metrics, sim_digests=[])}
        self.assertEqual(run.expected_errors("w", metrics, expected), [])
        changed = dict(metrics, ipc_ratio=1.0000001)
        self.assertEqual(len(run.expected_errors("w", changed, expected)), 1)
        self.assertEqual(len(run.expected_errors("other", metrics, expected)), 1)

    def test_environment_is_cleared(self):
        os.environ["LAZYDRAM_SHARD"] = "4"
        try:
            env, cleared = run.clean_environment()
        finally:
            del os.environ["LAZYDRAM_SHARD"]
        self.assertIn("LAZYDRAM_SHARD", cleared)
        self.assertNotIn("LAZYDRAM_SHARD", env)


if __name__ == "__main__":
    unittest.main()
