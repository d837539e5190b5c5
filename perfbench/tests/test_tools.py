"""Tests of the benchmark's Python pieces: order statistics, the verdict
rules, environment hygiene, the manifest, the reference check and the
metric set. Run with:  python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def raw_result(**overrides):
    """A synthetic xrbench_perf output with every sample list present."""
    samples = {
        "setup_s": [0.5, 0.4, 0.6, 0.45, 0.55],
        "pass_s_w1": [0.2, 0.25, 0.21],
        "pass_s_w2": [0.11, 0.12, 0.1],
        "cpu_per_wall_w1": [0.99, 1.0, 0.98],
        "cpu_per_wall_w2": [1.9, 1.95, 1.0],
        "minor_faults_per_op_w1": [0.0, 0.1, 0.0],
        "minor_faults_per_op_w2": [0.0, 0.0, 0.2],
        "trace.pass_ms": [210.0, 220.0],
        "self_ms.runtime": [150.0, 160.0],
        "self_ms.core": [20.0, 20.0],
        "self_ms.costmodel": [10.0, 12.0],
        "self_ms.sweep": [30.0, 28.0],
        "runtime.trial_us": [float(x) for x in range(1, 101)],
        "trace.replay_matches": [1.0, 0.0, 1.0, 1.0],
        "util.threads_placed": [3, 3, 3, 3, 3],
    }
    raw = {"workload": "suite_trials", "seed": 42, "ops_per_pass": 100,
           "designs": 4, "attempted": 700, "failed": 0, "peak_rss_mb": 40.5,
           "hardware_concurrency": 4, "compiler": "12.2.0",
           "build_type": "Release", "digest": "00",
           "digest_groups": [["aa", 60], ["bb", 40]], "samples": samples}
    raw.update(overrides)
    return raw


class OrderStatistics(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q2, q3))
        self.assertEqual(stats.median(values), 4.0)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_single_value_has_no_spread(self):
        self.assertEqual(stats.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(stats.spread([3.0]), 0.0)

    def test_nearest_rank_percentile(self):
        values = [float(x) for x in range(1, 101)]
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 99), 99.0)
        self.assertEqual(stats.percentile(values, 100), 100.0)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_pairs_won_ignores_ties(self):
        self.assertEqual(stats.pairs_won([1, 2, 3], [0, 2, 4], "lower"), 1)
        self.assertEqual(stats.pairs_won([1, 2, 3], [0, 2, 4], "higher"), 1)


class VerdictRules(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_unchanged_within_bound(self):
        change = [v * 1.02 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, "lower", 0.1), "unchanged")

    def test_improved_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_iqr(self):
        change = [v * 0.9 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, "lower", 0.1), "improved")
        self.assertEqual(stats.verdict(self.BASE, change, "higher", 0.1), "unchanged")
        # Eight of ten pairs won is not enough.
        mixed = [v * 0.9 for v in self.BASE[:8]] + [v * 1.01 for v in self.BASE[8:]]
        self.assertNotEqual(stats.verdict(self.BASE, mixed, "lower", 0.1), "improved")

    def test_regressed_beyond_bound(self):
        change = [v * 1.15 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, "lower", 0.1), "regressed")
        self.assertEqual(stats.verdict(self.BASE, change, "higher", 0.1), "improved")
        slower = [v * 0.85 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, slower, "higher", 0.1), "regressed")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 1.12 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better_is_not_unresolved(self):
        noisy = [100.0, 140.0, 100.0, 140.0, 120.0]
        change = [90.0, 95.0, 80.0, 99.0, 60.0]
        self.assertIn(stats.verdict(noisy, change, "lower", 0.1), ("improved", "unchanged"))


class Environment(unittest.TestCase):
    def test_xrbench_variables_are_removed_and_recorded(self):
        env, removed = run.clean_env({"PATH": "/bin", "XRBENCH_PIN": "1",
                                      "XRBENCH_SIMD": "0", "HOME": "/h"})
        self.assertEqual(env, {"PATH": "/bin", "HOME": "/h"})
        self.assertEqual(removed, {"XRBENCH_PIN": "1", "XRBENCH_SIMD": "0"})

    def test_manifest_records_the_run(self):
        class Args:
            workload, seed, seconds, trace = "suite_trials", 42, 10, 0
        m = run.manifest(Args, raw_result(), {"XRBENCH_THREADS": "8"}, 123)
        self.assertEqual(m["neutralized_env"], {"XRBENCH_THREADS": "8"})
        self.assertEqual(m["workers"], [1, 2])
        self.assertEqual(m["seed"], 42)
        self.assertEqual(m["build_type"], "Release")
        self.assertEqual(m["cpu_per_wall_w2"], [1.9, 1.95, 1.0])
        for key in ("git_sha", "compiler", "nproc", "started_unix_ns"):
            self.assertIn(key, m)


class ReferenceCheck(unittest.TestCase):
    REF = {"seed": 42, "digests": {"suite_trials": [["aa", 60], ["bb", 40]]}}

    def test_matching_reference_fails_nothing(self):
        self.assertEqual(run.reference_failures(raw_result(), self.REF), 0)

    def test_differing_group_fails_its_ops_in_every_pass(self):
        raw = raw_result(digest_groups=[["aa", 60], ["cc", 40]])
        self.assertEqual(run.reference_failures(raw, self.REF), 40 * 7)

    def test_other_seeds_are_not_checked_against_the_reference(self):
        raw = raw_result(seed=7, digest_groups=[["xx", 60], ["yy", 40]])
        self.assertEqual(run.reference_failures(raw, self.REF), 0)


class MetricSet(unittest.TestCase):
    def test_end_to_end_metrics_match_benchmark_json(self):
        metrics = run.end_to_end_metrics(raw_result())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
            [(name, unit) for name, (_, unit) in metrics.items()])
        self.assertAlmostEqual(metrics["setup_s"][0], 0.5)
        self.assertAlmostEqual(metrics["ops_per_s_w1"][0], 100 / 0.21)

    def test_per_layer_metrics_match_benchmark_json(self):
        metrics = run.per_layer_metrics(raw_result())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
            [(name, unit) for name, (_, unit) in metrics.items()])
        self.assertEqual(metrics["runtime.trial_us_p99"][0], 99.0)
        self.assertAlmostEqual(metrics["self_share.runtime"][0], 155.0 / 215.0)
        self.assertAlmostEqual(metrics["core.parallel_efficiency_w2"][0],
                               0.21 / (2 * 0.11))
        self.assertEqual(metrics["trace.replay_match_ratio"][0], 0.75)
        self.assertAlmostEqual(metrics["util.minor_faults_per_op"][0], 0.3 / 6)
        self.assertEqual(run.dominant_layer(metrics), "runtime")


class CompareTool(unittest.TestCase):
    def write_runs(self, directory, values, start):
        for i, v in enumerate(values):
            record = {"manifest": {"workload": "suite_trials", "trace": 0,
                                   "started_unix_ns": start + i},
                      "result": {"metrics": {
                          "ops_per_s_w1": {"value": v, "unit": "1/s"}}}}
            (Path(directory) / f"r{i}.json").write_text(json.dumps(record))

    def test_verdict_per_workload_and_metric(self):
        specs = compare.metric_specs(BENCHMARK)
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as change:
            self.write_runs(base, VerdictRules.BASE, 0)
            self.write_runs(change, [v * 0.7 for v in VerdictRules.BASE], 100)
            rows = compare.compare(compare.load_runs([base]),
                                   compare.load_runs([change]), specs)
        self.assertEqual(len(rows), 1)
        workload, name, unit, _, _, won, pairs, verdict = rows[0]
        self.assertEqual((workload, name, unit), ("suite_trials", "ops_per_s_w1", "1/s"))
        self.assertEqual((won, pairs), (0, 10))
        self.assertEqual(verdict, "regressed")


if __name__ == "__main__":
    unittest.main()
