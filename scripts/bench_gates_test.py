#!/usr/bin/env python3
"""Unit tests for the bench gate table: every row must fail on a synthesized
result just past its threshold and pass on one just inside it.

Run: python3 scripts/bench_gates_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gates as bg  # noqa: E402

# Series names as the gated benches print them.
NAMES = [
    "fig07/cycle_canceling/50/0/iterations:3/manual_time",
    "fig07/cost_scaling_a2/150/2/iterations:3/manual_time",
    "fig11/quincy_policy/1/0/iterations:6/manual_time",
    "fig11/load_spreading_policy/0/0/iterations:6/manual_time",
    "fig11/view_prep/850/iterations:8/manual_time",
    "fig11/graph_update/850/quincy/1/iterations:10/manual_time",
    "fig11/graph_update/850/load_spreading/0/iterations:10/manual_time",
    "fig11/graph_update_burst/850/quincy/iterations:8/manual_time",
    "fig11/removal_dirty/850/quincy/iterations:6/manual_time",
    "fig14/templated_recurring/iterations:1",
    "fig16/firmament/0/iterations:1/manual_time",
    "fig16/relaxation_only/1/iterations:1/manual_time",
    "fig20/open_loop/batch_latency_us:0/0/iterations:1/manual_time",
    "fig20/open_loop/batch_latency_us:2000/2000/iterations:1/manual_time",
    "fig20/open_loop/batch_latency_us:20000/20000/iterations:1/manual_time",
    "fig20/pipeline_vs_serial/iterations:1/manual_time",
    "fig20/placement_equivalence/iterations:1",
    "fig21/replay/machines:1000/1000/iterations:1/manual_time",
    "fig21/parse_throughput/iterations:1/manual_time",
    "fig22/centralized/iterations:8/manual_time",
    "fig22/federated/1/iterations:8/manual_time",
    "fig22/federated/2/iterations:8/manual_time",
    "fig22/federated/4/iterations:8/manual_time",
    "fig22/summary",
]

BASE_MS = 10.0


def doc(gate, value, unit="ms", cpus=None):
    """A BENCH JSON whose series matching `gate` all carry `value` for its key
    (a time in `unit` for real_time rows)."""
    rows = []
    for name in NAMES:
        if gate.fig not in name:
            continue
        row = {"name": name, "real_time": 1.0, "time_unit": "ms"}
        if gate.key == "real_time":
            row["real_time"], row["time_unit"] = value, unit
        else:
            row[gate.key] = value
        rows.append(row)
    out = {"benchmarks": rows}
    if cpus is not None:
        out["cpus"] = cpus
    return out


def armed_cpus(gate):
    return next(n for n in (1, 2, 4, 8) if bg.cpus_match(gate.cpus, n))


def inside_and_past(gate):
    """(value just inside the row's bar, value just past it)."""
    if gate.op == "diff":
        return BASE_MS * (1 + gate.threshold) - 0.01, BASE_MS * (1 + gate.threshold) + 0.01
    if gate.op == "== baseline":
        return BASE_MS, BASE_MS + 1
    t = gate.threshold
    return {">=": (t, t - 0.01), "<=": (t, t + 0.01), "==": (t, t + 1), ">": (t + 0.01, t)}[gate.op]


def run(gate, values, baseline_value=BASE_MS, cpus=None, unit="ms"):
    docs = [doc(gate, v, unit) for v in values]
    baseline = doc(gate, baseline_value, cpus=1)
    failures, _ = bg.check(gate, docs, baseline, armed_cpus(gate) if cpus is None else cpus)
    return failures


class EveryRow(unittest.TestCase):
    def test_rows_match_real_series(self):
        for gate in bg.GATES:
            self.assertTrue(doc(gate, 1.0)["benchmarks"], gate)
            self.assertTrue(any(bg.re.search(gate.series, n) for n in NAMES), gate)

    def test_just_inside_passes_just_past_fails(self):
        for gate in bg.GATES:
            inside, past = inside_and_past(gate)
            with self.subTest(gate=gate):
                self.assertEqual(run(gate, [inside] * gate.runs), [])
                self.assertTrue(run(gate, [past] * gate.runs))

    def test_median_of_three_fails_when_first_two_fail(self):
        for gate in (g for g in bg.GATES if g.runs == 3):
            inside, past = inside_and_past(gate)
            with self.subTest(gate=gate):
                self.assertTrue(run(gate, [past, past, inside]))
                self.assertEqual(run(gate, [past, inside, inside]), [])
                self.assertEqual(run(gate, [inside, past, inside]), [])

    def test_missing_key_fails(self):
        for gate in bg.GATES:
            docs = [doc(gate, 1.0) for _ in range(gate.runs)]
            for row in docs[0]["benchmarks"]:
                row.pop(gate.key, None)
            with self.subTest(gate=gate):
                self.assertTrue(bg.check(gate, docs, doc(gate, 1.0), armed_cpus(gate))[0])

    def test_unmatched_series_fails(self):
        for gate in bg.GATES:
            docs = [{"benchmarks": [{"name": "other/series", "real_time": 1.0,
                                     "time_unit": "ms"}]}] * gate.runs
            with self.subTest(gate=gate):
                self.assertTrue(bg.check(gate, docs, doc(gate, 1.0), armed_cpus(gate))[0])


class Diff(unittest.TestCase):
    gate = next(g for g in bg.GATES if g.fig == "fig07")

    def test_ns_rows_convert_to_ms(self):
        # 12.1 ms in ns regresses against a 10 ms baseline; 11.9 ms does not.
        self.assertTrue(run(self.gate, [12.1e6] * 3, unit="ns"))
        self.assertEqual(run(self.gate, [11.9e6] * 3, unit="ns"), [])
        # 0.6 us is 0.0006 ms, nowhere near a 0.33 ms baseline.
        self.assertEqual(run(self.gate, [0.6e3] * 3, baseline_value=0.33, unit="ns"), [])

    def test_floor_and_absolute_margin(self):
        # Under the 0.2 ms floor: never gated.
        self.assertEqual(run(self.gate, [0.19 * 3] * 3, baseline_value=0.19), [])
        # +50% but only +0.2 ms: inside the 0.25 ms absolute margin.
        self.assertEqual(run(self.gate, [0.6] * 3, baseline_value=0.4), [])
        self.assertTrue(run(self.gate, [0.7] * 3, baseline_value=0.4))

    def test_summary_rows_get_no_diff(self):
        fig22 = next(g for g in bg.GATES if g.fig == "fig22" and g.op == "diff")
        self.assertIsNone(bg.re.search(fig22.series, "fig22/summary"))


class Fig16(unittest.TestCase):
    gate = next(g for g in bg.GATES if g.fig == "fig16")

    def test_only_the_race_is_gated(self):
        # relaxation_only runs for comparison and sits far above the bar.
        docs = [doc(self.gate, self.gate.threshold - 0.01) for _ in range(3)]
        for d in docs:
            next(r for r in d["benchmarks"] if "relaxation_only" in r["name"])["max_round_s"] = 1.67
        self.assertEqual(bg.check(self.gate, docs, {"benchmarks": []}, 4)[0], [])
        docs = [doc(self.gate, self.gate.threshold + 0.01) for _ in range(3)]
        self.assertTrue(bg.check(self.gate, docs, {"benchmarks": []}, 4)[0])


class ExtractScopeShare(unittest.TestCase):
    gate = next(g for g in bg.GATES if g.key == "extract_scope_share")

    def test_full_extraction_fails_scoped_passes(self):
        # Every round extracting in full reads 1.0; the scoped apply 0.554.
        self.assertTrue(run(self.gate, [1.0]))
        self.assertEqual(run(self.gate, [0.554]), [])

    def test_only_placement_equivalence_is_gated(self):
        names = [n for n in NAMES if bg.re.search(self.gate.series, n)]
        self.assertEqual(names, ["fig20/placement_equivalence/iterations:1"])


class CpuCondition(unittest.TestCase):
    def bars(self, key):
        return [g for g in bg.GATES if g.key == key]

    def check_pair(self, key, low_cpus, high_cpus, value_between):
        # value_between clears the low-core bar but not the high-core one.
        low = [f for g in self.bars(key) for f in run(g, [value_between] * 3, cpus=low_cpus)]
        high = [f for g in self.bars(key) for f in run(g, [value_between] * 3, cpus=high_cpus)]
        self.assertEqual(low, [])
        self.assertTrue(high)

    def test_pipeline_speedup(self):
        self.check_pair("pipeline_speedup", 1, 2, 1.0)
        self.assertTrue(run(self.bars("pipeline_speedup")[1], [0.49] * 3, cpus=1))

    def test_federation_speedup(self):
        self.check_pair("federation_speedup", 3, 4, 1.5)
        self.assertTrue(run(self.bars("federation_speedup")[1], [1.29] * 3, cpus=2))


class EqualsBaseline(unittest.TestCase):
    gate = next(g for g in bg.GATES if g.op == "== baseline" and g.key == "incremental_iters")

    def test_series_set_must_match(self):
        docs = [doc(self.gate, BASE_MS)]
        baseline = doc(self.gate, BASE_MS)
        baseline["benchmarks"] = [row for row in baseline["benchmarks"]
                                  if not row["name"].startswith("fig11/quincy_policy/")]
        self.assertTrue(bg.check(self.gate, docs, baseline, 4)[0])


class CycleCancelingWorkCounter(unittest.TestCase):
    gate = next(g for g in bg.GATES if g.key == "solver_iters")

    def test_gated_on_cycle_canceling_only(self):
        names = [n for n in NAMES if bg.re.search(self.gate.series, n)]
        self.assertEqual(names, ["fig07/cycle_canceling/50/0/iterations:3/manual_time"])

    def test_one_extra_cycle_fails(self):
        # Recorded baselines: 1494 (50 machines) and 4452 (150 machines).
        for base in (1494, 4452):
            with self.subTest(base=base):
                self.assertEqual(run(self.gate, [base], baseline_value=base), [])
                self.assertTrue(run(self.gate, [base + 1], baseline_value=base))


class RemovalWorkCounters(unittest.TestCase):
    gates = [g for g in bg.GATES if g.key in ("removal_tasks_refreshed", "removal_class_misses")]

    def test_both_counters_gated_on_removal_dirty_only(self):
        self.assertEqual(len(self.gates), 2)
        for gate in self.gates:
            names = [n for n in NAMES if bg.re.search(gate.series, n)]
            self.assertEqual(names, ["fig11/removal_dirty/850/quincy/iterations:6/manual_time"])

    def test_one_extra_unit_of_work_fails(self):
        # Recorded baselines: 1248 refreshed tasks, 1140 class misses.
        for gate, base in zip(self.gates, (1248, 1140)):
            with self.subTest(gate=gate):
                self.assertEqual(run(gate, [base], baseline_value=base), [])
                self.assertTrue(run(gate, [base + 1], baseline_value=base))
                self.assertTrue(run(gate, [base - 1], baseline_value=base))

    def test_baseline_without_the_counter_fails(self):
        for gate in self.gates:
            baseline = doc(gate, 1.0)
            for row in baseline["benchmarks"]:
                row.pop(gate.key, None)
            with self.subTest(gate=gate):
                self.assertTrue(bg.check(gate, [doc(gate, 1.0)], baseline, 4)[0])


class FederatedRoundCounters(unittest.TestCase):
    gates = [g for g in bg.GATES if g.key in ("cell_rounds_run", "cell_rounds_skipped")]
    # Recorded (run, skipped) per cell count.
    BASELINE = {"1": (9, 0), "2": (16, 2), "4": (22, 14)}

    def docs(self, gate, bump=None):
        """One run of the three federated series at the recorded counts,
        with `bump` (a cell count) one round off."""
        rows = []
        for cells, counts in self.BASELINE.items():
            value = counts[0 if gate.key == "cell_rounds_run" else 1]
            rows.append({"name": f"fig22/federated/{cells}/iterations:8/manual_time",
                         "real_time": 1.0, "time_unit": "ms",
                         gate.key: value + (1 if cells == bump else 0)})
        return {"benchmarks": rows}

    def test_both_counters_gated_on_federated_series_only(self):
        self.assertEqual(len(self.gates), 2)
        for gate in self.gates:
            names = [n for n in NAMES if bg.re.search(gate.series, n)]
            self.assertEqual(names, [n for n in NAMES if n.startswith("fig22/federated/")])

    def test_any_cell_count_one_round_off_fails(self):
        for gate in self.gates:
            baseline = self.docs(gate)
            with self.subTest(gate=gate):
                self.assertEqual(bg.check(gate, [self.docs(gate)], baseline, 4)[0], [])
                for cells in self.BASELINE:
                    self.assertTrue(bg.check(gate, [self.docs(gate, cells)], baseline, 4)[0])


class FederatedDeltaDigest(unittest.TestCase):
    gate = next(g for g in bg.GATES if g.key == "delta_digest")
    # Recorded digests per cell count.
    BASELINE = {"1": 572073, "2": 504513, "4": 139512}

    def docs(self, bump=None):
        """One run of the three federated series at the recorded digests,
        with `bump` (a cell count) carrying a different one."""
        return {"benchmarks": [
            {"name": f"fig22/federated/{cells}/iterations:8/manual_time", "real_time": 1.0,
             "time_unit": "ms", "delta_digest": digest + (1 if cells == bump else 0)}
            for cells, digest in self.BASELINE.items()]}

    def test_gated_on_federated_series_only(self):
        names = [n for n in NAMES if bg.re.search(self.gate.series, n)]
        self.assertEqual(names, [n for n in NAMES if n.startswith("fig22/federated/")])

    def test_any_cell_count_with_another_stream_fails(self):
        baseline = self.docs()
        self.assertEqual(bg.check(self.gate, [self.docs()], baseline, 4)[0], [])
        for cells in self.BASELINE:
            with self.subTest(cells=cells):
                self.assertTrue(bg.check(self.gate, [self.docs(cells)], baseline, 4)[0])


if __name__ == "__main__":
    unittest.main()
