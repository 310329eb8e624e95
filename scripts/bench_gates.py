#!/usr/bin/env python3
"""Bench gates for scripts/check.sh: one table, one evaluator.

Runs each gated bench binary from build/ in a temp dir, so the committed
BENCH_*.json files stay untouched, then checks every GATES row against the
fresh JSON. Baselines come from `git show HEAD:BENCH_<stem>.json`. Exits 1
if any row fails. Run from anywhere: `python3 scripts/bench_gates.py`.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# figure -> (bench binary / BENCH json stem, --benchmark_filter or None).
# The filters keep fig07 to its smallest sizes (cycle canceling takes
# seconds per size by design) and fig14 off its minutes-long trace-sim CDFs.
BENCHES = {
    "fig07": ("fig07_algorithm_comparison",
              "fig07/(cost_scaling_a2|relaxation|cycle_canceling)/(50|150)/"),
    "fig11": ("fig11_incremental", None),
    "fig14": ("fig14_placement_latency", "fig14/templated_recurring"),
    "fig16": ("fig16_demanding", "fig16/(firmament|relaxation_only)"),
    "fig20": ("fig20_service_throughput", None),
    "fig21": ("fig21_trace_replay", None),
    "fig22": ("fig22_federation", None),
}

# A `diff` row regresses a series when its time exceeds the baseline by more
# than the row's threshold (relative) AND by more than DIFF_ABS_MS; series
# whose baseline is under FLOOR_MS are too small to gate on.
DIFF_ABS_MS = 0.25
FLOOR_MS = 0.2
UNIT_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

# fig16 `firmament` max_round_s bar, in seconds: set between the race's and
# relaxation_only's medians over 5 runs of the parent commit on 4 vCPUs.
FIG16_MAX_ROUND_S = 1.1

# fig20 placement_equivalence extract_scope_share bar: between the full
# extractor's 1.0 and the scoped apply's 0.554 (7 rounds, the first full).
EXTRACT_SCOPE_SHARE = 0.8

OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


class Gate(NamedTuple):
    fig: str
    series: str                # regex, re.search on the benchmark name
    key: str                   # "real_time" or a counter name
    op: str                    # "diff", "== baseline", or a key of OPS
    threshold: Optional[float]
    cpus: Optional[str]        # e.g. ">=2": the row arms only if nproc matches
    runs: int                  # 3: per-series median of 3 runs; 1: first run
    why: str


# Wall-clock rows take the median of 3 runs, since a loaded runner can push
# one run either way; work counters and correctness bits gate a single run.
GATES = [
    Gate("fig07", r"fig07/", "real_time", "diff", 0.2, None, 3,
         "solver runtimes (Fig. 7) vs the committed baseline"),
    Gate("fig11", r"fig11/", "real_time", "diff", 0.2, None, 3,
         "incremental cost scaling and view prep vs the committed baseline"),
    # Push+relabel counts are deterministic: "same solver behaviour".
    Gate("fig11", r"fig11/[a-z_]*_policy/", "incremental_iters", "== baseline", None, None, 1,
         "incremental cost-scaling work differs from the committed baseline"),
    Gate("fig11", r"fig11/[a-z_]*_policy/", "scratch_iters", "== baseline", None, None, 1,
         "from-scratch cost-scaling work differs from the committed baseline"),
    Gate("fig11", r"fig11/view_prep/", "view_speedup", ">=", 5.0, None, 1,
         "journal patching must beat a full view rebuild by >= 5x at <1% churn"),
    Gate("fig11", r"fig11/view_prep/", "patched_share", ">=", 0.99, None, 1,
         "every round must take the view patch path"),
    Gate("fig11", r"fig11/graph_update/", "graph_update_speedup", ">=", 5.0, None, 1,
         "delta graph update must beat the full refresh by >= 5x per policy"),
    Gate("fig11", r"fig11/graph_update_burst/", "class_cache_misses", "==", 0.0, None, 1,
         "the cross-round class cache re-priced the burst class"),
    Gate("fig11", r"fig11/removal_dirty/", "removal_dirty_share", "<=", 0.2, None, 1,
         "a machine removal must dirty <= 0.2 of live tasks (Quincy removed-block scan)"),
    # The removal rounds' wall time drifts with the host; the work behind
    # it is deterministic.
    Gate("fig11", r"fig11/removal_dirty/", "removal_tasks_refreshed", "== baseline", None, None,
         1, "machine removals refreshed a different number of tasks than the baseline"),
    Gate("fig11", r"fig11/removal_dirty/", "removal_class_misses", "== baseline", None, None, 1,
         "machine removals re-priced a different number of classes than the baseline"),
    Gate("fig20", r"fig20/", "real_time", "diff", 0.2, None, 3,
         "service throughput series vs the committed baseline"),
    *[Gate("fig20", rf"fig20/open_loop/batch_latency_us:{us}/", "replay_accounted", "==", 1.0,
           None, 1, "open-loop replay lost events or timed out draining")
      for us in (0, 2000, 20000)],
    Gate("fig20", r"fig20/placement_equivalence", "placements_identical", ">=", 1.0, None, 1,
         "pipelined placements diverged from the serialized baseline"),
    # Deterministic work counter: the share of task nodes the round apply
    # visited (Σ tasks_extracted / Σ task_nodes).
    Gate("fig20", r"fig20/placement_equivalence", "extract_scope_share", "<=",
         EXTRACT_SCOPE_SHARE, None, 1,
         "the round apply extracted (nearly) every task node: scoped extraction fell back"),
    Gate("fig20", r"fig20/pipeline_vs_serial", "ingest_overlap", ">", 0.0, None, 1,
         "no events ingested during an in-flight solve"),
    # Solve and ingest share one core below 2 CPUs: sanity bar only there.
    Gate("fig20", r"fig20/pipeline_vs_serial", "pipeline_speedup", ">=", 1.05, ">=2", 3,
         "pipelined drain must beat the serialized loop"),
    Gate("fig20", r"fig20/pipeline_vs_serial", "pipeline_speedup", ">=", 0.5, "<2", 3,
         "pipelining must not wreck the loop on one core"),
    Gate("fig14", r"fig14/templated_recurring", "real_time", "diff", 0.2, None, 3,
         "recurring-job placement latency (Fig. 14) vs the committed baseline"),
    Gate("fig14", r"fig14/templated_recurring", "template_speedup", ">=", 10.0, None, 3,
         "placement templates must beat the solver path by >= 10x per job"),
    # Fig. 16: under oversubscription the race's longest round is bounded by
    # cost scaling, while relaxation alone spirals (~1.6 s at small scale).
    # The bar sits between the two, so a race that stops starting its
    # cost-scaling leg in time fails it. fig16 has no committed baseline.
    Gate("fig16", r"fig16/firmament", "max_round_s", "<=", FIG16_MAX_ROUND_S, None, 3,
         "the race's longest oversubscribed round must stay bounded by cost scaling"),
    # Replay wall time is dominated by trace pacing, so it diffs well; the
    # ~10 ms parse shot is gated on `dropped` instead.
    Gate("fig21", r"fig21/replay/", "real_time", "diff", 0.2, None, 3,
         "end-to-end trace replay wall vs the committed baseline"),
    Gate("fig21", r"fig21/replay/", "replay_complete", ">=", 1.0, None, 1,
         "replay dropped lines, lost events, timed out draining, or left tasks unplaced"),
    Gate("fig21", r"fig21/parse_throughput", "dropped", "==", 0.0, None, 1,
         "the parser dropped lines on a cleanly emitted trace"),
    Gate("fig21", r"fig21/replay/", "template_hit_rate", ">=", 0.5, None, 1,
         "at least half of the recurring replay's submissions must install from cache"),
    # fig22/summary is a counters-only row (its timed loop is empty), so
    # only the churn series diff.
    Gate("fig22", r"fig22/(centralized|federated)", "real_time", "diff", 0.2, None, 3,
         "centralized and federated churn rounds vs the committed baseline"),
    Gate("fig22", r"fig22/summary", "cells1_identical", ">=", 1.0, None, 1,
         "federated cells=1 delta stream diverged from centralized"),
    Gate("fig22", r"fig22/summary", "quality_loss", "<=", 0.05, None, 1,
         "4-cell placement quality loss must stay <= 0.05 vs centralized"),
    # Concurrent cell rounds need the cores; below 4 the structural
    # single-core win (clean-cell skip, split solves) alone must clear 1.3x.
    Gate("fig22", r"fig22/summary", "federation_speedup", ">=", 1.8, ">=4", 3,
         "4-cell round wall must beat centralized"),
    Gate("fig22", r"fig22/summary", "federation_speedup", ">=", 1.3, "<4", 3,
         "4-cell round wall must beat centralized"),
]


def cpus_match(cond, cpus):
    if cond is None:
        return True
    op, n = re.fullmatch(r"(>=|<=|==|>|<)(\d+)", cond).groups()
    return OPS[op](cpus, int(n))


def series_values(doc, gate):
    """Name -> value of gate.key for each series gate.series matches; times
    are converted to ms by the row's time_unit, and a missing key is None."""
    values = {}
    for row in doc["benchmarks"]:
        if not re.search(gate.series, row["name"]):
            continue
        value = row.get(gate.key)
        if value is not None and gate.key == "real_time":
            value *= UNIT_MS[row["time_unit"]]
        values[row["name"]] = value
    return values


def fresh_values(docs, gate):
    """Per-series median over the row's first gate.runs runs."""
    runs = [series_values(doc, gate) for doc in docs[:gate.runs]]
    values = {}
    for name in runs[0]:
        samples = [run.get(name) for run in runs]
        values[name] = None if None in samples else statistics.median(samples)
    return values


def check(gate, docs, baseline, cpus):
    """Evaluates one row. Returns (failures, notes): failure lines fail the
    row; notes are printed either way."""
    threshold = "" if gate.threshold is None else f" {gate.threshold:g}"
    label = f"{gate.fig} {gate.series} {gate.key} {gate.op}{threshold}"
    if not cpus_match(gate.cpus, cpus):
        return [], [f"skip {label} (needs {gate.cpus} cpus, have {cpus})"]
    fresh = fresh_values(docs, gate)
    if not fresh:
        return [f"FAIL {label}: regex matches no series"], []
    failures = [f"FAIL {label}: {name} has no {gate.key}"
                for name, value in fresh.items() if value is None]
    fresh = {name: value for name, value in fresh.items() if value is not None}
    notes = []
    if gate.op == "diff":
        base = series_values(baseline, gate)
        mismatch = "" if baseline.get("cpus") == cpus else " (mismatch)"
        notes.append(f"     baseline cpus={baseline.get('cpus', '?')} "
                     f"mhz={baseline.get('mhz', '?')}, this host nproc={cpus}{mismatch}")
        common = sorted(set(fresh) & set(base))
        if not common:
            failures.append(f"FAIL {label}: no series in common with the baseline")
        for name in common:
            b, f = base[name], fresh[name]
            if b < FLOOR_MS:
                continue
            line = f"{name}: {b:.3f} ms -> {f:.3f} ms ({(f / b - 1) * 100:+.0f}%)"
            if f > b * (1 + gate.threshold) and f - b > DIFF_ABS_MS:
                failures.append(f"FAIL {label}: REGRESSION {line}")
            else:
                notes.append(f"     {line}")
    elif gate.op == "== baseline":
        base = series_values(baseline, gate)
        if base != fresh:
            failures.append(f"FAIL {label}: baseline {base} vs fresh {fresh}")
    else:
        for name, value in sorted(fresh.items()):
            if not OPS[gate.op](value, gate.threshold):
                failures.append(f"FAIL {label}: {name} = {value:g}")
            else:
                notes.append(f"     {name} = {value:g}")
    if not failures:
        notes.insert(0, f"ok   {label}")
    return failures, notes


def run_bench(fig, runs, workdir):
    stem, bench_filter = BENCHES[fig]
    cmd = [os.path.join(ROOT, "build", f"bench_{stem}")]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    docs = []
    for i in range(runs):
        cwd = os.path.join(workdir, f"{fig}.{i}")
        os.mkdir(cwd)
        subprocess.run(cmd, cwd=cwd, check=True)
        with open(os.path.join(cwd, f"BENCH_{stem}.json")) as f:
            docs.append(json.load(f))
    return docs


def committed_baseline(fig):
    stem = BENCHES[fig][0]
    shown = subprocess.run(["git", "show", f"HEAD:BENCH_{stem}.json"], cwd=ROOT,
                           capture_output=True, text=True)
    return json.loads(shown.stdout) if shown.returncode == 0 else {"benchmarks": []}


def record(fig, runs=5):
    """Re-records BENCH_<stem>.json in the repo root as the per-series,
    per-field median of `runs` runs, stamped with the run count. Usage:
    python3 -c 'import sys; sys.path[:0] = ["scripts"]; import bench_gates;
    bench_gates.record("fig07")'"""
    with tempfile.TemporaryDirectory() as workdir:
        docs = run_bench(fig, runs, workdir)
    rows = []
    for row in docs[0]["benchmarks"]:
        same = [r for doc in docs for r in doc["benchmarks"] if r["name"] == row["name"]]
        rows.append({k: statistics.median(r[k] for r in same)
                     if isinstance(v, (int, float)) else v for k, v in row.items()})
    lines = ["{", f'  "scale": "{docs[0]["scale"]}",', f'  "cpus": {docs[0]["cpus"]},',
             f'  "mhz": {docs[0]["mhz"]},', f'  "trials": {runs},', '  "benchmarks": [']
    lines += ["    " + json.dumps(row) + ("," if i + 1 < len(rows) else "")
              for i, row in enumerate(rows)]
    with open(os.path.join(ROOT, f"BENCH_{BENCHES[fig][0]}.json"), "w") as f:
        f.write("\n".join(lines + ["  ]", "}"]) + "\n")


def main():
    sys.stdout.reconfigure(line_buffering=True)  # keep order with the benches' output
    cpus = len(os.sched_getaffinity(0))
    failed = []
    with tempfile.TemporaryDirectory() as workdir:
        for fig in BENCHES:
            gates = [gate for gate in GATES if gate.fig == fig]
            docs = run_bench(fig, max(gate.runs for gate in gates), workdir)
            baseline = committed_baseline(fig)
            for gate in gates:
                failures, notes = check(gate, docs, baseline, cpus)
                if failures:
                    failures.append(f"     -> {gate.why}")
                print("\n".join(failures + notes))
                failed += failures
    if failed:
        print("bench gates: FAILED\n" + "\n".join(failed))
        return 1
    print(f"bench gates: all {len(GATES)} rows OK on {cpus} cpu(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
