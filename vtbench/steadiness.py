#!/usr/bin/env python3
"""Steadiness report for the virtual-time benchmark.

Runs every workload N times untraced, each run with its own seed, and once
traced, then prints per (workload, end-to-end metric): the median, the
quartiles, the spread (q3 - q1) / median, and the bound from BENCHMARK.json,
plus the tracing overhead (traced placed_per_s against the untraced median).
With --sets 2 it repeats the untraced runs on the same seeds and also prints
how far the second median moved from the first, as a share of the first.

Run from the repository root:

  python3 vtbench/steadiness.py --runs 10 --sets 2 --out steadiness.json

Quartiles are Python's statistics.quantiles(values, n=4). Every run's failed
share is printed; a run whose checks fail makes the script exit non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"runs": {}, "report": {}}
    ok = True
    for workload in args.workloads:
        sets = []
        for set_index in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + i
                result = run_once(workload, seed, args.seconds, 0)
                share = result["failed"] / result["attempted"]
                print(f"{workload} set {set_index + 1} seed {seed}: correct={result['correct']} "
                      f"failed share {share:.6f}", flush=True)
                ok = ok and result["correct"] and result["failed"] == 0
                results.append(result)
            sets.append(results)
            record["runs"][f"{workload}/set{set_index + 1}"] = results
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}"
              f"{'drift':>9}")
        medians = {}
        for name in bounds:
            first = [r["metrics"][name]["value"] for r in sets[0]]
            median, q1, q3, rel = spread(first)
            medians[name] = median
            drift = ""
            if args.sets == 2:
                second = statistics.median(r["metrics"][name]["value"] for r in sets[1])
                drift = f"{(second - median) / median:+.3f}"
            unit = sets[0][0]["metrics"][name]["unit"]
            print(f"{name + ' [' + unit + ']':<16}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{rel:>9.3f}{bounds[name]:>8.2f}{drift:>9}")
            record["report"][f"{workload}/{name}"] = {
                "median": median, "q1": q1, "q3": q3, "spread": rel, "bound": bounds[name],
                "drift": drift}
        if not args.no_trace:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            ok = ok and traced["correct"] and traced["failed"] == 0
            record["runs"][f"{workload}/traced"] = traced
            pps = traced["metrics"]["trace.placed_per_s"]["value"]
            overhead = 1 - pps / medians["placed_per_s"]
            print(f"tracing overhead: traced placed_per_s {pps:.6g} vs untraced median "
                  f"{medians['placed_per_s']:.6g} -> {overhead:+.3f}")
            record["report"][f"{workload}/trace_overhead"] = overhead
        print(flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
