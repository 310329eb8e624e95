#!/usr/bin/env bash
# CI entry point: tier-1 verification (configure + build + ctest), the
# vtbench determinism self-test, sanitizer legs, and a reduced-size smoke run
# of the perf-tracked benchmarks gated by scripts/bench_gates.py. The benches
# run in a temp dir, so the committed BENCH_*.json baselines stay untouched
# and `git status` stays clean.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# End-to-end determinism self-test (vtbench, built into .bench_build/): per
# workload, same-seed runs must give identical placements under cost
# scaling and identical trace-driven calls under the race. Machine-checks
# that each round's deltas (scoped extraction, ascending TaskId order) are
# a function of the admitted stream alone.
python3 vtbench/run.py --selftest --seconds 2

# Solve-budget gate: the fig03/1250 shape under a 1 ms budget must come back
# kDegraded with the solver abandoning the round inside 2x the budget (the
# strict wall bound only arms on this release binary; sanitizer legs run the
# same test with functional assertions only).
FIRMAMENT_BUDGET_GATE=1 ./build/scheduler_integration_test \
  --gtest_filter='SolveBudgetTest.Fig03ShapeDegradesWithinTwiceBudget'

# Debug + ASan/UBSan leg: the cross-round caches (class-arc cache, Quincy
# removed-block set) and the solvers' persistent views carry state between
# rounds, so lifetime bugs — stale cache entries, dangling refs into a
# renumbered view — corrupt results long after the mutation. Under
# sanitizers they fail loudly at the faulting access instead. Skip with
# FIRMAMENT_SKIP_SANITIZE=1 (e.g. toolchains without libasan).
if [ "${FIRMAMENT_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DFIRMAMENT_SANITIZE=ON
  cmake --build build-asan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

  # Fault-fuzz leg: rack-correlated failure storms under all four policies
  # (three seeds each), the seeded fault-injector decision stream (the
  # crash/storm/kill trace it feeds replays in the trace-ingestion leg
  # below), and the detect-and-rebuild recovery paths — every round must
  # complete with zero aborts under ASan, with delta/full equivalence and a
  # clean (or recovered) integrity report each round.
  ./build-asan/policy_delta_test \
    --gtest_filter='FailureStormFuzz.*:PolicyDeltaTest.RecoveryRebuildMatchesFromScratch'
  ./build-asan/scheduler_integration_test \
    --gtest_filter='FaultInjectorTest.*:PhaseSplitRoundTest.*:IntegrityRecoveryTest.*:IdempotentEventsTest.*'

  # Placement-template leg: the template cache holds machine lists and
  # reverse indices across rounds and across machine removals — exactly the
  # stale-pointer shape the other cross-round caches have. ASan proves the
  # eviction paths (machine removal, MarkEquivClass, out-of-band edits,
  # capacity clears) leave no dangling reads.
  ./build-asan/placement_template_test

  # Federation leg: the coordinator's route tables (task/job/machine) and
  # the per-cell schedulers' caches cross round and cell boundaries on
  # every spill/rebalance move — exactly where a stale local id would read
  # freed cell state. ASan proves the move/withdraw/resubmit paths clean,
  # including the whole-cell rack-death storm.
  ./build-asan/federation_test

  # Trace-ingestion leg: the streaming parsers run on hostile input here
  # (malformed, truncated, out-of-order lines) and hold a chunk buffer +
  # string_view lines across refills — exactly the kind of code where an
  # off-by-one reads freed buffer bytes. ASan proves the robustness
  # counters come without memory errors; the replay tests cover the
  # driver's cross-thread lineage maps under ASan too.
  ./build-asan/trace_test

  # Debug + TSan leg: the racing solver races two algorithms on one const
  # network plus a persistent worker (policy_delta_test's fuzzers run every
  # round through it, as does scheduler_integration_test), the scheduler
  # service's multi-producer fuzz hits the sharded admission queues from
  # submitter/machine/completer threads while the loop thread schedules
  # (service_test), and the trace replay driver's lineage maps are hit from
  # the replay thread and the loop's admission/placement callbacks at once
  # (trace_test). The federation coordinator fans per-cell rounds out on a
  # ThreadPool while claiming the cells share no mutable state, and the
  # federated service runs multi-producer submits against the coordinator's
  # loop thread (federation_test) — TSan is what proves the "pure reader"
  # and producers-vs-loop threading contracts rather than trusting them.
  # The race's stagger handshake (the cost-scaling leg sleeps on a condvar
  # until relaxation finishes or runs late) and the price refine job that
  # outlives its round run in solvers_test, solver_stress_test and
  # flow_view_incremental_test.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DFIRMAMENT_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure \
    -R 'policy_delta_test|scheduler_integration_test|service_test|trace_test|placement_template_test|federation_test|solvers_test|solver_stress_test|flow_view_incremental_test'
fi

# Bench gates: unit-test the gate evaluator, then run every gated bench in a
# temp dir and check it against the table in scripts/bench_gates.py (wall
# times diffed against the committed BENCH_*.json, work counters and
# acceptance ratios against fixed bars).
python3 scripts/bench_gates_test.py
if ! python3 scripts/bench_gates.py; then
  echo "check.sh: FAILED (bench regression)"
  exit 1
fi

echo "check.sh: OK"
