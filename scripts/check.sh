#!/usr/bin/env bash
# CI entry point: tier-1 verification (configure + build + ctest) plus a
# reduced-size smoke run of the perf-tracked benchmarks, diffed against the
# committed BENCH_*.json baselines so solver perf regressions that only show
# up in the bench harness still fail fast.
#
# Each bench binary rewrites BENCH_<figure>.json in the repo root; the
# committed copy is captured before the run and compared after. A tracked
# series regresses when its fresh real_time exceeds the baseline by >20%
# (and by >0.25 ms absolute) in BOTH of two runs — single runs jitter past
# 20% on a loaded 1-CPU runner, so a flagged figure is re-run once and the
# per-series minimum is what gates. Sub-0.2ms series are ignored entirely;
# set FIRMAMENT_BENCH_TOLERANT=1 to report regressions without failing
# (e.g. on noisy shared runners).
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Solve-budget gate: the fig03/1250 shape under a 1 ms budget must come back
# kDegraded with the solver abandoning the round inside 2x the budget (the
# strict wall bound only arms on this release binary; sanitizer legs run the
# same test with functional assertions only).
FIRMAMENT_BUDGET_GATE=1 ./build/scheduler_integration_test \
  --gtest_filter='SolveBudgetTest.Fig03ShapeDegradesWithinTwiceBudget'

# Debug + ASan/UBSan leg: the cross-round caches (class-arc cache, Quincy
# block->task index) and the solvers' persistent views carry state between
# rounds, so lifetime bugs — stale cache entries, dangling refs into a
# renumbered view — corrupt results long after the mutation. Under
# sanitizers they fail loudly at the faulting access instead. Skip with
# FIRMAMENT_SKIP_SANITIZE=1 (e.g. toolchains without libasan).
if [ "${FIRMAMENT_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DFIRMAMENT_SANITIZE=ON
  cmake --build build-asan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

  # Fault-fuzz leg: rack-correlated failure storms under all four policies
  # (three seeds each, persistent class cache on, serial + sharded update
  # paths) plus the seeded fault-injector simulation and the detect-and-
  # rebuild recovery paths — every round must complete with zero aborts
  # under ASan, with delta/full equivalence and a clean (or recovered)
  # integrity report each round.
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

  # Debug + TSan leg: the sharded graph-update pipeline runs the policies'
  # compute hooks concurrently (policy_delta_test's 1/2/8-shard fuzz), the
  # racing solver races two algorithms on one const network plus a
  # persistent worker (scheduler_integration_test), and the scheduler
  # service's multi-producer fuzz hits the sharded admission queues from
  # submitter/machine/completer threads while the loop thread schedules
  # (service_test), and the trace replay driver's lineage maps are hit from
  # the replay thread and the loop's admission/placement callbacks at once
  # (trace_test). The federation coordinator fans per-cell rounds out on a
  # ThreadPool while claiming the cells share no mutable state, and the
  # federated service runs multi-producer submits against the coordinator's
  # loop thread (federation_test) — TSan is what proves the "pure reader"
  # and producers-vs-loop threading contracts rather than trusting them.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DFIRMAMENT_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure \
    -R 'policy_delta_test|scheduler_integration_test|service_test|trace_test|placement_template_test|federation_test'
fi

BASELINE_DIR="$(mktemp -d)"
trap 'rm -rf "$BASELINE_DIR"' EXIT
FAILED=0

# CHECK_SERIES_FILTER (regex, empty = all) narrows which series of a figure
# are timing-gated; deterministic counter gates stay armed regardless.
extract_series() {
  sed -n 's/.*"name": "\([^"]*\)".*"real_time": \([0-9.eE+-]*\).*/\1 \2/p' "$1" |
    grep -E "${CHECK_SERIES_FILTER:-}" || true
}

# Prints the regressed series of $2 (baseline extract) vs $3 (fresh
# extract); empty output means clean.
diff_series() {
  join "$1" "$2" | awk '{
    base = $2 + 0; fresh = $3 + 0;
    if (base < 0.2) next;              # ms; too small to gate on
    if (fresh > base * 1.2 && fresh - base > 0.25) {
      printf "  REGRESSION %s: %.3f ms -> %.3f ms (+%.0f%%)\n", $1, base, fresh, (fresh / base - 1) * 100;
    }
  }'
}

# Runs `label baseline_json fresh_json rerun_cmd...`: compares fresh vs
# baseline; if anything regressed, re-runs the bench once and gates on the
# per-series minimum of the two runs so one noisy run cannot fail CI.
check_regressions() {
  local label="$1" baseline="$2" fresh="$3"
  shift 3
  if [ ! -f "$baseline" ]; then
    echo "bench-diff: no committed baseline for $label (first run?)"
    return 0
  fi
  extract_series "$baseline" | sort > "$BASELINE_DIR/$label.base"
  extract_series "$fresh" | sort > "$BASELINE_DIR/$label.run1"
  local out
  out="$(diff_series "$BASELINE_DIR/$label.base" "$BASELINE_DIR/$label.run1")"
  if [ -n "$out" ]; then
    echo "bench-diff: $label moved past the gate; re-running once to confirm"
    "$@"
    extract_series "$fresh" | sort > "$BASELINE_DIR/$label.run2"
    join "$BASELINE_DIR/$label.run1" "$BASELINE_DIR/$label.run2" |
      awk '{ a = $2 + 0; b = $3 + 0; print $1, (a < b ? a : b) }' |
      sort > "$BASELINE_DIR/$label.min"
    out="$(diff_series "$BASELINE_DIR/$label.base" "$BASELINE_DIR/$label.min")"
  fi
  if [ -n "$out" ]; then
    echo "bench-diff: $label regressed vs committed baseline (confirmed over 2 runs):"
    echo "$out"
    FAILED=1
  else
    echo "bench-diff: $label OK (tracked series within 20% of baseline)"
  fi
}

# Smoke: smallest fig07 sizes across the fast algorithms plus the (now
# batch-cancelling) cycle canceling series; small-scale mode is the default
# and the filter keeps the run to seconds.
run_fig07() {
  ./build/bench_fig07_algorithm_comparison \
    --benchmark_filter='fig07/(cost_scaling_a2|relaxation|cycle_canceling)/(50|150)/'
}
cp BENCH_fig07_algorithm_comparison.json "$BASELINE_DIR/fig07.json" 2>/dev/null || true
run_fig07
check_regressions fig07 "$BASELINE_DIR/fig07.json" BENCH_fig07_algorithm_comparison.json run_fig07

# fig11: incremental-vs-scratch cost scaling and the persistent-view
# preparation series (patch vs rebuild at 850 machines, <1% churn).
cp BENCH_fig11_incremental.json "$BASELINE_DIR/fig11.json" 2>/dev/null || true
./build/bench_fig11_incremental
check_regressions fig11 "$BASELINE_DIR/fig11.json" BENCH_fig11_incremental.json ./build/bench_fig11_incremental

# Solver work-counter gate: push+relabel counts are deterministic, so the
# incremental and scratch cost-scaling iteration means of both fig11 policy
# rows must equal the committed baseline exactly. A count, not a time: one
# run, no rerun. This machine-checks "same solver behaviour" for solver
# refactors and subtractions.
fig11_iters() {
  sed -n 's/.*"name": "\(fig11\/[a-z_]*_policy\/[^"]*\)".*"incremental_iters": \([0-9.eE+-]*\).*"scratch_iters": \([0-9.eE+-]*\).*/\1 \2 \3/p' "$1" |
    sort
}
iters_base="$(fig11_iters "$BASELINE_DIR/fig11.json" 2>/dev/null || true)"
iters_fresh="$(fig11_iters BENCH_fig11_incremental.json)"
echo "fig11 work counters (series incremental_iters scratch_iters):"
echo "$iters_fresh"
if [ "$(echo "$iters_base" | grep -c .)" -ne 2 ] || [ "$iters_base" != "$iters_fresh" ]; then
  echo "bench-diff: fig11 cost-scaling work counters differ from the committed baseline:"
  echo "$iters_base"
  FAILED=1
fi

# Acceptance guard for the incremental view: with <1% of arcs changing per
# round, journal patching must beat a full rebuild by >= 5x and every round
# must actually take the patch path.
view_speedup="$(sed -n 's/.*"view_speedup": \([0-9.eE+-]*\).*/\1/p' BENCH_fig11_incremental.json | head -1)"
patched_share="$(sed -n 's/.*"patched_share": \([0-9.eE+-]*\).*/\1/p' BENCH_fig11_incremental.json | head -1)"
echo "view prep: patch-vs-rebuild speedup=${view_speedup:-?}x patched_share=${patched_share:-?}"
if ! awk -v s="${view_speedup:-0}" -v p="${patched_share:-0}" 'BEGIN { exit !(s >= 5.0 && p >= 0.99) }'; then
  echo "bench-diff: persistent-view patch path below acceptance (need >=5x and patched_share >=0.99)"
  FAILED=1
fi

# Acceptance guard for the delta-driven policy API: at 850 machines with <1%
# per-round task churn, the graph-update pass (stats drain + policy arc
# deltas) must beat the legacy full-refresh path by >= 5x under every
# benched policy.
while read -r gu_speedup; do
  [ -n "$gu_speedup" ] || continue
  echo "graph update: delta-vs-full speedup=${gu_speedup}x"
  if ! awk -v s="$gu_speedup" 'BEGIN { exit !(s >= 5.0) }'; then
    echo "bench-diff: delta graph update below acceptance (need >=5x vs full refresh)"
    FAILED=1
  fi
done < <(sed -n 's/.*"graph_update_speedup": \([0-9.eE+-]*\).*/\1/p' BENCH_fig11_incremental.json)

# Acceptance guard for the cross-round class cache: on bursty
# identical-task submits the persistent cache must beat the legacy
# per-round class cache by >= 2x on the graph-update pass. Like the
# baseline diffs above, a wall-clock ratio on a loaded 1-CPU runner gets
# one confirmation re-run before failing (the two runs' max gates, since a
# stall can only deflate the measured speedup).
burst_speedup="$(sed -n 's/.*"burst_speedup": \([0-9.eE+-]*\).*/\1/p' BENCH_fig11_incremental.json | head -1)"
if ! awk -v s="${burst_speedup:-0}" 'BEGIN { exit !(s >= 2.0) }'; then
  echo "bench-diff: burst speedup ${burst_speedup:-?}x below gate; re-running once to confirm"
  # Filtered re-run in the scratch dir so the full BENCH json is not
  # clobbered (later gates still read it).
  (cd "$BASELINE_DIR" && "$OLDPWD/build/bench_fig11_incremental" \
      --benchmark_filter='fig11/graph_update_burst')
  rerun_speedup="$(sed -n 's/.*"burst_speedup": \([0-9.eE+-]*\).*/\1/p' "$BASELINE_DIR/BENCH_fig11_incremental.json" | head -1)"
  burst_speedup="$(awk -v a="${burst_speedup:-0}" -v b="${rerun_speedup:-0}" 'BEGIN { print (a > b ? a : b) }')"
fi
echo "graph update (bursty identical submits): persistent-vs-per-round speedup=${burst_speedup:-?}x"
if ! awk -v s="${burst_speedup:-0}" 'BEGIN { exit !(s >= 2.0) }'; then
  echo "bench-diff: cross-round class cache below acceptance (need >=2x vs per-round cache on bursts, confirmed over 2 runs)"
  FAILED=1
fi

# Acceptance guard for the sharded graph-update pipeline: at 10k machines
# with a multi-ten-thousand-task submission burst of fresh equivalence
# classes, the 8-shard compute/apply split must beat the serial delta path
# by >= 2x. A parallel-speedup gate needs parallel hardware: armed at 2.0x
# on runners with >= 8 CPUs, relaxed to 1.1x with 2-7 CPUs, and
# reported-only on 1-CPU runners — there the number is the split's
# coordination-overhead bound (~0.95-1.0), not a speedup. The per-shard
# work counters in the JSON (arcs_generated_s*, cache_hits_s*) are
# deterministic and diffable across boxes regardless.
par_speedup="$(sed -n 's/.*"parallel_speedup": \([0-9.eE+-]*\).*/\1/p' BENCH_fig11_incremental.json | head -1)"
cores="$(nproc)"
echo "graph update (8-shard pipeline @10k machines): speedup=${par_speedup:-?}x on ${cores} cpu(s)"
par_need=""
if [ "$cores" -ge 8 ]; then
  par_need=2.0
elif [ "$cores" -ge 2 ]; then
  par_need=1.1
fi
if [ -n "$par_need" ]; then
  if ! awk -v s="${par_speedup:-0}" -v n="$par_need" 'BEGIN { exit !(s >= n) }'; then
    echo "bench-diff: sharded graph update below acceptance (need >=${par_need}x at ${cores} cpus)"
    FAILED=1
  fi
else
  # Generous floor: 0.80-0.97 measured on this box depending on load; the
  # check only catches pathological coordination overhead, not noise.
  if ! awk -v s="${par_speedup:-0}" 'BEGIN { exit !(s >= 0.6) }'; then
    echo "bench-diff: sharded pipeline overhead out of bounds on 1 cpu (need >=0.6x of serial)"
    FAILED=1
  fi
fi

# Acceptance guard for the Quincy block->task reverse index: a machine
# removal must dirty only tasks whose preference arcs touch the removed
# machine's blocks — a small fraction of the task set, not all of it
# (the legacy MarkAllTasks behaviour pins this share at 1.0).
dirty_share="$(sed -n 's/.*"removal_dirty_share": \([0-9.eE+-]*\).*/\1/p' BENCH_fig11_incremental.json | head -1)"
echo "quincy machine removal: dirty task share=${dirty_share:-?}"
if ! awk -v s="${dirty_share:-1}" 'BEGIN { exit !(s <= 0.2) }'; then
  echo "bench-diff: machine-removal dirty share above acceptance (need <=0.2 of live tasks)"
  FAILED=1
fi

# fig20: scheduler-as-a-service under open-loop load. The equivalence and
# overlap gates are deterministic and always arm; the pipeline-speedup gate
# needs a second core (solve and ingest share one otherwise), so it arms at
# >= 1.05x on >= 2 CPUs — with one confirmation re-run, gating on the max,
# since a loaded runner can only deflate the ratio — and is sanity-only
# (>= 0.5x, i.e. "pipelining must not wreck the loop") on 1 CPU.
cp BENCH_fig20_service_throughput.json "$BASELINE_DIR/fig20.json" 2>/dev/null || true
./build/bench_fig20_service_throughput
check_regressions fig20 "$BASELINE_DIR/fig20.json" BENCH_fig20_service_throughput.json \
  ./build/bench_fig20_service_throughput

placements_identical="$(sed -n 's/.*"placements_identical": \([0-9.eE+-]*\).*/\1/p' BENCH_fig20_service_throughput.json | head -1)"
if ! awk -v p="${placements_identical:-0}" 'BEGIN { exit !(p >= 1.0) }'; then
  echo "bench-diff: pipelined placements diverged from the serialized baseline (placements_identical=${placements_identical:-?})"
  FAILED=1
fi
overlap="$(sed -n 's/.*"name": "fig20\/pipeline_vs_serial.*"ingest_overlap": \([0-9.eE+-]*\).*/\1/p' BENCH_fig20_service_throughput.json | head -1)"
echo "service pipeline: mid-solve ingest events=${overlap:-?}"
if ! awk -v o="${overlap:-0}" 'BEGIN { exit !(o > 0) }'; then
  echo "bench-diff: no events ingested during an in-flight solve (pipeline not overlapping)"
  FAILED=1
fi
svc_speedup="$(sed -n 's/.*"pipeline_speedup": \([0-9.eE+-]*\).*/\1/p' BENCH_fig20_service_throughput.json | head -1)"
if [ "$cores" -ge 2 ]; then
  svc_need=1.05
else
  svc_need=0.5
fi
if ! awk -v s="${svc_speedup:-0}" -v n="$svc_need" 'BEGIN { exit !(s >= n) }'; then
  echo "bench-diff: service speedup ${svc_speedup:-?}x below ${svc_need}x; re-running once to confirm"
  (cd "$BASELINE_DIR" && "$OLDPWD/build/bench_fig20_service_throughput" \
      --benchmark_filter='fig20/pipeline_vs_serial')
  rerun_svc="$(sed -n 's/.*"pipeline_speedup": \([0-9.eE+-]*\).*/\1/p' "$BASELINE_DIR/BENCH_fig20_service_throughput.json" | head -1)"
  svc_speedup="$(awk -v a="${svc_speedup:-0}" -v b="${rerun_svc:-0}" 'BEGIN { print (a > b ? a : b) }')"
fi
echo "service pipeline: pipelined-vs-serialized drain speedup=${svc_speedup:-?}x on ${cores} cpu(s)"
if ! awk -v s="${svc_speedup:-0}" -v n="$svc_need" 'BEGIN { exit !(s >= n) }'; then
  echo "bench-diff: service pipeline below acceptance (need >=${svc_need}x at ${cores} cpus, confirmed over 2 runs)"
  FAILED=1
fi

# fig14 (templated series): the placement-template fast path re-instantiates
# a recurring job's placement at SubmitJob time; per-job it must beat the
# solver path by >= 10x. The trace-sim CDF series stay out of CI (minutes of
# wall time); only the recurring-job series is run and baseline-diffed.
run_fig14() {
  ./build/bench_fig14_placement_latency --benchmark_filter='fig14/templated_recurring'
}
cp BENCH_fig14_placement_latency.json "$BASELINE_DIR/fig14.json" 2>/dev/null || true
run_fig14
check_regressions fig14 "$BASELINE_DIR/fig14.json" BENCH_fig14_placement_latency.json run_fig14

# Acceptance guard for placement templates: >= 10x per-job over the solver
# path. A wall-clock ratio on a loaded runner gets one confirmation re-run
# before failing; the two runs' max gates, since a stall in the (µs-scale)
# template loop can only deflate the measured speedup.
tmpl_speedup="$(sed -n 's/.*"template_speedup": \([0-9.eE+-]*\).*/\1/p' BENCH_fig14_placement_latency.json | head -1)"
if ! awk -v s="${tmpl_speedup:-0}" 'BEGIN { exit !(s >= 10.0) }'; then
  echo "bench-diff: template speedup ${tmpl_speedup:-?}x below 10x; re-running once to confirm"
  (cd "$BASELINE_DIR" && "$OLDPWD/build/bench_fig14_placement_latency" \
      --benchmark_filter='fig14/templated_recurring')
  rerun_tmpl="$(sed -n 's/.*"template_speedup": \([0-9.eE+-]*\).*/\1/p' "$BASELINE_DIR/BENCH_fig14_placement_latency.json" | head -1)"
  tmpl_speedup="$(awk -v a="${tmpl_speedup:-0}" -v b="${rerun_tmpl:-0}" 'BEGIN { print (a > b ? a : b) }')"
fi
echo "placement templates: per-job speedup=${tmpl_speedup:-?}x over the solver path"
if ! awk -v s="${tmpl_speedup:-0}" 'BEGIN { exit !(s >= 10.0) }'; then
  echo "bench-diff: placement templates below acceptance (need >=10x per-job vs solver, confirmed over 2 runs)"
  FAILED=1
fi

# fig21: end-to-end trace replay (CSV ingest -> streaming parse -> replay
# driver -> service). The wall time is dominated by deterministic trace
# pacing, so the 20% regression gate is meaningful despite the end-to-end
# shape. Timing-gate only the replay series: the parse-throughput series is
# a ~10-20 ms single shot that jitters >30% run-to-run on this 1-CPU box;
# its correctness is gated deterministically below (dropped == 0).
cp BENCH_fig21_trace_replay.json "$BASELINE_DIR/fig21.json" 2>/dev/null || true
./build/bench_fig21_trace_replay
CHECK_SERIES_FILTER='fig21/replay/'
check_regressions fig21 "$BASELINE_DIR/fig21.json" BENCH_fig21_trace_replay.json \
  ./build/bench_fig21_trace_replay
CHECK_SERIES_FILTER=''

# Completeness gates (deterministic, always arm): replay_complete folds
# zero parse drops, the zero-event-loss accounting identity (every consumed
# event in exactly one report bucket), a converged drain, and
# every-admitted-task-placed into one flag; the parse-throughput series
# must also drop nothing on a cleanly emitted trace.
replay_complete="$(sed -n 's/.*"replay_complete": \([0-9.eE+-]*\).*/\1/p' BENCH_fig21_trace_replay.json | head -1)"
parse_dropped="$(sed -n 's/.*"dropped": \([0-9.eE+-]*\).*/\1/p' BENCH_fig21_trace_replay.json | head -1)"
echo "trace replay: replay_complete=${replay_complete:-?} parse_dropped=${parse_dropped:-?}"
if ! awk -v c="${replay_complete:-0}" 'BEGIN { exit !(c >= 1.0) }'; then
  echo "bench-diff: trace replay incomplete (parse drops, lost events, drain timeout, or unplaced tasks)"
  FAILED=1
fi
if ! awk -v d="${parse_dropped:-1}" 'BEGIN { exit !(d == 0) }'; then
  echo "bench-diff: parser dropped lines on a cleanly emitted trace"
  FAILED=1
fi

# Placement-template hit rate on the replay's recurring workload: the
# deterministic trace reuses a small set of job shapes, so at least half of
# all eligible submissions must install from cache.
tmpl_hit_rate="$(sed -n 's/.*"template_hit_rate": \([0-9.eE+-]*\).*/\1/p' BENCH_fig21_trace_replay.json | head -1)"
echo "trace replay: template_hit_rate=${tmpl_hit_rate:-?}"
if ! awk -v h="${tmpl_hit_rate:-0}" 'BEGIN { exit !(h >= 0.5) }'; then
  echo "bench-diff: template hit rate below acceptance (need >=0.5 on the recurring replay workload)"
  FAILED=1
fi

# fig22: federated multi-cell scheduling. Timing-gate the centralized and
# federated churn series against the committed baseline, then three
# deterministic acceptance gates from the summary row: the cells=1
# byte-identity bit, the 4-cell quality loss bound, and the
# federated-vs-centralized round-wall speedup. The speedup bar is
# core-aware: >= 1.8x with >= 4 CPUs (concurrent cell rounds stack on the
# clean-cell skip and the split solves); on fewer cores the structural
# single-core win alone must clear >= 1.3x. Like the other wall-clock
# ratios, a miss gets one confirmation re-run and the max of the two runs
# gates, since a loaded runner can only deflate the ratio.
cp BENCH_fig22_federation.json "$BASELINE_DIR/fig22.json" 2>/dev/null || true
./build/bench_fig22_federation
check_regressions fig22 "$BASELINE_DIR/fig22.json" BENCH_fig22_federation.json \
  ./build/bench_fig22_federation

cells1_identical="$(sed -n 's/.*"name": "fig22\/summary.*"cells1_identical": \([0-9.eE+-]*\).*/\1/p' BENCH_fig22_federation.json | head -1)"
if ! awk -v i="${cells1_identical:-0}" 'BEGIN { exit !(i >= 1.0) }'; then
  echo "bench-diff: federated cells=1 delta stream diverged from centralized (cells1_identical=${cells1_identical:-?})"
  FAILED=1
fi
fed_quality_loss="$(sed -n 's/.*"name": "fig22\/summary.*"quality_loss": \([0-9.eE+-]*\).*/\1/p' BENCH_fig22_federation.json | head -1)"
echo "federation: 4-cell quality loss=${fed_quality_loss:-?} vs centralized"
if ! awk -v q="${fed_quality_loss:-1}" 'BEGIN { exit !(q <= 0.05) }'; then
  echo "bench-diff: federated placement quality loss above acceptance (need <=0.05 vs centralized)"
  FAILED=1
fi
fed_speedup="$(sed -n 's/.*"name": "fig22\/summary.*"federation_speedup": \([0-9.eE+-]*\).*/\1/p' BENCH_fig22_federation.json | head -1)"
if [ "$cores" -ge 4 ]; then
  fed_need=1.8
else
  fed_need=1.3
fi
if ! awk -v s="${fed_speedup:-0}" -v n="$fed_need" 'BEGIN { exit !(s >= n) }'; then
  echo "bench-diff: federation speedup ${fed_speedup:-?}x below ${fed_need}x; re-running once to confirm"
  (cd "$BASELINE_DIR" && "$OLDPWD/build/bench_fig22_federation")
  rerun_fed="$(sed -n 's/.*"name": "fig22\/summary.*"federation_speedup": \([0-9.eE+-]*\).*/\1/p' "$BASELINE_DIR/BENCH_fig22_federation.json" | head -1)"
  fed_speedup="$(awk -v a="${fed_speedup:-0}" -v b="${rerun_fed:-0}" 'BEGIN { print (a > b ? a : b) }')"
fi
echo "federation: 4-cell round-wall speedup=${fed_speedup:-?}x over centralized on ${cores} cpu(s)"
if ! awk -v s="${fed_speedup:-0}" -v n="$fed_need" 'BEGIN { exit !(s >= n) }'; then
  echo "bench-diff: federation below acceptance (need >=${fed_need}x at ${cores} cpus, confirmed over 2 runs)"
  FAILED=1
fi

if [ "$FAILED" -ne 0 ]; then
  if [ "${FIRMAMENT_BENCH_TOLERANT:-0}" = "1" ]; then
    echo "check.sh: bench regressions reported (tolerated by FIRMAMENT_BENCH_TOLERANT=1)"
  else
    echo "check.sh: FAILED (bench regression)"
    exit 1
  fi
fi

echo "check.sh: OK"
