// Figure 12: problem-specific heuristics (§5.3).
//  (a) Arc prioritization (AP) reduces relaxation runtime on graphs with
//      contended nodes (paper: −45%).
//  (b) Efficient task removal (TR) speeds up incremental cost scaling on
//      removal-heavy change streams (paper: −10%).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/solvers/relaxation.h"

namespace firmament {
namespace {

double g_ap_on_s = 0;
double g_ap_off_s = 0;
double g_tr_on_s = 0;
double g_tr_off_s = 0;

// (a) Relaxation with/without arc prioritization on a contended graph:
// load-spreading policy plus one large arriving job (cf. Fig. 9).
void ArcPrioritization(benchmark::State& state) {
  const bool enabled = state.range(0) == 1;
  const int machines = bench::Scaled(400, 1250);
  bench::BenchEnv env(bench::PolicyKind::kLoadSpreading, machines, 10);
  SimTime now = env.FillToUtilization(0.4, 0);
  env.SubmitBatchJob(bench::Scaled(1500, 4000), now);
  env.manager().UpdateRound(now);

  RelaxationOptions options;
  options.arc_prioritization = enabled;
  Relaxation solver(options);
  Distribution dist;
  for (auto _ : state) {
    FlowNetwork copy = *env.network();
    SolveStats stats = solver.Solve(&copy);
    double seconds = static_cast<double>(stats.runtime_us) / 1e6;
    state.SetIterationTime(seconds);
    dist.Add(seconds);
  }
  (enabled ? g_ap_on_s : g_ap_off_s) = dist.Mean();
  state.counters["mean_s"] = dist.Mean();
}

// (b) Incremental cost scaling with/without the task-removal flow drain on
// a completion-heavy churn stream.
void TaskRemoval(benchmark::State& state) {
  const bool enabled = state.range(0) == 1;
  const int machines = bench::Scaled(400, 1250);
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  options.graph.task_removal_drain = enabled;
  bench::BenchEnv env(bench::PolicyKind::kQuincy, machines, 10, options);
  SimTime now = env.FillToUtilization(0.7, 0);

  Distribution dist;
  for (auto _ : state) {
    // Measured round: removals only, so the task-removal repair work is what
    // dominates the incremental solve.
    env.Churn(machines, 0, now);
    now += kMicrosPerSecond;
    SchedulerRoundResult result = env.scheduler().RunSchedulingRound(now);
    double seconds = static_cast<double>(result.algorithm_runtime_us) / 1e6;
    state.SetIterationTime(seconds);
    dist.Add(seconds);
    // Untimed restore round: refill the drained slots.
    env.Churn(0, machines, now);
    now += kMicrosPerSecond;
    env.scheduler().RunSchedulingRound(now);
  }
  (enabled ? g_tr_on_s : g_tr_off_s) = dist.Mean();
  state.counters["mean_s"] = dist.Mean();
}

}  // namespace
}  // namespace firmament

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  firmament::bench::PrintFigureHeader(
      "Figure 12", "problem-specific heuristics: arc prioritization & efficient task removal");
  for (int enabled : {0, 1}) {
    benchmark::RegisterBenchmark(enabled ? "fig12a/relaxation_with_AP"
                                         : "fig12a/relaxation_no_AP",
                                 firmament::ArcPrioritization)
        ->Arg(enabled)
        ->Iterations(3)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (int enabled : {0, 1}) {
    benchmark::RegisterBenchmark(enabled ? "fig12b/inc_cost_scaling_with_TR"
                                         : "fig12b/inc_cost_scaling_no_TR",
                                 firmament::TaskRemoval)
        ->Arg(enabled)
        ->Iterations(firmament::bench::Scaled(16, 24))
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  firmament::bench::RunBenchmarksWithJson("fig12_heuristics");
  std::printf("\nFigure 12 summary:\n");
  std::printf("  (a) relaxation:        no AP %.4fs -> AP %.4fs (%.1f%% reduction)\n",
              firmament::g_ap_off_s, firmament::g_ap_on_s,
              100.0 * (1.0 - firmament::g_ap_on_s / firmament::g_ap_off_s));
  std::printf("  (b) inc. cost scaling: no TR %.4fs -> TR %.4fs (%.1f%% reduction)\n",
              firmament::g_tr_off_s, firmament::g_tr_on_s,
              100.0 * (1.0 - firmament::g_tr_on_s / firmament::g_tr_off_s));
  benchmark::Shutdown();
  return 0;
}
