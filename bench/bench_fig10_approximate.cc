// Figure 10: approximate min-cost max-flow yields poor solutions — tasks
// remain misplaced until shortly before the algorithms reach optimality,
// which is why the paper rejects early termination (§5.1).
//
// A task is misplaced if it is (i) unplaced/preempted in the approximate
// solution but runs in the optimal one, or (ii) scheduled on a different
// machine than in the optimal solution.

#include <unordered_map>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/core/placement_extractor.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/relaxation.h"

namespace firmament {
namespace {

struct Point {
  const char* algorithm;
  double budget_s;
  double budget_fraction;
  size_t misplaced;
};
std::vector<Point> g_points;

using Placements = std::vector<std::pair<TaskId, MachineId>>;

size_t CountMisplaced(const Placements& optimal, const Placements& approx) {
  // Tasks an approximate pseudoflow leaves unresolved are absent from
  // `approx` and count as unplaced.
  std::unordered_map<TaskId, MachineId> approx_machine(approx.begin(), approx.end());
  size_t misplaced = 0;
  for (const auto& [task, machine] : optimal) {
    auto it = approx_machine.find(task);
    if ((it == approx_machine.end() ? kInvalidMachineId : it->second) != machine) {
      ++misplaced;
    }
  }
  return misplaced;
}

void Approximate(benchmark::State& state) {
  // Highly-utilized cluster with a large pending job (cf. Fig. 8).
  const int machines = bench::Scaled(400, 1250);
  bench::BenchEnv env(bench::PolicyKind::kQuincy, machines, 10);
  SimTime now = env.FillToUtilization(0.92, 0);
  env.SubmitBatchJob(machines, now);
  env.manager().UpdateRound(now);
  FlowNetwork base = *env.network();

  // References: each algorithm's own optimal solution and placements (the
  // optimal flow is not unique, so approximations are compared against the
  // same algorithm run to completion).
  CostScaling full_solver;
  FlowNetwork optimal_net = base;
  SolveStats full_stats = full_solver.Solve(&optimal_net);
  env.network()->CopyFlowFrom(optimal_net);
  Placements cs_optimal = ExtractPlacements(env.manager()).placements;
  double full_s = static_cast<double>(full_stats.runtime_us) / 1e6;

  Relaxation relax_ref;
  FlowNetwork relax_net_ref = base;
  double relax_full_s =
      static_cast<double>(relax_ref.Solve(&relax_net_ref).runtime_us) / 1e6;
  env.network()->CopyFlowFrom(relax_net_ref);
  Placements relax_optimal = ExtractPlacements(env.manager()).placements;

  for (auto _ : state) {
    for (double fraction : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      {
        CostScalingOptions options;
        options.time_budget_us = static_cast<uint64_t>(fraction * full_s * 1e6);
        CostScaling approx_solver(options);
        FlowNetwork net = base;
        approx_solver.Solve(&net);
        env.network()->CopyFlowFrom(net);
        auto placements = ExtractPlacements(env.manager()).placements;
        g_points.push_back(
            {"cost_scaling", fraction * full_s, fraction, CountMisplaced(cs_optimal, placements)});
      }
      {
        RelaxationOptions options;
        options.time_budget_us =
            std::max<uint64_t>(1, static_cast<uint64_t>(fraction * relax_full_s * 1e6));
        if (fraction == 1.0) {
          options.time_budget_us = 0;  // run to optimality
        }
        Relaxation approx_solver(options);
        FlowNetwork net = base;
        approx_solver.Solve(&net);
        env.network()->CopyFlowFrom(net);
        auto placements = ExtractPlacements(env.manager()).placements;
        g_points.push_back(
            {"relaxation", fraction * relax_full_s, fraction, CountMisplaced(relax_optimal, placements)});
      }
    }
    state.SetIterationTime(full_s);
  }
  state.counters["optimal_cs_runtime_s"] = full_s;
  state.counters["optimal_relax_runtime_s"] = relax_full_s;
}

}  // namespace
}  // namespace firmament

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  firmament::bench::PrintFigureHeader(
      "Figure 10", "task misplacements when terminating the solvers early");
  benchmark::RegisterBenchmark("fig10/approximate_mcmf", firmament::Approximate)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  firmament::bench::RunBenchmarksWithJson("fig10_approximate");
  std::printf("\nFigure 10 series (termination time -> misplaced tasks):\n");
  std::printf("%-14s %14s %10s %12s\n", "algorithm", "budget[s]", "fraction", "misplaced");
  for (const auto& point : firmament::g_points) {
    std::printf("%-14s %14.4f %10.2f %12zu\n", point.algorithm, point.budget_s,
                point.budget_fraction, point.misplaced);
  }
  benchmark::Shutdown();
  return 0;
}
