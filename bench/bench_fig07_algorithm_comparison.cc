// Figure 7 (and Table 1): average runtime of the four MCMF algorithms on
// clusters of different sizes, Quincy policy, ~50% slot utilization.
//
// The paper's findings to reproduce in shape: relaxation is fastest despite
// the worst worst-case complexity (Table 1), cost scaling is orders of
// magnitude slower, successive shortest path only beats cycle canceling, and
// both of those are unusable beyond small clusters (they are capped to small
// sizes here for exactly that reason). An extra series ablates the cost
// scaling α-factor (§7.2 footnote 3: α=9 ≈ 30% faster than α=2).

#include <memory>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/cycle_canceling.h"
#include "src/solvers/relaxation.h"
#include "src/solvers/successive_shortest_path.h"

namespace firmament {
namespace {

enum Algorithm : int {
  kCycleCanceling = 0,
  kSuccessiveShortestPath = 1,
  kCostScaling = 2,
  kCostScalingAlpha9 = 3,
  kRelaxation = 4,
};

std::unique_ptr<McmfSolver> MakeSolver(int algorithm) {
  switch (algorithm) {
    case kCycleCanceling:
      return std::make_unique<CycleCanceling>();
    case kSuccessiveShortestPath:
      return std::make_unique<SuccessiveShortestPath>();
    case kCostScaling:
      return std::make_unique<CostScaling>();
    case kCostScalingAlpha9: {
      CostScalingOptions options;
      options.alpha = 9;
      return std::make_unique<CostScaling>(options);
    }
    default: {
      return std::make_unique<Relaxation>();
    }
  }
}

void AlgorithmComparison(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  const int algorithm = static_cast<int>(state.range(1));
  // The scheduler's own rounds run incremental cost scaling alone: a race's
  // winner depends on timing, and which optimal flow it installs shapes the
  // next round's graph, so the measured graphs (and solver_iters below)
  // would differ from run to run.
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  bench::BenchEnv env(bench::PolicyKind::kQuincy, machines, 10, options);
  SimTime now = env.FillToUtilization(0.5, 0);
  std::unique_ptr<McmfSolver> solver = MakeSolver(algorithm);

  Distribution dist;
  uint64_t iterations = 0;
  for (auto _ : state) {
    env.Churn(machines / 10, machines / 10, now);
    now += kMicrosPerSecond;
    env.scheduler().RunSchedulingRound(now);
    FlowNetwork copy = *env.network();
    SolveStats stats = solver->Solve(&copy);
    state.SetIterationTime(static_cast<double>(stats.runtime_us) / 1e6);
    dist.Add(static_cast<double>(stats.runtime_us) / 1e6);
    iterations += stats.iterations;
  }
  bench::ReportDistribution(state, dist);
  // Σ solver iterations over the measured solves (for cycle canceling:
  // feasible-flow augmentations plus cycles cancelled). The graphs are
  // seeded, so this is the series' deterministic work, where its wall time
  // drifts with the host.
  state.counters["solver_iters"] = static_cast<double>(iterations);
}

}  // namespace
}  // namespace firmament

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  firmament::bench::PrintFigureHeader(
      "Figure 7", "average MCMF algorithm runtime vs cluster size (Quincy policy, 50% util)");
  std::printf(
      "Table 1 worst-case complexities: relaxation O(M^3 C U^2); cycle canceling O(N M^2 C U);\n"
      "cost scaling O(N^2 M log(NC)); successive shortest path O(N^2 U log N).\n\n");
  using firmament::bench::FullScale;
  std::vector<int> sizes = FullScale() ? std::vector<int>{50, 450, 1250, 2500, 5000}
                                       : std::vector<int>{50, 150, 450, 850};
  struct Series {
    const char* name;
    int algorithm;
    int max_machines;  // expensive algorithms are capped (they explode, Fig. 7)
  };
  const Series series[] = {
      {"cycle_canceling", firmament::kCycleCanceling, FullScale() ? 450 : 150},
      {"succ_shortest_path", firmament::kSuccessiveShortestPath, FullScale() ? 1250 : 450},
      {"cost_scaling_a2", firmament::kCostScaling, 1 << 30},
      {"cost_scaling_a9", firmament::kCostScalingAlpha9, 1 << 30},
      {"relaxation", firmament::kRelaxation, 1 << 30},
  };
  for (const Series& s : series) {
    for (int machines : sizes) {
      if (machines > s.max_machines) {
        continue;
      }
      benchmark::RegisterBenchmark((std::string("fig07/") + s.name).c_str(),
                                   firmament::AlgorithmComparison)
          ->Args({machines, s.algorithm})
          ->Iterations(3)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
  firmament::bench::RunBenchmarksWithJson("fig07_algorithm_comparison");
  benchmark::Shutdown();
  return 0;
}
