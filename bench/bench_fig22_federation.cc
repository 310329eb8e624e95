// Fig. 22 (extension): federated multi-cell scheduling. One identical
// churn workload on an 864-machine cluster is driven through the
// centralized scheduler and through FederationCoordinator at 1, 2 and 4
// cells. Reported per series: per-round wall time, round throughput
// (placements per wall second), p50/p99 submit-to-placement latency, and
// the placement-quality cost; federated series additionally report
// quality_loss relative to centralized — that trade-off curve is the
// figure — plus the deterministic pins behind the drifting walls: the cell
// rounds run and skipped, and delta_digest, a hash of the merged delta
// stream. A summary row derives federation_speedup (centralized round wall
// over 4-cell round wall) and a cells1_identical bit from a scripted
// one-cell-vs-centralized equivalence drive.
//
// Churn is job-granular — each round retires a few whole jobs and submits
// the same number of fresh ones, the way real clusters turn work over.
// That shape is what the figure is about: a round's events touch a few
// cells, the coordinator's clean-cell skip elides the round (graph update,
// solve, extraction) for the untouched rest, so federated round cost
// scales with the *active* slice of the cluster. The centralized scheduler
// has one graph every event touches, so it pays full-cluster cost every
// round; on top of that its one solve is superlinear in graph size while
// each cell solves a fraction. With >= 4 cores the active cells' solves
// also overlap, each on its own scheduler's dispatch worker.
//
// The solver is pinned to incremental cost scaling (Firmament's cost-scaling
// leg) — one deterministic algorithm on both sides isolates the
// partitioning variable. SchedulerService drives the same coordinator
// through ServiceOptions.cells with zero driver changes (see
// federation_test).

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/base/timer.h"
#include "src/federation/federation_coordinator.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

int Machines() { return 864; }  // >= 850 at every scale (the fig22 shape)
constexpr int kSlots = 8;
constexpr int kMachinesPerRack = 24;
constexpr int kJobSize = 8;
int ChurnJobs() { return bench::Scaled(3, 6); }  // whole jobs retired+submitted per round
double FillUtilization() { return 0.65; }

FirmamentSchedulerOptions CellOptions() {
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  return options;
}

CellPolicyFactory SpreadFactory() {
  return [](ClusterState* cluster, uint32_t /*cell*/) {
    CellPolicyBundle bundle;
    bundle.policy = std::make_unique<LoadSpreadingPolicy>(cluster);
    return bundle;
  };
}

// Load-spreading placement quality of a final cluster state: sum over
// machines of n*(n-1)/2 for n running tasks — the pairwise-collision cost a
// spreading policy minimizes. Lower is better; cross-cell imbalance the
// coordinator cannot see shows up here.
double SpreadCost(const std::vector<const ClusterState*>& clusters) {
  double cost = 0;
  for (const ClusterState* cluster : clusters) {
    for (const MachineDescriptor& machine : cluster->machines()) {
      if (!machine.alive) continue;
      double n = machine.running_tasks;
      cost += n * (n - 1) / 2;
    }
  }
  return cost;
}

// Uniform driver surface over the two backends, in global task ids.
struct Backend {
  std::function<std::vector<TaskId>(size_t, SimTime)> submit;
  std::function<void(TaskId, SimTime)> complete;
  std::function<std::vector<SchedulingDelta>(SimTime)> round;
  std::function<double()> quality;
  std::function<int64_t()> used_slots;
  std::function<int64_t()> total_slots;
};

struct BenchState {
  Backend backend;
  Rng rng{42};
  SimTime now = 0;
  std::vector<TaskId> running;  // placed and not yet completed
  std::vector<std::vector<TaskId>> live_jobs;  // submitted, not yet retired
  WallTimer wall;               // epoch for submit-to-placement latencies
  std::map<TaskId, double> submit_walls;
  Distribution latency;
  uint64_t placed = 0;
  // FNV-1a over every delta the series applied, in order (kind, task, from,
  // to): the deterministic behaviour pin behind the drifting wall rows.
  uint64_t digest = TemplateHashInit();
  // Keep the concrete backend alive.
  std::unique_ptr<bench::BenchEnv> central;
  std::unique_ptr<FederationCoordinator> fed;
};

void ApplyDeltas(BenchState* bench, const std::vector<SchedulingDelta>& deltas) {
  const double now_wall = bench->wall.ElapsedSeconds();
  for (const SchedulingDelta& delta : deltas) {
    bench->digest = TemplateHashMix(bench->digest, static_cast<uint64_t>(delta.kind));
    bench->digest = TemplateHashMix(bench->digest, delta.task);
    bench->digest = TemplateHashMix(bench->digest, delta.from);
    bench->digest = TemplateHashMix(bench->digest, delta.to);
    if (delta.kind == SchedulingDelta::Kind::kPlace) {
      bench->running.push_back(delta.task);
      ++bench->placed;
      auto it = bench->submit_walls.find(delta.task);
      if (it != bench->submit_walls.end()) {
        bench->latency.Add(now_wall - it->second);
        bench->submit_walls.erase(it);
      }
    } else if (delta.kind == SchedulingDelta::Kind::kPreempt) {
      auto it = std::find(bench->running.begin(), bench->running.end(), delta.task);
      if (it != bench->running.end()) {
        *it = bench->running.back();
        bench->running.pop_back();
      }
    }
  }
}

void SubmitTasks(BenchState* bench, int tasks) {
  const double now_wall = bench->wall.ElapsedSeconds();
  while (tasks > 0) {
    size_t n = static_cast<size_t>(std::min(tasks, kJobSize));
    std::vector<TaskId> ids = bench->backend.submit(n, bench->now);
    for (TaskId task : ids) {
      bench->submit_walls[task] = now_wall;
    }
    bench->live_jobs.push_back(std::move(ids));
    tasks -= static_cast<int>(n);
  }
}

// Retire one randomly chosen fully-placed job (all tasks left the submit
// queue). Bounded probing keeps the draw honest when stragglers exist.
void RetireRandomJob(BenchState* bench) {
  size_t probes = bench->live_jobs.size();
  while (probes-- > 0) {
    const size_t index = bench->rng.NextUint64(bench->live_jobs.size());
    std::vector<TaskId>& job = bench->live_jobs[index];
    bool placed = true;
    for (TaskId task : job) {
      placed &= bench->submit_walls.count(task) == 0;
    }
    if (!placed) continue;
    for (TaskId task : job) {
      bench->backend.complete(task, bench->now);
      auto it = std::find(bench->running.begin(), bench->running.end(), task);
      if (it != bench->running.end()) {
        *it = bench->running.back();
        bench->running.pop_back();
      }
    }
    bench->live_jobs[index] = std::move(bench->live_jobs.back());
    bench->live_jobs.pop_back();
    return;
  }
}

// One steady-state churn round, job-granular: retire a few whole jobs (the
// way clusters turn over work), submit the same number of fresh jobs, run
// one scheduling round. The handful of touched cells run; clean siblings
// skip — the activity scaling the figure measures. Returns the round's
// wall seconds (the timed quantity).
double ChurnRound(BenchState* bench) {
  for (int j = 0; j < ChurnJobs() && !bench->live_jobs.empty(); ++j) {
    RetireRandomJob(bench);
  }
  SubmitTasks(bench, ChurnJobs() * kJobSize);
  bench->now += kSec;
  WallTimer timer;
  std::vector<SchedulingDelta> deltas = bench->backend.round(bench->now);
  const double wall = timer.ElapsedSeconds();
  ApplyDeltas(bench, deltas);
  return wall;
}

// Fill to the target utilization and drain every waiting task (untimed).
void FillAndDrain(BenchState* bench) {
  const int64_t target =
      static_cast<int64_t>(FillUtilization() * static_cast<double>(bench->backend.total_slots()));
  SubmitTasks(bench, static_cast<int>(target));
  for (int i = 0; i < 50 && bench->backend.used_slots() < target; ++i) {
    bench->now += kSec;
    ApplyDeltas(bench, bench->backend.round(bench->now));
  }
}

std::unique_ptr<BenchState> MakeCentralized() {
  auto bench = std::make_unique<BenchState>();
  bench->central = std::make_unique<bench::BenchEnv>(bench::PolicyKind::kLoadSpreading, Machines(),
                                              kSlots, CellOptions(), QuincyPolicyParams{},
                                              /*seed=*/42, kMachinesPerRack);
  bench::BenchEnv* env = bench->central.get();
  bench->backend.submit = [env](size_t n, SimTime now) {
    std::vector<TaskDescriptor> tasks(n);
    for (TaskDescriptor& task : tasks) task.runtime = 3600 * kSec;
    return env->cluster().job(env->scheduler().SubmitJob(JobType::kBatch, 0, std::move(tasks), now)).tasks;
  };
  bench->backend.complete = [env](TaskId task, SimTime now) { env->scheduler().CompleteTask(task, now); };
  bench->backend.round = [env](SimTime now) { return env->scheduler().RunSchedulingRound(now).deltas; };
  bench->backend.quality = [env]() { return SpreadCost({&env->cluster()}); };
  bench->backend.used_slots = [env]() { return env->cluster().UsedSlots(); };
  bench->backend.total_slots = [env]() { return env->cluster().TotalSlots(); };
  return bench;
}

std::unique_ptr<BenchState> MakeFederated(size_t cells) {
  auto bench = std::make_unique<BenchState>();
  FederationOptions options;
  options.cell = CellOptions();
  bench->fed = std::make_unique<FederationCoordinator>(cells, SpreadFactory(), options);
  FederationCoordinator* fed = bench->fed.get();
  RackId rack = kInvalidRackId;
  for (int m = 0; m < Machines(); ++m) {
    if (m % kMachinesPerRack == 0) rack = fed->AddRack();
    fed->AddMachine(rack, MachineSpec{.slots = kSlots});
  }
  bench->backend.submit = [fed](size_t n, SimTime now) {
    std::vector<TaskDescriptor> tasks(n);
    for (TaskDescriptor& task : tasks) task.runtime = 3600 * kSec;
    std::vector<TaskId> ids;
    fed->SubmitJob(JobType::kBatch, 0, std::move(tasks), now, nullptr, &ids);
    return ids;
  };
  bench->backend.complete = [fed](TaskId task, SimTime now) { fed->CompleteTask(task, now); };
  bench->backend.round = [fed](SimTime now) { return fed->RunRound(now).merged.deltas; };
  bench->backend.quality = [fed]() {
    std::vector<const ClusterState*> clusters;
    for (size_t c = 0; c < fed->num_cells(); ++c) clusters.push_back(&fed->cell(c).cluster());
    return SpreadCost(clusters);
  };
  bench->backend.used_slots = [fed]() { return fed->UsedSlots(); };
  bench->backend.total_slots = [fed]() { return fed->TotalSlots(); };
  return bench;
}

// Mean round wall and final quality per series, for the cross-series
// counters (centralized registers first, so its entries are present when
// the federated series report). Key: cell count, 0 = centralized.
std::map<int, double> g_round_wall_s;
std::map<int, double> g_quality;

void RunSeries(benchmark::State& state, int key, BenchState* bench) {
  FillAndDrain(bench);
  double total_wall = 0;
  uint64_t rounds = 0;
  const uint64_t placed_before = bench->placed;
  for (auto _ : state) {
    const double wall = ChurnRound(bench);
    state.SetIterationTime(wall);
    total_wall += wall;
    ++rounds;
  }
  // Drain so the quality metric compares complete placements, not queues.
  for (int i = 0; i < 50 && !bench->submit_walls.empty(); ++i) {
    bench->now += kSec;
    ApplyDeltas(bench, bench->backend.round(bench->now));
  }
  g_round_wall_s[key] = total_wall / static_cast<double>(rounds);
  g_quality[key] = bench->backend.quality();

  state.counters["round_wall_ms"] = g_round_wall_s[key] * 1e3;
  state.counters["round_throughput_tps"] =
      static_cast<double>(bench->placed - placed_before) / total_wall;
  state.counters["p50_s"] = bench->latency.Median();
  state.counters["p99_s"] = bench->latency.Percentile(0.99);
  state.counters["quality_cost"] = g_quality[key];
  state.counters["running_tasks"] = static_cast<double>(bench->running.size());
  if (key > 0 && g_quality.count(0) != 0 && g_quality[0] > 0) {
    state.counters["quality_loss"] = (g_quality[key] - g_quality[0]) / g_quality[0];
  }
  if (bench->fed != nullptr) {
    state.counters["cell_rounds_run"] =
        static_cast<double>(bench->fed->counters().cell_rounds_run);
    state.counters["cell_rounds_skipped"] =
        static_cast<double>(bench->fed->counters().cell_rounds_skipped);
    // The JSON prints counters to six significant digits; folding the
    // digest below 10^6 keeps it exact there.
    state.counters["delta_digest"] = static_cast<double>(bench->digest % 1'000'000);
  }
}

void BM_Fig22Centralized(benchmark::State& state) {
  std::unique_ptr<BenchState> bench = MakeCentralized();
  RunSeries(state, 0, bench.get());
}

void BM_Fig22Federated(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  std::unique_ptr<BenchState> bench = MakeFederated(static_cast<size_t>(cells));
  RunSeries(state, cells, bench.get());
}

// Scripted one-cell-vs-centralized equivalence: the same event sequence
// through both backends must yield the same delta stream (the cells=1
// byte-identity contract, also pinned by federation_test).
bool Cells1Identical() {
  auto drive = [](BenchState* bench) {
    std::vector<SchedulingDelta> deltas;
    Rng rng(7);
    for (int wave = 0; wave < 5; ++wave) {
      SubmitTasks(bench, static_cast<int>(4 + rng.NextUint64(12)));
      bench->now += kSec;
      for (const SchedulingDelta& delta : bench->backend.round(bench->now)) {
        deltas.push_back(delta);
        if (delta.kind == SchedulingDelta::Kind::kPlace) bench->running.push_back(delta.task);
      }
      for (int k = 0; k < 2 && !bench->running.empty(); ++k) {
        size_t index = rng.NextUint64(bench->running.size());
        bench->backend.complete(bench->running[index], bench->now);
        bench->running[index] = bench->running.back();
        bench->running.pop_back();
      }
    }
    return deltas;
  };
  // Small shape: the contract is structural, not scale-dependent.
  auto central = std::make_unique<BenchState>();
  central->central = std::make_unique<bench::BenchEnv>(bench::PolicyKind::kLoadSpreading, 12, 4,
                                                CellOptions(), QuincyPolicyParams{}, 42, 6);
  bench::BenchEnv* env = central->central.get();
  central->backend.submit = [env](size_t n, SimTime now) {
    std::vector<TaskDescriptor> tasks(n);
    for (TaskDescriptor& task : tasks) task.runtime = 3600 * kSec;
    return env->cluster().job(env->scheduler().SubmitJob(JobType::kBatch, 0, std::move(tasks), now)).tasks;
  };
  central->backend.complete = [env](TaskId task, SimTime now) { env->scheduler().CompleteTask(task, now); };
  central->backend.round = [env](SimTime now) { return env->scheduler().RunSchedulingRound(now).deltas; };

  auto fed = std::make_unique<BenchState>();
  FederationOptions options;
  options.cell = CellOptions();
  fed->fed = std::make_unique<FederationCoordinator>(1, SpreadFactory(), options);
  FederationCoordinator* coordinator = fed->fed.get();
  RackId rack = kInvalidRackId;
  for (int m = 0; m < 12; ++m) {
    if (m % 6 == 0) rack = coordinator->AddRack();
    coordinator->AddMachine(rack, MachineSpec{.slots = 4});
  }
  fed->backend.submit = [coordinator](size_t n, SimTime now) {
    std::vector<TaskDescriptor> tasks(n);
    for (TaskDescriptor& task : tasks) task.runtime = 3600 * kSec;
    std::vector<TaskId> ids;
    coordinator->SubmitJob(JobType::kBatch, 0, std::move(tasks), now, nullptr, &ids);
    return ids;
  };
  fed->backend.complete = [coordinator](TaskId task, SimTime now) {
    coordinator->CompleteTask(task, now);
  };
  fed->backend.round = [coordinator](SimTime now) {
    return coordinator->RunRound(now).merged.deltas;
  };

  std::vector<SchedulingDelta> a = drive(central.get());
  std::vector<SchedulingDelta> b = drive(fed.get());
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].task != b[i].task || a[i].from != b[i].from ||
        a[i].to != b[i].to) {
      return false;
    }
  }
  return true;
}

void BM_Fig22Summary(benchmark::State& state) {
  const bool identical = Cells1Identical();
  for (auto _ : state) {
    benchmark::DoNotOptimize(identical);
  }
  state.counters["cells1_identical"] = identical ? 1.0 : 0.0;
  if (g_round_wall_s.count(0) != 0 && g_round_wall_s.count(4) != 0 && g_round_wall_s[4] > 0) {
    state.counters["federation_speedup"] = g_round_wall_s[0] / g_round_wall_s[4];
  }
  if (g_quality.count(0) != 0 && g_quality.count(4) != 0 && g_quality[0] > 0) {
    state.counters["quality_loss"] = (g_quality[4] - g_quality[0]) / g_quality[0];
  }
}

}  // namespace
}  // namespace firmament

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  firmament::bench::PrintFigureHeader(
      "Fig. 22", "federated multi-cell scheduling: round time, latency and "
                 "placement quality vs cell count");
  const int rounds = firmament::bench::Scaled(8, 24);
  benchmark::RegisterBenchmark("fig22/centralized", firmament::BM_Fig22Centralized)
      ->UseManualTime()
      ->Iterations(rounds)
      ->Unit(benchmark::kMillisecond);
  for (int cells : {1, 2, 4}) {
    benchmark::RegisterBenchmark("fig22/federated", firmament::BM_Fig22Federated)
        ->Arg(cells)
        ->UseManualTime()
        ->Iterations(rounds)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("fig22/summary", firmament::BM_Fig22Summary);
  firmament::bench::RunBenchmarksWithJson("fig22_federation");
  return 0;
}
