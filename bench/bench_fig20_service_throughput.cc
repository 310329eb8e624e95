// "Figure 20" (extension; no paper counterpart): scheduler-as-a-service
// throughput and submit-to-placement latency under open-loop load.
//
// The paper's harness is closed-loop: the simulator waits for each round
// before advancing. A production front-end is open-loop — submitters do not
// slow down because the scheduler is busy — so backlog shows up as
// submit-to-placement latency. Three series:
//  * open_loop/<batch_latency_us>: a TraceGenerator workload (plus seeded
//    crashes and task kills) turned into a trace event stream by
//    SyntheticTraceEmitter and replayed from memory, in scaled real time,
//    by TraceReplayDriver — the same driver fig21 feeds from CSV. Machines
//    arrive as the stream's ADD rows into an empty cluster. Reports
//    sustained placement throughput and the p50/p99 of submit-to-placement
//    latency as the admission batch-latency knob grows (bigger batches
//    amortize rounds at the cost of queueing delay); latencies are in
//    *trace* seconds (wall x time_scale). replay_accounted is 1 when every
//    consumed event landed in one report bucket and the drain converged.
//  * pipeline_vs_serial: a saturated pre-enqueued stream drained with the
//    solve/ingest pipeline on and off; pipeline_speedup is the wall-clock
//    ratio. Needs >= 2 CPUs to show a speedup (solve and ingest share one
//    core otherwise); ingest_overlap counts events admitted mid-solve.
//  * placement_equivalence: the acceptance property — a deterministic
//    scripted load admitted under both modes must produce byte-identical
//    delta streams and final placements (placements_identical = 1).
//    extract_scope_share is the pipelined run's Σ tasks_extracted over
//    Σ task_nodes: the share of task nodes the scoped apply visited (1.0
//    for a full extraction every round).

#include <chrono>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/base/service_clock.h"
#include "src/service/scheduler_service.h"
#include "src/sim/trace_generator.h"
#include "src/trace/synthetic_trace.h"
#include "src/trace/trace_replay_driver.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

struct ServiceEnv {
  ClusterState cluster;
  std::unique_ptr<SchedulingPolicy> policy;
  std::unique_ptr<FirmamentScheduler> scheduler;
  std::vector<MachineId> machines;

  ServiceEnv(int machines_count, int slots, SolverMode mode) {
    policy = std::make_unique<QuincyPolicy>(&cluster, nullptr);
    FirmamentSchedulerOptions options;
    options.solver.mode = mode;
    scheduler = std::make_unique<FirmamentScheduler>(&cluster, policy.get(), options);
    RackId rack = kInvalidRackId;
    for (int m = 0; m < machines_count; ++m) {
      if (m % 24 == 0) {
        rack = cluster.AddRack();
      }
      machines.push_back(scheduler->AddMachine(rack, MachineSpec{.slots = slots}));
    }
  }
};

// --- Series 1: open-loop trace replay --------------------------------------

void OpenLoopThroughput(benchmark::State& state) {
  const uint64_t batch_latency_us = static_cast<uint64_t>(state.range(0));
  const int machines = bench::Scaled(60, 400);
  const int slots = 8;
  constexpr int kMachinesPerRack = 24;
  // Trace seconds per wall second: compresses a 30s trace into ~0.3s wall.
  const double time_scale = bench::Scaled(100.0, 25.0);

  SyntheticTraceParams trace;
  trace.workload.seed = 23;
  trace.workload.num_machines = machines;
  trace.workload.slots_per_machine = slots;
  trace.workload.tasks_per_machine = 4.0;
  trace.workload.batch_runtime_log_mean = 1.5;  // ~4.5s median: tasks turn over
  trace.workload.batch_runtime_log_sigma = 0.6;
  trace.workload.max_job_tasks = 60;
  trace.faults.seed = 7;
  trace.faults.machine_crash_rate = 0.03;
  trace.faults.task_kill_rate = 0.1;
  trace.horizon = bench::Scaled<SimTime>(30, 120) * kSec;
  trace.machines_per_rack = kMachinesPerRack;
  trace.late_machine_fraction = 0;
  trace.machine_restart_us = 0;
  trace.update_event_stride = 0;
  const std::vector<TraceEvent> events = SyntheticTraceEmitter(trace).Emit();

  for (auto _ : state) {
    ServiceEnv env(/*machines_count=*/0, slots, SolverMode::kRace);

    SchedulerServiceOptions options;
    options.pipeline = true;
    options.admission.queue_shards = 4;
    options.admission.max_batch_tasks = 4096;
    options.admission.max_batch_latency_us = batch_latency_us;
    options.machines_per_rack = kMachinesPerRack;
    WallServiceClock clock(time_scale);
    SchedulerService service(env.scheduler.get(), &clock, options);
    TraceReplayOptions replay_options;
    replay_options.time_scale = time_scale;
    replay_options.slots_at_full_capacity = slots;
    TraceReplayDriver driver(&service, replay_options);

    size_t next = 0;
    auto wall_start = std::chrono::steady_clock::now();
    service.Start();
    TraceReplayReport report = driver.Replay([&events, &next](TraceEvent* event) {
      if (next == events.size()) {
        return false;
      }
      *event = events[next++];
      return true;
    });
    service.Stop();
    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

    ServiceCounters counters = service.counters();
    Distribution latency = service.submit_to_placement_latency();
    const bool accounted =
        report.accounted() == report.events_consumed && !report.drain_timed_out;
    state.SetIterationTime(std::max(1e-9, wall_seconds));
    state.counters["tasks_per_sec"] =
        static_cast<double>(counters.tasks_placed) / std::max(1e-9, wall_seconds);
    if (!latency.empty()) {
      // Trace-time seconds (wall latency x time_scale).
      state.counters["p50_s"] = latency.Median();
      state.counters["p99_s"] = latency.Percentile(0.99);
    }
    state.counters["submitted"] = static_cast<double>(counters.tasks_submitted);
    state.counters["placed"] = static_cast<double>(counters.tasks_placed);
    state.counters["completed"] = static_cast<double>(report.completions_delivered);
    state.counters["rounds"] = static_cast<double>(counters.rounds);
    state.counters["crashes"] = static_cast<double>(report.machine_removes);
    state.counters["ingest_overlap"] = static_cast<double>(counters.events_ingested_during_solve);
    state.counters["replay_accounted"] = accounted ? 1.0 : 0.0;
  }
}

// --- Series 2: pipelined vs serialized drain -------------------------------

struct DrainResult {
  double wall_seconds = 0;
  uint64_t ingested_during_solve = 0;
  uint64_t rounds = 0;
};

DrainResult DrainSaturatedStream(bool pipelined) {
  const int machines = bench::Scaled(80, 600);
  const int slots = 8;
  const int jobs = machines;  // 8-task jobs filling ~100% of slots
  ServiceEnv env(machines, slots, SolverMode::kCostScalingOnly);

  WallServiceClock clock(1.0);
  SchedulerServiceOptions options;
  options.pipeline = pipelined;
  options.admission.queue_shards = 4;
  // Size-triggered batches chunk the stream into many rounds so the
  // pipeline has solves to overlap with ingest.
  options.admission.max_batch_tasks = static_cast<size_t>(machines) * slots / 8;
  options.admission.max_batch_latency_us = 60 * kSec;
  SchedulerService service(env.scheduler.get(), &clock, options);

  Rng rng(99);
  uint64_t total_tasks = 0;
  for (int j = 0; j < jobs; ++j) {
    std::vector<TaskDescriptor> tasks(8);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 600 * kSec;  // nothing completes during the drain
      task.input_size_bytes = rng.NextInt(1'000'000, 2'000'000'000);
      task.bandwidth_request_mbps = rng.NextInt(50, 500);
    }
    total_tasks += tasks.size();
    service.Submit(JobType::kBatch, 0, std::move(tasks));
  }

  auto wall_start = std::chrono::steady_clock::now();
  service.Start();
  // All tasks fit (jobs * 8 == slots), so drain completion == all placed.
  // The guard bounds a pathological stall; a partial drain shows up as a
  // wildly wrong pipeline_speedup in the JSON rather than a hang.
  auto deadline = wall_start + std::chrono::seconds(120);
  while (service.counters().tasks_placed < total_tasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  DrainResult result;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  service.Stop();
  ServiceCounters counters = service.counters();
  result.ingested_during_solve = counters.events_ingested_during_solve;
  result.rounds = counters.rounds;
  return result;
}

void PipelineVsSerial(benchmark::State& state) {
  for (auto _ : state) {
    DrainResult serial = DrainSaturatedStream(/*pipelined=*/false);
    DrainResult pipelined = DrainSaturatedStream(/*pipelined=*/true);
    state.SetIterationTime(std::max(1e-9, serial.wall_seconds + pipelined.wall_seconds));
    state.counters["serial_ms"] = serial.wall_seconds * 1e3;
    state.counters["pipelined_ms"] = pipelined.wall_seconds * 1e3;
    state.counters["pipeline_speedup"] =
        serial.wall_seconds / std::max(1e-9, pipelined.wall_seconds);
    state.counters["ingest_overlap"] = static_cast<double>(pipelined.ingested_during_solve);
    state.counters["rounds"] = static_cast<double>(pipelined.rounds);
  }
}

// --- Series 3: placement equivalence (acceptance) --------------------------

uint64_t HashMix(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  return hash;
}

struct EquivalenceRun {
  uint64_t delta_hash = 0x811c9dc5;
  uint64_t placement_hash = 0x811c9dc5;
  uint64_t rounds = 0;
  uint64_t ingested_during_solve = 0;
  uint64_t tasks_extracted = 0;
  uint64_t task_nodes = 0;
};

// Deterministic scripted load, manually pumped: in each phase half the jobs
// go in before the round and half once it is in flight (mid-solve in
// pipelined mode). Single-shard FIFO admission keeps id minting identical.
EquivalenceRun RunScriptedLoad(bool pipelined, const std::vector<TraceJobSpec>& jobs) {
  ServiceEnv env(bench::Scaled(40, 200), 6, SolverMode::kCostScalingOnly);
  ManualServiceClock clock;
  SchedulerServiceOptions options;
  options.pipeline = pipelined;
  options.admission.queue_shards = 1;
  options.admission.max_batch_latency_us = 0;
  SchedulerService service(env.scheduler.get(), &clock, options);

  EquivalenceRun run;
  service.set_on_round([&run](const SchedulerRoundResult& result) {
    ++run.rounds;
    run.tasks_extracted += result.tasks_extracted;
    run.task_nodes += result.task_nodes;
    for (const SchedulingDelta& delta : result.deltas) {
      run.delta_hash = HashMix(run.delta_hash, static_cast<uint64_t>(delta.kind));
      run.delta_hash = HashMix(run.delta_hash, delta.task);
      run.delta_hash = HashMix(run.delta_hash, delta.from);
      run.delta_hash = HashMix(run.delta_hash, delta.to);
    }
  });

  auto submit = [&service](const TraceJobSpec& spec) {
    std::vector<TaskDescriptor> tasks(spec.task_runtimes.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].runtime = spec.task_runtimes[i];
      tasks[i].input_size_bytes = spec.task_input_bytes[i];
      tasks[i].bandwidth_request_mbps = spec.task_bandwidth_mbps[i];
    }
    service.Submit(spec.type, spec.priority, std::move(tasks));
  };

  SimTime now = 0;
  size_t phase = 0;
  for (size_t j = 0; j < jobs.size(); j += 4, ++phase) {
    now += kSec;
    clock.AdvanceTo(now);
    // Every third phase: deterministic completions + one machine crash.
    if (phase == 2) {
      service.RemoveMachine(env.machines[1]);
    }
    if (phase % 3 == 2) {
      std::vector<TaskId> running;
      for (TaskId task : env.cluster.LiveTasks()) {
        if (env.cluster.task(task).state == TaskState::kRunning) {
          running.push_back(task);
        }
      }
      std::sort(running.begin(), running.end());
      for (size_t c = 0; c < running.size() && c < 3; ++c) {
        service.Complete(running[c]);
      }
    }
    for (size_t k = j; k < j + 2 && k < jobs.size(); ++k) {
      submit(jobs[k]);
    }
    service.Pump();
    // The mid-round half: staged while the solve is in flight.
    for (size_t k = j + 2; k < j + 4 && k < jobs.size(); ++k) {
      submit(jobs[k]);
    }
    if (pipelined) {
      service.Pump();
    }
  }
  now += kSec;
  clock.AdvanceTo(now);
  while (service.Pump()) {
  }

  std::vector<TaskId> live = env.cluster.LiveTasks();
  std::sort(live.begin(), live.end());
  for (TaskId task : live) {
    run.placement_hash = HashMix(run.placement_hash, task);
    run.placement_hash = HashMix(run.placement_hash,
                                 static_cast<uint64_t>(env.cluster.task(task).state));
    run.placement_hash = HashMix(run.placement_hash, env.cluster.task(task).machine);
  }
  run.ingested_during_solve = service.counters().events_ingested_during_solve;
  return run;
}

void PlacementEquivalence(benchmark::State& state) {
  TraceGeneratorParams trace;
  trace.seed = 31;
  trace.num_machines = bench::Scaled(40, 200);
  trace.slots_per_machine = 6;
  trace.tasks_per_machine = 3.0;
  trace.max_job_tasks = 30;
  TraceGenerator generator(trace);
  std::vector<TraceJobSpec> jobs = generator.Generate(bench::Scaled<SimTime>(20, 60) * kSec);

  for (auto _ : state) {
    EquivalenceRun serial = RunScriptedLoad(/*pipelined=*/false, jobs);
    EquivalenceRun pipelined = RunScriptedLoad(/*pipelined=*/true, jobs);
    bool identical = serial.delta_hash == pipelined.delta_hash &&
                     serial.placement_hash == pipelined.placement_hash &&
                     serial.rounds == pipelined.rounds;
    state.counters["placements_identical"] = identical ? 1.0 : 0.0;
    state.counters["rounds"] = static_cast<double>(pipelined.rounds);
    state.counters["ingest_overlap"] = static_cast<double>(pipelined.ingested_during_solve);
    state.counters["extract_scope_share"] =
        static_cast<double>(pipelined.tasks_extracted) /
        std::max<double>(1.0, static_cast<double>(pipelined.task_nodes));
  }
}

}  // namespace
}  // namespace firmament

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  firmament::bench::PrintFigureHeader(
      "Figure 20",
      "service throughput + submit-to-placement latency under open-loop load (extension)");
  for (int latency_us : {0, 2000, 20000}) {
    benchmark::RegisterBenchmark(
        ("fig20/open_loop/batch_latency_us:" + std::to_string(latency_us)).c_str(),
        firmament::OpenLoopThroughput)
        ->Arg(latency_us)
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("fig20/pipeline_vs_serial", firmament::PipelineVsSerial)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig20/placement_equivalence", firmament::PlacementEquivalence)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  firmament::bench::RunBenchmarksWithJson("fig20_service_throughput");
  benchmark::Shutdown();
  return 0;
}
