// "Figure 21" (extension; no paper counterpart): end-to-end trace replay —
// the §7.1 "replay the Google trace" methodology run through this repo's
// full ingestion stack instead of a pre-parsed in-memory workload.
//
// Pipeline under test: SyntheticTraceEmitter serializes a trace-shaped
// workload into clusterdata-2011 CSV tables -> the streaming parsers
// (LineChunkReader/TraceTableReader/MergedTraceStream, O(live state)
// memory) k-way merge them back into one event stream -> TraceReplayDriver
// feeds it through the SchedulerService producer API in scaled trace time.
// Two series:
//  * replay/machines:N — the end-to-end run. CI scale replays >= 1h of
//    trace time on 1,000 machines (>= 10k task lineages) and the full scale
//    (FIRMAMENT_BENCH_SCALE=full) is the paper-sized 10,000-machine
//    cluster. Reports submit-to-placement latency percentiles (trace
//    seconds), the per-round graph-update / solve / apply wall breakdown
//    (apply_ms is SchedulerRoundResult::total_runtime_us, staged_replay_ms
//    its staged-replay share), and the per-phase cache hit rates:
//    class_cache_hit_rate for the graph-update phase (policy class-arc
//    cache) and view_patched_share for the solve phase (incremental view
//    prepare vs rebuild).
//    replay_complete folds the acceptance checks into one flag: zero parse
//    drops, the zero-event-loss accounting identity, no drain timeout, and
//    every admitted task placed.
//  * parse_throughput — the parsers alone on the same CSV tables (no
//    scheduler): lines/s, MB/s, and the buffering high-water that pins the
//    O(chunk + longest line) memory bound.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/base/service_clock.h"
#include "src/core/load_spreading_policy.h"
#include "src/flow/flow_network_view.h"
#include "src/service/scheduler_service.h"
#include "src/trace/synthetic_trace.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_replay_driver.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

struct TraceFiles {
  std::string machine_csv;
  std::string task_csv;
  SyntheticTraceCounts counts;
  uint64_t bytes = 0;
};

SyntheticTraceParams BenchTraceParams(int machines) {
  SyntheticTraceParams params;
  params.workload.seed = 1123;
  params.workload.num_machines = machines;
  params.workload.slots_per_machine = 12;
  // Low density + long runtimes keep the hour-long window at a task count a
  // single-core CI box can place (Little's law: ~3 * machines / ~660s mean
  // runtime arrivals per second => ~16 lineages per machine per hour).
  params.workload.tasks_per_machine = 3.0;
  params.workload.service_task_fraction = 0.25;
  params.workload.batch_runtime_log_mean = 6.0;  // e^6 ~ 400s median
  params.workload.batch_runtime_log_sigma = 1.0;
  params.workload.max_job_tasks = 2000;
  params.faults.seed = 271;
  params.faults.machine_crash_rate = 0.01;
  params.faults.task_kill_rate = 0.05;
  params.horizon = 3600 * kSec;  // one hour of trace time
  params.machines_per_rack = 48;
  params.late_machine_fraction = 0.02;
  params.machine_restart_us = 5 * 60 * kSec;
  params.update_event_stride = 64;
  return params;
}

TraceFiles WriteTrace(const SyntheticTraceParams& params) {
  namespace fs = std::filesystem;
  TraceFiles files;
  fs::path dir = fs::temp_directory_path();
  files.machine_csv = (dir / "fig21_machine_events.csv").string();
  files.task_csv = (dir / "fig21_task_events.csv").string();
  SyntheticTraceEmitter emitter(params);
  files.counts = emitter.WriteCsv(files.machine_csv, files.task_csv);
  files.bytes = static_cast<uint64_t>(fs::file_size(files.machine_csv)) +
                static_cast<uint64_t>(fs::file_size(files.task_csv));
  return files;
}

void RemoveTrace(const TraceFiles& files) {
  std::remove(files.machine_csv.c_str());
  std::remove(files.task_csv.c_str());
}

// --- Series 1: end-to-end replay -------------------------------------------

struct RoundAgg {
  uint64_t rounds = 0;
  uint64_t update_us = 0;
  uint64_t solve_us = 0;
  uint64_t apply_us = 0;  // extraction + diff + staged replay + templates
  uint64_t staged_replay_us = 0;
  uint64_t patched = 0;
  uint64_t class_hits = 0;
  uint64_t class_misses = 0;
};

void TraceReplay(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  // Trace microseconds per wall microsecond: compresses the hour-long
  // window; the scheduler's backlog surfaces as placement latency.
  const double time_scale = bench::Scaled(2400.0, 600.0);

  SyntheticTraceParams params = BenchTraceParams(machines);
  TraceFiles files = WriteTrace(params);

  for (auto _ : state) {
    ClusterState cluster;
    LoadSpreadingPolicy policy(&cluster);
    FirmamentSchedulerOptions scheduler_options;
    scheduler_options.solver.mode = SolverMode::kCostScalingOnly;
    // Placement templates: recurring job shapes (the trace reuses a small
    // set of job type/priority/size combinations) install from cache at
    // admission, bypassing the solve pipeline — template_hit_rate below is
    // gated >= 0.5 in check.sh.
    scheduler_options.enable_templates = true;
    FirmamentScheduler scheduler(&cluster, &policy, scheduler_options);

    WallServiceClock clock(time_scale);
    SchedulerServiceOptions service_options;
    service_options.pipeline = true;
    service_options.admission.queue_shards = 4;
    service_options.admission.max_batch_tasks = 4096;
    service_options.admission.max_batch_latency_us = 0;
    service_options.machines_per_rack = params.machines_per_rack;
    SchedulerService service(&scheduler, &clock, service_options);

    RoundAgg agg;
    service.set_on_round([&agg, &scheduler](const SchedulerRoundResult& result) {
      ++agg.rounds;
      agg.update_us += result.graph_update_us;
      agg.solve_us += result.algorithm_runtime_us;
      agg.apply_us += result.total_runtime_us;
      agg.staged_replay_us += result.staged_replay_us;
      if (result.solver_stats.view_prep == FlowNetworkView::PrepareResult::kPatched) {
        ++agg.patched;
      }
      const UpdateRoundStats& update = scheduler.graph_manager().last_update_stats();
      agg.class_hits += update.class_cache_hits;
      agg.class_misses += update.class_cache_misses;
    });

    TraceReplayOptions replay_options;
    replay_options.time_scale = time_scale;
    replay_options.slots_at_full_capacity = params.workload.slots_per_machine;
    replay_options.max_drain_wall_ms = 60'000;
    TraceReplayDriver driver(&service, replay_options);

    TraceTableReader machine_reader(TraceTable::kMachineEvents, files.machine_csv);
    TraceTableReader task_reader(TraceTable::kTaskEvents, files.task_csv);
    MergedTraceStream stream({&machine_reader, &task_reader});

    auto wall_start = std::chrono::steady_clock::now();
    service.Start();
    TraceReplayReport report =
        driver.Replay([&stream](TraceEvent* event) { return stream.Next(event); });
    service.Stop();
    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

    ServiceCounters counters = service.counters();
    Distribution latency = service.submit_to_placement_latency();
    Distribution wall_latency = service.submit_to_placement_wall_latency();
    TraceParseStats parse = stream.stats();

    // The acceptance flag: nothing dropped on parse, every consumed event in
    // exactly one report bucket, the drain converged, and every admitted
    // task received a placement.
    bool complete = parse.dropped() == 0 &&
                    parse.events == report.events_consumed &&
                    report.accounted() == report.events_consumed &&
                    !report.drain_timed_out &&
                    counters.pending_first_placements == 0 &&
                    counters.tasks_placed == counters.tasks_admitted;

    state.SetIterationTime(std::max(1e-9, wall_seconds));
    state.counters["machines"] = static_cast<double>(machines);
    state.counters["trace_s"] = static_cast<double>(params.horizon) / kSec;
    state.counters["lineages"] = static_cast<double>(files.counts.lineages);
    state.counters["events"] = static_cast<double>(report.events_consumed);
    state.counters["file_mb"] = static_cast<double>(files.bytes) / 1e6;
    state.counters["placed"] = static_cast<double>(counters.tasks_placed);
    state.counters["completed"] = static_cast<double>(report.completions_delivered);
    state.counters["kills"] = static_cast<double>(report.kills + report.redundant_kills);
    state.counters["resubmitted"] = static_cast<double>(report.tasks_resubmitted);
    if (!latency.empty()) {
      // Trace-time seconds (wall latency x time_scale).
      state.counters["p50_s"] = latency.Median();
      state.counters["p99_s"] = latency.Percentile(0.99);
    }
    if (!wall_latency.empty()) {
      // Raw wall-clock submit-to-placement (immune to the trace time scale):
      // template installs land in microseconds, solver rounds in the
      // round-cadence tail.
      state.counters["wall_p50_ms"] = wall_latency.Median() * 1e3;
      state.counters["wall_p99_ms"] = wall_latency.Percentile(0.99) * 1e3;
    }
    state.counters["template_hits"] = static_cast<double>(counters.template_hits);
    state.counters["template_misses"] = static_cast<double>(counters.template_misses);
    state.counters["template_validation_failures"] =
        static_cast<double>(counters.template_validation_failures);
    state.counters["template_hit_rate"] =
        static_cast<double>(counters.template_hits) /
        std::max<double>(1.0, static_cast<double>(counters.template_hits +
                                                  counters.template_misses));
    state.counters["rounds"] = static_cast<double>(agg.rounds);
    double rounds = std::max<double>(1.0, static_cast<double>(agg.rounds));
    state.counters["update_ms"] = static_cast<double>(agg.update_us) / 1e3 / rounds;
    state.counters["solve_ms"] = static_cast<double>(agg.solve_us) / 1e3 / rounds;
    state.counters["apply_ms"] = static_cast<double>(agg.apply_us) / 1e3 / rounds;
    state.counters["staged_replay_ms"] =
        static_cast<double>(agg.staged_replay_us) / 1e3 / rounds;
    state.counters["class_cache_hit_rate"] =
        static_cast<double>(agg.class_hits) /
        std::max<double>(1.0, static_cast<double>(agg.class_hits + agg.class_misses));
    state.counters["view_patched_share"] =
        static_cast<double>(agg.patched) / rounds;
    state.counters["parse_buffer_kb"] =
        static_cast<double>(parse.max_buffered_bytes) / 1e3;
    state.counters["live_lineages"] = static_cast<double>(driver.live_lineages());
    state.counters["replay_complete"] = complete ? 1.0 : 0.0;
  }

  RemoveTrace(files);
}

// --- Series 2: parser throughput -------------------------------------------

void ParseThroughput(benchmark::State& state) {
  SyntheticTraceParams params =
      BenchTraceParams(bench::Scaled(1000, 10'000));
  TraceFiles files = WriteTrace(params);

  for (auto _ : state) {
    TraceTableReader machine_reader(TraceTable::kMachineEvents, files.machine_csv);
    TraceTableReader task_reader(TraceTable::kTaskEvents, files.task_csv);
    MergedTraceStream stream({&machine_reader, &task_reader});

    auto wall_start = std::chrono::steady_clock::now();
    uint64_t events = 0;
    TraceEvent event;
    while (stream.Next(&event)) {
      benchmark::DoNotOptimize(event.time);
      ++events;
    }
    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

    TraceParseStats parse = stream.stats();
    state.SetIterationTime(std::max(1e-9, wall_seconds));
    state.counters["events"] = static_cast<double>(events);
    state.counters["events_per_sec"] =
        static_cast<double>(events) / std::max(1e-9, wall_seconds);
    state.counters["mb_per_sec"] =
        static_cast<double>(parse.bytes) / 1e6 / std::max(1e-9, wall_seconds);
    state.counters["dropped"] = static_cast<double>(parse.dropped());
    state.counters["max_buffered_kb"] =
        static_cast<double>(parse.max_buffered_bytes) / 1e3;
  }

  RemoveTrace(files);
}

}  // namespace
}  // namespace firmament

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  firmament::bench::PrintFigureHeader(
      "Figure 21",
      "end-to-end trace replay: CSV ingest -> streaming parse -> service (extension)");
  const int machines = firmament::bench::Scaled(1000, 10'000);
  benchmark::RegisterBenchmark(
      ("fig21/replay/machines:" + std::to_string(machines)).c_str(),
      firmament::TraceReplay)
      ->Arg(machines)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig21/parse_throughput", firmament::ParseThroughput)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  firmament::bench::RunBenchmarksWithJson("fig21_trace_replay");
  benchmark::Shutdown();
  return 0;
}
