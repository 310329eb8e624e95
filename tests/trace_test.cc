// Trace-ingestion subsystem tests: the synthetic emitter, the streaming
// CSV parsers, and the end-to-end replay driver.
//
// The two load-bearing properties:
//  * round-trip fidelity — emit -> serialize -> parse reproduces the exact
//    event stream (bit-exact doubles, canonical order), with zero parse
//    drops, so the CI replay exercises precisely the emitted workload;
//  * zero event loss — the parser accounts every non-empty line in exactly
//    one counter (events + dropped == lines) and the replay driver accounts
//    every consumed event in exactly one report bucket, even on malformed,
//    truncated, or out-of-order input, without ever CHECK-aborting.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/service_clock.h"
#include "src/core/integrity_checker.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/scheduler.h"
#include "src/service/scheduler_service.h"
#include "src/trace/synthetic_trace.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_replay_driver.h"
#include "src/trace/trace_writer.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "firmament_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

SyntheticTraceParams SmallTraceParams() {
  SyntheticTraceParams params;
  params.workload.seed = 7;
  params.workload.num_machines = 16;
  params.workload.tasks_per_machine = 2.5;
  params.workload.max_job_tasks = 50;
  params.workload.service_task_fraction = 0.2;
  // Short batch runtimes (e^2 ~ 7s median) so plenty of FINISH rows land
  // inside the 30s window.
  params.workload.batch_runtime_log_mean = 2.0;
  params.workload.batch_runtime_log_sigma = 0.8;
  params.horizon = 30 * kSec;
  params.machines_per_rack = 4;
  params.late_machine_fraction = 0.15;
  params.machine_restart_us = 8 * kSec;
  params.update_event_stride = 5;
  return params;
}

// ---------------------------------------------------------------------------
// Round trip: emit -> serialize -> parse yields the identical event stream.
// ---------------------------------------------------------------------------

TEST(TraceRoundTripTest, EmitSerializeParseEqual) {
  SyntheticTraceParams params = SmallTraceParams();
  params.faults.machine_crash_rate = 0.08;
  params.faults.task_kill_rate = 0.3;

  SyntheticTraceEmitter emitter(params);
  std::vector<TraceEvent> expected = emitter.Emit();
  ASSERT_FALSE(expected.empty());
  // Determinism: a second emitter over the same params produces the same
  // stream (this is what makes the committed bench baseline meaningful).
  SyntheticTraceEmitter twin(params);
  std::vector<TraceEvent> again = twin.Emit();
  ASSERT_EQ(expected.size(), again.size());

  std::string machine_csv = TempPath("roundtrip_machine_events.csv");
  std::string task_csv = TempPath("roundtrip_task_events.csv");
  SyntheticTraceCounts counts = twin.WriteCsv(machine_csv, task_csv);
  EXPECT_EQ(counts.machine_events + counts.task_events, expected.size());
  EXPECT_GT(counts.kills, 0u);
  EXPECT_GT(counts.finishes, 0u);
  EXPECT_GT(counts.machine_removes, 0u);

  TraceTableReader machine_reader(TraceTable::kMachineEvents, machine_csv);
  TraceTableReader task_reader(TraceTable::kTaskEvents, task_csv);
  ASSERT_TRUE(machine_reader.ok());
  ASSERT_TRUE(task_reader.ok());
  MergedTraceStream stream({&machine_reader, &task_reader});

  std::vector<TraceEvent> actual;
  TraceEvent event;
  while (stream.Next(&event)) {
    actual.push_back(event);
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(actual[i].time, expected[i].time);
    EXPECT_EQ(actual[i].table, expected[i].table);
    EXPECT_EQ(actual[i].code, expected[i].code);
    EXPECT_EQ(actual[i].job_id, expected[i].job_id);
    EXPECT_EQ(actual[i].task_index, expected[i].task_index);
    EXPECT_EQ(actual[i].scheduling_class, expected[i].scheduling_class);
    EXPECT_EQ(actual[i].priority, expected[i].priority);
    EXPECT_EQ(actual[i].machine_id, expected[i].machine_id);
    // %.17g serialization round-trips doubles bit-exactly.
    EXPECT_EQ(actual[i].cpu_request, expected[i].cpu_request);
    EXPECT_EQ(actual[i].ram_request, expected[i].ram_request);
    EXPECT_EQ(actual[i].cpu_capacity, expected[i].cpu_capacity);
    EXPECT_EQ(actual[i].ram_capacity, expected[i].ram_capacity);
  }

  TraceParseStats stats = stream.stats();
  EXPECT_EQ(stats.events, expected.size());
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.lines, stats.events);

  std::remove(machine_csv.c_str());
  std::remove(task_csv.c_str());
}

// ---------------------------------------------------------------------------
// Parser robustness: every rejected line lands in exactly one counter and
// nothing aborts.
// ---------------------------------------------------------------------------

TEST(TraceParserTest, RobustnessCounters) {
  std::string path = TempPath("robustness_task_events.csv");
  // 8 non-empty lines: 3 good, 2 malformed, 1 unknown code, 1 out-of-order,
  // 1 truncated tail (no trailing newline). Plus one empty line (ignored).
  WriteFile(path,
            "100,,5,0,,0,user,1,2,0.5,0.25,,\n"
            "100,,5\n"                          // arity below required prefix
            "\n"                                // empty: skipped, not counted
            "abc,,5,1,,0,,,,,,,\n"              // unparseable timestamp
            "150,,5,1,,9,,,,,,,\n"              // unknown event code 9
            "50,,6,0,,0,,,,,,,\n"               // timestamp regression
            "200,,6,0,,4,,,,,,,\n"
            "250,,7,0,,0,,,,,,,\n"
            "260,,8,0,,0");                     // cut mid-write

  TraceTableReader reader(TraceTable::kTaskEvents, path);
  ASSERT_TRUE(reader.ok());
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.Next(&event)) {
    events.push_back(event);
  }
  const TraceParseStats& stats = reader.stats();
  EXPECT_EQ(events.size(), 3u);  // t=100, t=200, t=250
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.malformed_lines, 2u);
  EXPECT_EQ(stats.unknown_event_codes, 1u);
  EXPECT_EQ(stats.out_of_order_events, 1u);
  EXPECT_EQ(stats.truncated_tail_lines, 1u);
  // `lines` counts complete non-empty lines; the truncated tail is only
  // detectable at EOF and is accounted by its own counter.
  EXPECT_EQ(stats.lines, 7u);
  // Zero event loss: every complete line is accounted in exactly one
  // counter.
  EXPECT_EQ(stats.events + stats.malformed_lines + stats.unknown_event_codes +
                stats.out_of_order_events,
            stats.lines);

  // Field decoding of the first good line.
  EXPECT_EQ(events[0].time, 100u);
  EXPECT_EQ(events[0].job_id, 5u);
  EXPECT_EQ(events[0].code, kTaskSubmit);
  EXPECT_EQ(events[0].scheduling_class, 1);
  EXPECT_EQ(events[0].priority, 2);
  EXPECT_DOUBLE_EQ(events[0].cpu_request, 0.5);
  EXPECT_DOUBLE_EQ(events[0].ram_request, 0.25);

  std::remove(path.c_str());
}

TEST(TraceParserTest, TinyChunksMatchLargeChunksAndBoundBuffer) {
  std::string path = TempPath("tiny_chunk_task_events.csv");
  std::string content;
  for (int i = 0; i < 50; ++i) {
    content += std::to_string(100 + i) + ",,1," + std::to_string(i) +
               ",,0,,2,3,0.125,0.5,,\n";
  }
  WriteFile(path, content);

  TraceTableReader big(TraceTable::kTaskEvents, path);
  TraceTableReader tiny(TraceTable::kTaskEvents, path, /*chunk_bytes=*/3);
  TraceEvent a, b;
  for (;;) {
    bool more_big = big.Next(&a);
    bool more_tiny = tiny.Next(&b);
    ASSERT_EQ(more_big, more_tiny);
    if (!more_big) {
      break;
    }
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.task_index, b.task_index);
  }
  EXPECT_EQ(big.stats().events, 50u);
  EXPECT_EQ(tiny.stats().events, 50u);
  EXPECT_EQ(big.stats().bytes, tiny.stats().bytes);
  // The tiny reader's buffer high-water is bounded by chunk + one line, not
  // by file size — the O(chunk) streaming guarantee.
  size_t longest_line = 0;
  size_t line_start = 0;
  for (size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') {
      longest_line = std::max(longest_line, i - line_start);
      line_start = i + 1;
    }
  }
  EXPECT_LE(tiny.stats().max_buffered_bytes, longest_line + 3 + 1);
  EXPECT_LT(tiny.stats().max_buffered_bytes, content.size());

  std::remove(path.c_str());
}

TEST(TraceParserTest, MissingFileIsAnErrorNotACrash) {
  TraceTableReader reader(TraceTable::kTaskEvents, TempPath("does_not_exist.csv"));
  EXPECT_FALSE(reader.ok());
  TraceEvent event;
  EXPECT_FALSE(reader.Next(&event));
  EXPECT_EQ(reader.stats().lines, 0u);
}

TEST(TraceParserTest, MergedStreamOrdersMachineEventsFirstAtTies) {
  std::string machine_csv = TempPath("merge_machine_events.csv");
  std::string task_csv = TempPath("merge_task_events.csv");
  WriteFile(machine_csv,
            "100,1,0,,1,1\n"
            "200,2,0,,1,1\n");
  WriteFile(task_csv,
            "100,,1,0,,0,,,,,,,\n"
            "150,,2,0,,0,,,,,,,\n"
            "200,,3,0,,0,,,,,,,\n");

  TraceTableReader machine_reader(TraceTable::kMachineEvents, machine_csv);
  TraceTableReader task_reader(TraceTable::kTaskEvents, task_csv);
  MergedTraceStream stream({&machine_reader, &task_reader});
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (stream.Next(&event)) {
    events.push_back(event);
  }
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].table, TraceTable::kMachineEvents);  // t=100 machine first
  EXPECT_EQ(events[1].table, TraceTable::kTaskEvents);
  EXPECT_EQ(events[2].time, 150u);
  EXPECT_EQ(events[3].table, TraceTable::kMachineEvents);  // t=200 machine first
  EXPECT_EQ(events[4].table, TraceTable::kTaskEvents);

  std::remove(machine_csv.c_str());
  std::remove(task_csv.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end replay through the SchedulerService.
// ---------------------------------------------------------------------------

// Where RunSmallReplay's events come from: the emitter's CSV tables read
// back through the streaming parsers, or the emitter's in-memory event
// vector handed to the driver directly.
enum class ReplaySource { kCsv, kEmitted };

struct ReplayRun {
  TraceReplayReport report;
  ServiceCounters counters;
  SyntheticTraceCounts trace;
  TraceParseStats parse;  // zero for kEmitted (nothing parsed)
  uint64_t source_events = 0;  // events the source handed to the driver
  size_t live_lineages = 0;
  // End state after Stop(): running tasks left on dead machines, and the
  // cross-layer integrity audit.
  size_t running_on_dead_machines = 0;
  IntegrityReport integrity;
};

ReplayRun RunSmallReplay(const SyntheticTraceParams& params, const std::string& tag,
                         ReplaySource source = ReplaySource::kCsv) {
  std::string machine_csv = TempPath(tag + "_machine_events.csv");
  std::string task_csv = TempPath(tag + "_task_events.csv");
  SyntheticTraceEmitter emitter(params);
  ReplayRun run;
  std::vector<TraceEvent> emitted;
  if (source == ReplaySource::kCsv) {
    run.trace = emitter.WriteCsv(machine_csv, task_csv);
  } else {
    emitted = emitter.Emit();
    run.trace = emitter.counts();
  }

  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentSchedulerOptions scheduler_options;
  scheduler_options.solver.mode = SolverMode::kCostScalingOnly;
  FirmamentScheduler scheduler(&cluster, &policy, scheduler_options);
  constexpr double kTimeScale = 20'000.0;  // trace-us per wall-us
  WallServiceClock clock(kTimeScale);
  SchedulerServiceOptions service_options;
  service_options.machines_per_rack = params.machines_per_rack;
  service_options.admission.max_batch_latency_us = 0;
  SchedulerService service(&scheduler, &clock, service_options);

  TraceReplayOptions replay_options;
  replay_options.time_scale = kTimeScale;
  replay_options.slots_at_full_capacity = 6;
  TraceReplayDriver driver(&service, replay_options);
  service.Start();

  if (source == ReplaySource::kCsv) {
    TraceTableReader machine_reader(TraceTable::kMachineEvents, machine_csv);
    TraceTableReader task_reader(TraceTable::kTaskEvents, task_csv);
    MergedTraceStream stream({&machine_reader, &task_reader});
    run.report = driver.Replay([&stream](TraceEvent* event) { return stream.Next(event); });
    run.parse = stream.stats();
    run.source_events = run.parse.events;
    std::remove(machine_csv.c_str());
    std::remove(task_csv.c_str());
  } else {
    run.report = driver.Replay([&emitted, &run](TraceEvent* event) {
      if (run.source_events == emitted.size()) {
        return false;
      }
      *event = emitted[run.source_events++];
      return true;
    });
  }
  service.Stop();
  run.counters = service.counters();
  run.live_lineages = driver.live_lineages();
  for (TaskId task : cluster.LiveTasks()) {
    const TaskDescriptor& desc = cluster.task(task);
    if (desc.state == TaskState::kRunning && !cluster.machine(desc.machine).alive) {
      ++run.running_on_dead_machines;
    }
  }
  run.integrity = IntegrityChecker(&cluster, &scheduler.graph_manager()).Check();
  return run;
}

void CheckReplayInvariants(const ReplayRun& run) {
  // Zero parse drops on a cleanly emitted trace, and zero event loss
  // through the driver: every consumed event is in exactly one bucket.
  EXPECT_EQ(run.parse.dropped(), 0u);
  EXPECT_EQ(run.source_events, run.report.events_consumed);
  EXPECT_EQ(run.report.events_consumed, run.trace.machine_events + run.trace.task_events);
  EXPECT_EQ(run.report.accounted(), run.report.events_consumed);
  EXPECT_FALSE(run.report.drain_timed_out);

  // The trace's rows map 1:1 onto driver buckets.
  EXPECT_EQ(run.report.submits, run.trace.lineages);
  EXPECT_EQ(run.report.duplicate_submits, 0u);
  EXPECT_EQ(run.report.unknown_lineage_rows, 0u);
  EXPECT_EQ(run.report.finishes_recorded, run.trace.finishes);
  EXPECT_EQ(run.report.kills + run.report.redundant_kills, run.trace.kills);
  EXPECT_EQ(run.report.machine_adds, run.trace.machine_adds);
  EXPECT_EQ(run.report.machine_removes, run.trace.machine_removes);
  EXPECT_EQ(run.report.beyond_horizon, 0u);

  // Every recorded finish delivered a completion; lineages that complete
  // are erased, so memory tracks live state only.
  EXPECT_EQ(run.report.completions_delivered, run.report.finishes_recorded);
  EXPECT_EQ(run.live_lineages,
            run.trace.lineages - run.report.completions_delivered);

  // Replay completeness at the service: every admitted task got its first
  // placement (Stop() runs rounds until no admission work remains).
  EXPECT_EQ(run.counters.pending_first_placements, 0u);
  EXPECT_EQ(run.counters.tasks_placed, run.counters.tasks_admitted);
  EXPECT_EQ(run.counters.tasks_admitted, run.counters.tasks_submitted);
}

TEST(TraceReplayTest, FaultFreeReplayPlacesAndCompletesEverything) {
  SyntheticTraceParams params = SmallTraceParams();
  ReplayRun run = RunSmallReplay(params, "replay_clean");
  CheckReplayInvariants(run);
  EXPECT_EQ(run.report.kills, 0u);
  EXPECT_EQ(run.report.tasks_resubmitted, 0u);
  EXPECT_EQ(run.report.machine_removes, 0u);
  EXPECT_GT(run.report.completions_delivered, 0u);
  EXPECT_GT(run.report.task_updates_ignored, 0u);
  // Only service tasks (no finish row inside the window) stay live.
  EXPECT_GT(run.live_lineages, 0u);
}

// Run from both sources: the in-memory walk over Emit() (fig20's open-loop
// feed) must satisfy the same accounting as the parsed CSV tables.
TEST(TraceReplayTest, FaultStormReplayStaysAccounted) {
  SyntheticTraceParams params = SmallTraceParams();
  params.faults.seed = 99;
  params.faults.machine_crash_rate = 0.08;
  params.faults.task_kill_rate = 0.3;
  params.faults.storm_probability = 0.5;
  for (ReplaySource source : {ReplaySource::kCsv, ReplaySource::kEmitted}) {
    SCOPED_TRACE(source == ReplaySource::kCsv ? "csv" : "emitted");
    ReplayRun run = RunSmallReplay(params, "replay_faults", source);
    CheckReplayInvariants(run);
    EXPECT_GT(run.trace.kills, 0u);
    EXPECT_GT(run.trace.machine_removes, 0u);
    // Kill-and-resubmit actually cycled: each non-redundant kill queues one
    // resubmission (delivered unless its lineage row never re-placed).
    EXPECT_GT(run.report.tasks_resubmitted, 0u);
    EXPECT_EQ(run.report.tasks_resubmitted, run.report.kills);
    // Coherent end state despite the crashes, storms and kills.
    EXPECT_EQ(run.running_on_dead_machines, 0u);
    EXPECT_TRUE(run.integrity.clean())
        << run.integrity.violations.size() << " violations, first: "
        << (run.integrity.violations.empty() ? "" : run.integrity.violations.front());
  }
}

TEST(TraceReplayTest, HorizonSkipsAndAccountsTailEvents) {
  SyntheticTraceParams params = SmallTraceParams();
  std::string machine_csv = TempPath("horizon_machine_events.csv");
  std::string task_csv = TempPath("horizon_task_events.csv");
  SyntheticTraceEmitter emitter(params);
  emitter.WriteCsv(machine_csv, task_csv);

  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentSchedulerOptions scheduler_options;
  scheduler_options.solver.mode = SolverMode::kCostScalingOnly;
  FirmamentScheduler scheduler(&cluster, &policy, scheduler_options);
  constexpr double kTimeScale = 20'000.0;
  WallServiceClock clock(kTimeScale);
  SchedulerServiceOptions service_options;
  service_options.machines_per_rack = params.machines_per_rack;
  SchedulerService service(&scheduler, &clock, service_options);

  TraceReplayOptions replay_options;
  replay_options.time_scale = kTimeScale;
  replay_options.slots_at_full_capacity = 6;
  replay_options.horizon = params.horizon / 2;
  TraceReplayDriver driver(&service, replay_options);
  service.Start();

  TraceTableReader machine_reader(TraceTable::kMachineEvents, machine_csv);
  TraceTableReader task_reader(TraceTable::kTaskEvents, task_csv);
  MergedTraceStream stream({&machine_reader, &task_reader});
  TraceReplayReport report =
      driver.Replay([&stream](TraceEvent* event) { return stream.Next(event); });
  service.Stop();

  EXPECT_GT(report.beyond_horizon, 0u);
  EXPECT_EQ(report.accounted(), report.events_consumed);
  EXPECT_FALSE(report.drain_timed_out);

  std::remove(machine_csv.c_str());
  std::remove(task_csv.c_str());
}

}  // namespace
}  // namespace firmament
