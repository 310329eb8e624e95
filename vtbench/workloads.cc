#include "vtbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "src/base/check.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/quincy_policy.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_writer.h"

namespace firmament {
namespace vtbench {

namespace {

constexpr SimTime kSec = kMicrosPerSecond;

void Mix(uint64_t* hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= 1099511628211ull;
  }
}

// Job-granular churn: every task of a job finishes at once, at the job's
// median finish, so one completion burst touches one job (one cell) and
// Little's law still holds for the per-task runtimes. A job whose median
// lies past the horizon keeps all its tasks running.
void MakeJobGranular(std::vector<TraceEvent>* events) {
  struct Job {
    std::vector<TraceEvent> submits;
    std::vector<SimTime> finishes;
  };
  std::map<uint64_t, Job> jobs;
  std::vector<TraceEvent> out;
  out.reserve(events->size());
  for (const TraceEvent& event : *events) {
    if (event.table == TraceTable::kTaskEvents && event.code == kTaskFinish) {
      jobs[event.job_id].finishes.push_back(event.time);
      continue;
    }
    if (event.table == TraceTable::kTaskEvents && event.code == kTaskSubmit) {
      jobs[event.job_id].submits.push_back(event);
    }
    out.push_back(event);
  }
  for (auto& [id, job] : jobs) {
    const size_t lineages = job.submits.size();
    if (job.finishes.size() * 2 <= lineages) continue;
    std::sort(job.finishes.begin(), job.finishes.end());
    for (TraceEvent finish : job.submits) {
      finish.time = job.finishes[lineages / 2];
      finish.code = kTaskFinish;
      out.push_back(finish);
    }
  }
  std::stable_sort(out.begin(), out.end(), TraceEventOrder);
  *events = std::move(out);
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double window_seconds,
                  WorkloadSpec* spec) {
  *spec = WorkloadSpec{};
  spec->name = name;
  SyntheticTraceParams& trace = spec->trace;
  trace.workload.seed = seed;
  trace.faults.seed = seed ^ 0x5eedfa17ULL;
  trace.workload.slots_per_machine = 12;
  trace.machines_per_rack = 48;
  spec->warmup_tick_us = 5 * kSec;
  spec->tick_us = kSec;
  if (name == "locality") {
    // Fig. 14 shape: Google-trace-shaped batch/service mix with heavy-tailed
    // job sizes on 800 machines, half full; a static topology (Quincy's
    // block replicas are allocated once, against the bootstrapped machines).
    trace.workload.num_machines = 800;
    trace.workload.tasks_per_machine = 6.0;
    trace.workload.max_job_tasks = 200;
    trace.late_machine_fraction = 0.0;
    trace.machine_restart_us = 0;
    spec->quincy = true;
    spec->warmup_us = 360 * kSec;
    spec->ticks_per_second = 150;
    spec->busy_threads = 3;
  } else if (name == "recurring") {
    // Fig. 21 shape: recurring job shapes with long runtimes, under machine
    // crashes, rack storms and task kill-and-resubmit.
    trace.workload.num_machines = 1000;
    trace.workload.tasks_per_machine = 5.0;
    trace.workload.service_task_fraction = 0.25;
    trace.workload.batch_runtime_log_mean = 4.8;
    trace.workload.batch_runtime_log_sigma = 1.0;
    trace.workload.max_job_tasks = 200;
    trace.faults.machine_crash_rate = 0.02;
    trace.faults.task_kill_rate = 0.5;
    trace.machine_restart_us = 120 * kSec;
    spec->templates = true;
    spec->warmup_us = 600 * kSec;
    spec->ticks_per_second = 150;
    spec->busy_threads = 3;
  } else if (name == "cells") {
    trace.workload.num_machines = 2000;
    trace.workload.tasks_per_machine = 5.0;
    trace.workload.max_job_tasks = 200;
    trace.late_machine_fraction = 0.0;
    trace.machine_restart_us = 0;
    spec->job_granular = true;
    spec->cells = 4;
    spec->warmup_us = 360 * kSec;
    spec->ticks_per_second = 150;
    spec->busy_threads = 4;
  } else {
    return false;
  }
  spec->window_ticks = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(window_seconds * spec->ticks_per_second)));
  // Trace rows run a minute past the window so the drain still sees
  // finishes and restarts.
  trace.horizon = spec->warmup_us + spec->window_ticks * spec->tick_us + 60 * kSec;
  return true;
}

void GenerateInputs(const WorkloadSpec& spec, const std::string& data_dir,
                    WorkloadInputs* inputs) {
  SyntheticTraceEmitter emitter(spec.trace);
  std::vector<TraceEvent> events = emitter.Emit();
  if (spec.job_granular) {
    MakeJobGranular(&events);
  }
  const std::string stem = data_dir + "/" + spec.name + "-" +
                           std::to_string(spec.trace.workload.seed);
  inputs->machine_csv = stem + "-machine_events.csv";
  inputs->task_csv = stem + "-task_events.csv";
  inputs->rows = events.size();
  inputs->machines = spec.trace.workload.num_machines;
  uint64_t hash = 1469598103934665603ull;
  {
    TraceWriter machine_writer(TraceTable::kMachineEvents, inputs->machine_csv);
    TraceWriter task_writer(TraceTable::kTaskEvents, inputs->task_csv);
    CHECK(machine_writer.ok());
    CHECK(task_writer.ok());
    for (const TraceEvent& event : events) {
      (event.table == TraceTable::kMachineEvents ? machine_writer : task_writer).Write(event);
      Mix(&hash, event.time);
      Mix(&hash, static_cast<uint64_t>(event.code));
      Mix(&hash, event.job_id);
      Mix(&hash, event.task_index);
      Mix(&hash, event.machine_id);
    }
  }
  inputs->trace_hash = hash;
  if (!spec.quincy) {
    return;
  }
  // The service mints racks of machines_per_rack and machine ids in ADD-row
  // order; the topology copy mints the same ids so replica placement and
  // rack lookups agree with the cluster the scheduler builds.
  inputs->topology = std::make_unique<ClusterState>();
  RackId rack = kInvalidRackId;
  int fill = spec.trace.machines_per_rack;
  for (const TraceEvent& event : events) {
    if (event.table != TraceTable::kMachineEvents || event.code != kMachineAdd) continue;
    CHECK_EQ(event.time, 0u);  // locality inputs assume a static topology
    if (fill == spec.trace.machines_per_rack) {
      rack = inputs->topology->AddRack();
      fill = 0;
    }
    ++fill;
    inputs->topology->AddMachine(rack, MachineSpec{});
  }
  inputs->store = std::make_unique<BlockStore>(inputs->topology.get(),
                                               spec.trace.workload.seed + 1);
  for (const TraceEvent& event : events) {
    if (event.table != TraceTable::kTaskEvents || event.code != kTaskSubmit) continue;
    const uint64_t key = (event.job_id << 24) | event.task_index;
    inputs->blocks[key] = inputs->store->AllocateInput(
        static_cast<int64_t>(event.ram_request * kTraceFullMachineInputBytes));
  }
}

void RemoveInputs(const WorkloadInputs& inputs) {
  std::remove(inputs.machine_csv.c_str());
  std::remove(inputs.task_csv.c_str());
}

std::unique_ptr<Stack> SetUp(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                             SolverMode solver) {
  const BenchClock::time_point start = BenchClock::now();
  auto stack = std::make_unique<Stack>();

  // trace: parse and merge both tables into the replay order.
  {
    TraceTableReader machines(TraceTable::kMachineEvents, inputs.machine_csv);
    TraceTableReader tasks(TraceTable::kTaskEvents, inputs.task_csv);
    MergedTraceStream stream({&machines, &tasks});
    stack->events.reserve(inputs.rows);
    TraceEvent event;
    while (stream.Next(&event)) {
      stack->events.push_back(event);
    }
    const TraceParseStats stats = stream.stats();
    stack->parse_clean = machines.ok() && tasks.ok() && stats.dropped() == 0 &&
                         stats.events == stack->events.size() &&
                         stack->events.size() == inputs.rows;
  }
  stack->parse_s = MillisSince(start, BenchClock::now()) / 1e3;

  FirmamentSchedulerOptions scheduler_options;
  scheduler_options.solver.mode = solver;
  scheduler_options.enable_templates = spec.templates;
  SchedulerServiceOptions service_options;
  service_options.pipeline = true;
  service_options.admission.queue_shards = 1;
  service_options.admission.max_batch_latency_us = 0;
  service_options.machines_per_rack = spec.trace.machines_per_rack;
  if (spec.cells >= 2) {
    service_options.cells = spec.cells;
    service_options.cell_policy_factory = [](ClusterState* cluster, uint32_t) {
      CellPolicyBundle bundle;
      bundle.policy = std::make_unique<LoadSpreadingPolicy>(cluster);
      return bundle;
    };
    service_options.federation.cell = scheduler_options;
    // One pool worker plus the calling thread: two cells in flight, each
    // racing two legs, fills the 4-thread budget.
    service_options.federation.threads = 1;
  } else {
    if (spec.quincy) {
      stack->policy = std::make_unique<QuincyPolicy>(&stack->cluster, inputs.store.get());
    } else {
      stack->policy = std::make_unique<LoadSpreadingPolicy>(&stack->cluster);
    }
    stack->scheduler = std::make_unique<FirmamentScheduler>(
        &stack->cluster, stack->policy.get(), scheduler_options);
  }
  stack->service = std::make_unique<SchedulerService>(stack->scheduler.get(), &stack->clock,
                                                      service_options);
  DriverOptions driver_options;
  driver_options.slots_at_full_capacity = spec.trace.workload.slots_per_machine;
  driver_options.backoff_base_us = spec.trace.faults.backoff_base_us;
  driver_options.backoff_cap_us = spec.trace.faults.backoff_cap_us;
  if (spec.quincy) {
    driver_options.input_blocks = &inputs.blocks;
  }
  stack->driver = std::make_unique<VirtualTimeDriver>(stack->service.get(), &stack->clock,
                                                      &stack->events, driver_options);
  // Bootstrap (the t=0 machine rows) and warm-up to steady occupancy; the
  // first tick's round is the cold first solve.
  stack->driver->RunTicks(spec.warmup_tick_us, spec.warmup_us / spec.warmup_tick_us);
  stack->driver->Settle();
  stack->setup_s = MillisSince(start, BenchClock::now()) / 1e3;
  return stack;
}

}  // namespace vtbench
}  // namespace firmament
