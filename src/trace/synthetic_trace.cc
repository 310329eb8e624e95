#include "src/trace/synthetic_trace.h"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <utility>

#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/trace/trace_writer.h"

namespace firmament {

namespace {

constexpr SimTime kNone = std::numeric_limits<SimTime>::max();

// Lineage key: job ids are minted sequentially and task indices are bounded
// by max_job_tasks (20k default), so 24 bits of index is plenty.
uint64_t LineageKey(uint64_t job_id, uint32_t task_index) {
  return (job_id << 24) | task_index;
}

struct Lineage {
  SimTime runtime = 0;
  int attempts = 1;
  uint64_t generation = 0;  // bumped on kill; stale finish-heap entries skip
  TraceEvent submit;        // template carrying class/priority/requests
};

struct PendingFinish {
  SimTime time = 0;
  uint64_t key = 0;
  uint64_t generation = 0;
  bool operator>(const PendingFinish& other) const { return time > other.time; }
};

struct PendingAdd {
  SimTime time = 0;
  uint64_t machine = 0;
  bool operator>(const PendingAdd& other) const { return time > other.time; }
};

}  // namespace

SyntheticTraceEmitter::SyntheticTraceEmitter(SyntheticTraceParams params)
    : params_(std::move(params)) {
  CHECK_GT(params_.horizon, 0u);
  CHECK_GT(params_.machines_per_rack, 0);
}

std::vector<TraceEvent> SyntheticTraceEmitter::Emit() {
  counts_ = SyntheticTraceCounts{};
  std::vector<TraceEvent> events;

  // The generator and the injector own separate seeded streams, so the
  // workload and the fault timeline are independent of each other.
  TraceGenerator generator(params_.workload);
  std::vector<TraceJobSpec> jobs = generator.Generate(params_.horizon);
  FaultInjector injector(params_.faults);
  std::vector<FaultSpec> faults = injector.Schedule(params_.horizon);

  // Emitter-local randomness (late-add times, capacity mix) forks off the
  // workload seed so it never perturbs the generator/injector streams.
  Rng rng(params_.workload.seed ^ 0x7261636573ULL);

  // --- Machines: capacities, t=0 adds, late adds ---------------------------
  const int num_machines = params_.workload.num_machines;
  CHECK_GT(num_machines, 0);
  std::vector<double> cpu_capacity(static_cast<size_t>(num_machines) + 1, 1.0);
  std::vector<double> ram_capacity(static_cast<size_t>(num_machines) + 1, 1.0);
  std::priority_queue<PendingAdd, std::vector<PendingAdd>, std::greater<>> pending_adds;
  std::vector<uint64_t> alive;  // sorted machine ids, adds/removes keep order
  alive.reserve(static_cast<size_t>(num_machines));
  int late = static_cast<int>(static_cast<double>(num_machines) *
                              params_.late_machine_fraction);
  for (int m = 1; m <= num_machines; ++m) {
    // The published trace has a few machine platform classes; mirror that
    // with a small deterministic capacity mix.
    if (m % 4 == 0) {
      cpu_capacity[static_cast<size_t>(m)] = 0.5;
      ram_capacity[static_cast<size_t>(m)] = 0.5;
    }
    if (m > num_machines - late) {
      SimTime when = 1 + rng.NextUint64(params_.horizon / 2);
      pending_adds.push(PendingAdd{when, static_cast<uint64_t>(m)});
    } else {
      pending_adds.push(PendingAdd{0, static_cast<uint64_t>(m)});
    }
  }

  auto emit_machine = [&](SimTime time, uint64_t machine, int32_t code) {
    TraceEvent event;
    event.time = time;
    event.table = TraceTable::kMachineEvents;
    event.code = code;
    event.machine_id = machine;
    event.cpu_capacity = cpu_capacity[machine];
    event.ram_capacity = ram_capacity[machine];
    events.push_back(event);
  };

  // A sprinkling of UPDATE rows mid-stream (recognized, not replayed).
  for (int m = 1; m <= num_machines; m += 97) {
    emit_machine(params_.horizon / 2, static_cast<uint64_t>(m), kMachineUpdate);
  }

  // --- Event walk: adds, finishes, arrivals, faults in time order ----------
  std::map<uint64_t, Lineage> live;  // ordered => deterministic victim picks
  std::priority_queue<PendingFinish, std::vector<PendingFinish>, std::greater<>>
      finish_heap;
  size_t job_index = 0;
  size_t fault_index = 0;
  uint64_t next_job_id = 1;
  uint64_t task_counter = 0;
  uint64_t kill_counter = 0;
  // Kill rows cycle through the four lineage-terminating codes so the
  // driver's kill-and-resubmit path sees every one of them.
  static constexpr int32_t kKillCodes[] = {kTaskEvict, kTaskFail, kTaskKill,
                                           kTaskLost};

  for (;;) {
    SimTime next_add = pending_adds.empty() ? kNone : pending_adds.top().time;
    SimTime next_finish = finish_heap.empty() ? kNone : finish_heap.top().time;
    SimTime next_job = job_index < jobs.size() ? jobs[job_index].arrival : kNone;
    SimTime next_fault = fault_index < faults.size() ? faults[fault_index].time : kNone;
    SimTime now = std::min(std::min(next_add, next_finish),
                           std::min(next_job, next_fault));
    if (now == kNone || now > params_.horizon) {
      break;
    }

    if (next_add == now) {
      PendingAdd add = pending_adds.top();
      pending_adds.pop();
      emit_machine(now, add.machine, kMachineAdd);
      ++counts_.machine_adds;
      alive.insert(std::lower_bound(alive.begin(), alive.end(), add.machine),
                   add.machine);
      continue;
    }

    if (next_finish == now) {
      PendingFinish finish = finish_heap.top();
      finish_heap.pop();
      auto it = live.find(finish.key);
      if (it == live.end() || it->second.generation != finish.generation) {
        continue;  // lineage was killed and re-timed since this was scheduled
      }
      TraceEvent event = it->second.submit;
      event.time = now;
      event.code = kTaskFinish;
      events.push_back(event);
      ++counts_.finishes;
      live.erase(it);
      continue;
    }

    if (next_job == now) {
      const TraceJobSpec& spec = jobs[job_index++];
      uint64_t job_id = next_job_id++;
      for (size_t i = 0; i < spec.task_runtimes.size(); ++i) {
        TraceEvent submit;
        submit.time = now;
        submit.table = TraceTable::kTaskEvents;
        submit.code = kTaskSubmit;
        submit.job_id = job_id;
        submit.task_index = static_cast<uint32_t>(i);
        submit.scheduling_class = spec.type == JobType::kService ? 3 : 0;
        submit.priority = spec.priority;
        submit.cpu_request = static_cast<double>(spec.task_bandwidth_mbps[i]) /
                             kTraceFullMachineBandwidthMbps;
        submit.ram_request = static_cast<double>(spec.task_input_bytes[i]) /
                             kTraceFullMachineInputBytes;
        events.push_back(submit);
        ++counts_.lineages;

        Lineage lineage;
        lineage.runtime = spec.task_runtimes[i];
        lineage.submit = submit;
        uint64_t key = LineageKey(job_id, submit.task_index);
        live.emplace(key, lineage);
        SimTime finish_time = now + lineage.runtime;
        if (finish_time >= now && finish_time <= params_.horizon) {
          finish_heap.push(PendingFinish{finish_time, key, 0});
        }

        if (params_.update_event_stride > 0 &&
            ++task_counter % static_cast<uint64_t>(params_.update_event_stride) == 0) {
          TraceEvent update = submit;
          update.time = now + kMicrosPerSecond;
          update.code = kTaskUpdatePending;
          if (update.time <= params_.horizon) {
            events.push_back(update);
          }
        }
      }
      continue;
    }

    // Fault.
    const FaultSpec& spec = faults[fault_index++];
    if (spec.kind == FaultKind::kTaskKill) {
      if (live.empty()) {
        continue;
      }
      size_t pick = injector.PickIndex(live.size());
      auto it = live.begin();
      std::advance(it, static_cast<long>(pick));
      Lineage& lineage = it->second;
      TraceEvent kill = lineage.submit;
      kill.time = now;
      kill.code = kKillCodes[kill_counter++ % 4];
      events.push_back(kill);
      ++counts_.kills;
      // The lineage survives: the replay driver resubmits it after the
      // shared capped backoff, so its (single) FINISH row is re-timed to
      // land after that resubmission completes a full run.
      ++lineage.attempts;
      ++lineage.generation;
      SimTime resubmit = now + CappedExponentialBackoff(params_.faults.backoff_base_us,
                                                        params_.faults.backoff_cap_us,
                                                        lineage.attempts - 1);
      SimTime finish_time = resubmit + lineage.runtime;
      if (finish_time >= resubmit && finish_time <= params_.horizon) {
        finish_heap.push(PendingFinish{finish_time, it->first, lineage.generation});
      }
      continue;
    }
    // Machine crash (possibly a rack storm). Keep a minimal cluster alive.
    if (alive.size() <= 2) {
      continue;
    }
    size_t index = injector.PickIndex(alive.size());
    uint64_t victim = alive[index];
    alive.erase(alive.begin() + static_cast<long>(index));
    emit_machine(now, victim, kMachineRemove);
    ++counts_.machine_removes;
    std::vector<uint64_t> casualties;
    if (injector.RollStorm()) {
      uint64_t rack = (victim - 1) / static_cast<uint64_t>(params_.machines_per_rack);
      std::vector<uint64_t> rackmates;
      for (uint64_t m : alive) {
        if ((m - 1) / static_cast<uint64_t>(params_.machines_per_rack) == rack) {
          rackmates.push_back(m);
        }
      }
      size_t storm_kills = static_cast<size_t>(
          static_cast<double>(rackmates.size()) * params_.faults.storm_rack_fraction);
      for (size_t i = 0; i < storm_kills && alive.size() > 2; ++i) {
        uint64_t casualty = rackmates[i];
        alive.erase(std::lower_bound(alive.begin(), alive.end(), casualty));
        emit_machine(now, casualty, kMachineRemove);
        ++counts_.machine_removes;
        casualties.push_back(casualty);
      }
    }
    casualties.push_back(victim);
    if (params_.machine_restart_us > 0) {
      SimTime restart = now + params_.machine_restart_us;
      if (restart <= params_.horizon) {
        for (uint64_t m : casualties) {
          pending_adds.push(PendingAdd{restart, m});
        }
      }
    }
  }

  std::stable_sort(events.begin(), events.end(), TraceEventOrder);
  for (const TraceEvent& event : events) {
    if (event.table == TraceTable::kMachineEvents) {
      ++counts_.machine_events;
    } else {
      ++counts_.task_events;
    }
  }
  return events;
}

SyntheticTraceCounts SyntheticTraceEmitter::WriteCsv(
    const std::string& machine_events_csv, const std::string& task_events_csv) {
  std::vector<TraceEvent> events = Emit();
  TraceWriter machine_writer(TraceTable::kMachineEvents, machine_events_csv);
  TraceWriter task_writer(TraceTable::kTaskEvents, task_events_csv);
  CHECK(machine_writer.ok());
  CHECK(task_writer.ok());
  for (const TraceEvent& event : events) {
    (event.table == TraceTable::kMachineEvents ? machine_writer : task_writer)
        .Write(event);
  }
  machine_writer.Close();
  task_writer.Close();
  return counts_;
}

}  // namespace firmament
