#include "src/trace/trace_replay_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "src/base/check.h"
#include "src/trace/synthetic_trace.h"

namespace firmament {

namespace {
constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
// Cap a single wall sleep so the driver stays responsive to feedback that
// lands while it waits for a far-off event.
constexpr auto kMaxSleep = std::chrono::milliseconds(1);
constexpr auto kDrainPoll = std::chrono::milliseconds(1);
}  // namespace

TraceReplayDriver::TraceReplayDriver(SchedulerService* service, TraceReplayOptions options)
    : service_(service),
      options_(options),
      feedback_(options.backoff_base_us, options.backoff_cap_us) {
  CHECK_GT(options_.time_scale, 0.0);
  CHECK_GT(options_.slots_at_full_capacity, 0);
  service_->set_on_admitted(
      [this](uint64_t seq, JobId job, const std::vector<TaskId>& tasks) {
        OnAdmitted(seq, job, tasks);
      });
  service_->set_on_placed(
      [this](TaskId task, MachineId machine, SimTime now) { OnPlaced(task, machine, now); });
}

size_t TraceReplayDriver::live_lineages() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return lineages_.size();
}

void TraceReplayDriver::OnAdmitted(uint64_t seq, JobId job,
                                   const std::vector<TaskId>& tasks) {
  (void)job;
  std::unique_lock<std::mutex> lock(mutex_);
  // SubmitLineages parks the keys under the lock it holds across Submit(),
  // so the seq is always here by the time the loop admits the batch.
  auto it = pending_admissions_.find(seq);
  CHECK(it != pending_admissions_.end());
  const std::vector<uint64_t>& keys = it->second;
  CHECK_EQ(keys.size(), tasks.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto lineage = lineages_.find(keys[i]);
    if (lineage == lineages_.end()) {
      continue;
    }
    lineage->second.task = tasks[i];
    lineage->second.phase = Phase::kWaiting;
    task_to_key_[tasks[i]] = keys[i];
  }
  pending_admissions_.erase(it);
}

void TraceReplayDriver::OnPlaced(TaskId task, MachineId machine, SimTime now) {
  (void)machine;
  std::unique_lock<std::mutex> lock(mutex_);
  auto key_it = task_to_key_.find(task);
  if (key_it == task_to_key_.end()) {
    return;
  }
  auto it = lineages_.find(key_it->second);
  if (it == lineages_.end()) {
    return;
  }
  Lineage& lineage = it->second;
  if (lineage.phase == Phase::kRunning) {
    return;  // re-placement after eviction; everything already tracked
  }
  ActivatePlacementLocked(key_it->second, lineage, now);
}

void TraceReplayDriver::ActivatePlacementLocked(uint64_t key, Lineage& lineage,
                                                SimTime now) {
  lineage.phase = Phase::kRunning;
  ReplayFeedback::TaskInfo info;
  info.input_bytes = lineage.input_bytes;
  info.bandwidth_mbps = lineage.bandwidth_mbps;
  info.attempts = lineage.attempts;
  info.tag = key;
  feedback_.OnPlaced(lineage.task, info);
  if (lineage.pending_kill) {
    // The trace killed this lineage before we managed to place it; the
    // teardown had to wait for the placement (completing a waiting task is
    // an ignored no-op), so execute it now.
    lineage.pending_kill = false;
    CHECK_GT(drain_obligations_, 0u);
    --drain_obligations_;
    KillPlacedLocked(key, lineage, now);
    return;
  }
  if (lineage.has_pending_finish) {
    // Trace finish instant, clamped to the placement we actually achieved.
    lineage.has_pending_finish = false;
    CHECK_GT(drain_obligations_, 0u);
    --drain_obligations_;
    lineage.completion_scheduled = true;
    feedback_.ScheduleCompletion(lineage.task, std::max(now, lineage.pending_finish));
  }
}

void TraceReplayDriver::KillPlacedLocked(uint64_t key, Lineage& lineage, SimTime now) {
  ReplayFeedback::TaskInfo info;
  if (!feedback_.Kill(lineage.task, &info)) {
    info.input_bytes = lineage.input_bytes;
    info.bandwidth_mbps = lineage.bandwidth_mbps;
    info.attempts = lineage.attempts;
    info.tag = key;
  }
  service_->Complete(lineage.task);
  task_to_key_.erase(lineage.task);
  lineage.task = kInvalidTaskId;
  lineage.phase = Phase::kBackoff;
  lineage.completion_scheduled = false;
  ++lineage.attempts;
  feedback_.QueueResubmit(now, info);
}

void TraceReplayDriver::SubmitLineages(JobType type, int32_t priority,
                                       std::vector<TaskDescriptor> tasks,
                                       std::vector<uint64_t> keys) {
  // Submit() only enqueues, so holding the lock across it is safe, and it
  // keeps OnAdmitted from running before the keys are parked.
  std::unique_lock<std::mutex> lock(mutex_);
  uint64_t seq = service_->Submit(type, priority, std::move(tasks));
  pending_admissions_.emplace(seq, std::move(keys));
}

void TraceReplayDriver::FlushSubmitBatch() {
  if (!batch_.active) {
    return;
  }
  batch_.active = false;
  SubmitLineages(batch_.type, batch_.priority, std::move(batch_.tasks),
                 std::move(batch_.keys));
  batch_.tasks.clear();
  batch_.keys.clear();
}

void TraceReplayDriver::HandleTaskEvent(const TraceEvent& event) {
  const uint64_t key = Key(event.job_id, event.task_index);
  switch (event.code) {
    case kTaskSubmit: {
      TaskDescriptor task;
      task.input_size_bytes =
          static_cast<int64_t>(event.ram_request * kTraceFullMachineInputBytes);
      task.bandwidth_request_mbps =
          static_cast<int64_t>(event.cpu_request * kTraceFullMachineBandwidthMbps);
      bool fresh = false;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (lineages_.find(key) == lineages_.end()) {
          Lineage lineage;
          lineage.type = event.scheduling_class >= 3 ? JobType::kService : JobType::kBatch;
          lineage.priority = event.priority;
          lineage.input_bytes = task.input_size_bytes;
          lineage.bandwidth_mbps = task.bandwidth_request_mbps;
          lineages_.emplace(key, lineage);
          fresh = true;
        }
      }
      if (!fresh) {
        ++report_.duplicate_submits;
        return;
      }
      ++report_.submits;
      if (batch_.active &&
          (batch_.job_id != event.job_id || batch_.time != event.time)) {
        FlushSubmitBatch();
      }
      if (!batch_.active) {
        batch_.active = true;
        batch_.job_id = event.job_id;
        batch_.time = event.time;
        batch_.type = event.scheduling_class >= 3 ? JobType::kService : JobType::kBatch;
        batch_.priority = event.priority;
      }
      batch_.tasks.push_back(task);
      batch_.keys.push_back(key);
      return;
    }
    case kTaskSchedule:
      ++report_.schedule_rows_ignored;
      return;
    case kTaskUpdatePending:
    case kTaskUpdateRunning:
      ++report_.task_updates_ignored;
      return;
    case kTaskFinish: {
      FlushSubmitBatch();
      std::unique_lock<std::mutex> lock(mutex_);
      auto it = lineages_.find(key);
      if (it == lineages_.end()) {
        ++report_.unknown_lineage_rows;
        return;
      }
      Lineage& lineage = it->second;
      ++report_.finishes_recorded;
      if (lineage.phase == Phase::kRunning && !lineage.completion_scheduled) {
        lineage.completion_scheduled = true;
        feedback_.ScheduleCompletion(lineage.task, event.time);
      } else if (lineage.phase != Phase::kRunning && !lineage.has_pending_finish) {
        lineage.has_pending_finish = true;
        lineage.pending_finish = event.time;
        ++drain_obligations_;
      }
      return;
    }
    case kTaskEvict:
    case kTaskFail:
    case kTaskKill:
    case kTaskLost: {
      FlushSubmitBatch();
      std::unique_lock<std::mutex> lock(mutex_);
      auto it = lineages_.find(key);
      if (it == lineages_.end()) {
        ++report_.unknown_lineage_rows;
        return;
      }
      Lineage& lineage = it->second;
      switch (lineage.phase) {
        case Phase::kRunning:
          ++report_.kills;
          KillPlacedLocked(key, lineage, event.time);
          break;
        case Phase::kQueued:
        case Phase::kWaiting:
          if (lineage.pending_kill) {
            // A second kill before we even placed the lineage: the pending
            // teardown already covers it — one kill cycle, one resubmit.
            ++report_.redundant_kills;
            ++lineage.attempts;
            break;
          }
          ++report_.kills;
          lineage.pending_kill = true;
          ++drain_obligations_;
          break;
        case Phase::kBackoff:
          // Already waiting out a backoff; mirror the emitter's attempt
          // bump so backoff exponents stay aligned.
          ++report_.redundant_kills;
          ++lineage.attempts;
          break;
      }
      return;
    }
    default:
      // Unreachable: the parser counts unknown codes and never emits them.
      ++report_.unknown_lineage_rows;
      return;
  }
}

void TraceReplayDriver::HandleMachineEvent(const TraceEvent& event) {
  switch (event.code) {
    case kMachineAdd: {
      if (machines_.count(event.machine_id) != 0) {
        ++report_.duplicate_machine_adds;
        return;
      }
      MachineSpec spec;
      spec.slots = std::max(
          1, static_cast<int32_t>(std::lround(
                 event.cpu_capacity * options_.slots_at_full_capacity)));
      spec.nic_bandwidth_mbps = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 event.cpu_capacity * kTraceFullMachineBandwidthMbps)));
      // Blocks until the loop mints the id; racks are service-managed (the
      // trace has no topology).
      MachineId id = service_->AddMachine(kInvalidRackId, spec);
      machines_.emplace(event.machine_id, id);
      ++report_.machine_adds;
      return;
    }
    case kMachineRemove: {
      auto it = machines_.find(event.machine_id);
      if (it == machines_.end()) {
        ++report_.unknown_machine_removes;
        return;
      }
      service_->RemoveMachine(it->second);
      machines_.erase(it);
      ++report_.machine_removes;
      return;
    }
    case kMachineUpdate:
    default:
      ++report_.machine_updates_ignored;
      return;
  }
}

void TraceReplayDriver::SleepUntil(SimTime target) {
  for (;;) {
    SimTime now = service_->clock().Now();
    if (now >= target) {
      return;
    }
    auto wall = std::chrono::microseconds(std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(target - now) / options_.time_scale)));
    std::this_thread::sleep_for(std::min<std::chrono::microseconds>(wall, kMaxSleep));
  }
}

size_t TraceReplayDriver::DeliverDue(SimTime upto) {
  size_t delivered = 0;
  for (;;) {
    TaskId task = kInvalidTaskId;
    if (feedback_.PopDueCompletion(upto, &task)) {
      service_->Complete(task);
      ++report_.completions_delivered;
      ++delivered;
      std::unique_lock<std::mutex> lock(mutex_);
      auto key_it = task_to_key_.find(task);
      if (key_it != task_to_key_.end()) {
        lineages_.erase(key_it->second);
        task_to_key_.erase(key_it);
      }
      continue;
    }
    ReplayFeedback::TaskInfo info;
    if (feedback_.PopDueResubmit(upto, &info)) {
      std::vector<TaskDescriptor> tasks(1);
      JobType type = JobType::kBatch;
      int32_t priority = 0;
      bool live = false;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        auto it = lineages_.find(info.tag);
        if (it != lineages_.end() && it->second.phase == Phase::kBackoff) {
          Lineage& lineage = it->second;
          lineage.attempts = std::max(lineage.attempts, info.attempts);
          lineage.phase = Phase::kQueued;
          tasks[0].input_size_bytes = lineage.input_bytes;
          tasks[0].bandwidth_request_mbps = lineage.bandwidth_mbps;
          type = lineage.type;
          priority = lineage.priority;
          live = true;
        }
      }
      if (live) {
        SubmitLineages(type, priority, std::move(tasks), {info.tag});
        ++report_.tasks_resubmitted;
      }
      ++delivered;
      continue;
    }
    return delivered;
  }
}

bool TraceReplayDriver::DrainWorkRemains() {
  if (feedback_.NextCompletionDue() != ReplayFeedback::kNoDue) {
    return true;
  }
  if (feedback_.NextResubmitDue() != ReplayFeedback::kNoDue) {
    return true;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  return !pending_admissions_.empty() || drain_obligations_ > 0;
}

TraceReplayReport TraceReplayDriver::Replay(const std::function<bool(TraceEvent*)>& next) {
  TraceEvent event;
  while (next(&event)) {
    ++report_.events_consumed;
    if (options_.horizon > 0 && event.time > options_.horizon) {
      FlushSubmitBatch();
      ++report_.beyond_horizon;
      continue;  // keep consuming so every event is accounted for
    }
    // Deliver feedback that comes due before this event's instant.
    for (;;) {
      SimTime due =
          std::min(feedback_.NextCompletionDue(), feedback_.NextResubmitDue());
      if (due > event.time) {
        break;
      }
      FlushSubmitBatch();
      SleepUntil(due);
      DeliverDue(due);
    }
    SleepUntil(event.time);
    if (event.table == TraceTable::kMachineEvents) {
      FlushSubmitBatch();
      HandleMachineEvent(event);
    } else {
      HandleTaskEvent(event);
    }
  }
  FlushSubmitBatch();

  // Drain in-flight chains (kill -> backoff -> resubmit -> admit -> place ->
  // complete); trace pacing no longer applies. Lineages that will never
  // complete (no finish row inside the window) are not waited for.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(options_.max_drain_wall_ms);
  while (DrainWorkRemains()) {
    DeliverDue(kMax);
    if (std::chrono::steady_clock::now() > deadline) {
      report_.drain_timed_out = true;
      break;
    }
    std::this_thread::sleep_for(kDrainPoll);
  }
  return report_;
}

}  // namespace firmament
