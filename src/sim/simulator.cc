#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace firmament {

ClusterSimulator::ClusterSimulator(FirmamentScheduler* scheduler, ClusterState* cluster,
                                   BlockStore* block_store, SimulatorParams params)
    : scheduler_(scheduler), cluster_(cluster), block_store_(block_store), params_(params) {}

void ClusterSimulator::LoadTrace(std::vector<TraceJobSpec> jobs) {
  trace_ = std::move(jobs);
  for (size_t i = 0; i < trace_.size(); ++i) {
    Push(trace_[i].arrival, EventKind::kJobArrival, i);
  }
}

void ClusterSimulator::Push(SimTime time, EventKind kind, uint64_t payload, uint64_t epoch) {
  Event event;
  event.time = time;
  event.kind = kind;
  event.seq = next_seq_++;
  event.payload = payload;
  event.epoch = epoch;
  events_.push(event);
}

void ClusterSimulator::HandleJobArrival(size_t job_index) {
  const SimTime now = clock_.Now();
  const TraceJobSpec& spec = trace_[job_index];
  std::vector<TaskDescriptor> tasks(spec.task_runtimes.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].runtime = spec.task_runtimes[i];
    tasks[i].input_size_bytes = spec.task_input_bytes[i];
    tasks[i].bandwidth_request_mbps = spec.task_bandwidth_mbps[i];
    if (block_store_ != nullptr && spec.task_input_bytes[i] > 0) {
      tasks[i].input_blocks = block_store_->AllocateInput(spec.task_input_bytes[i]);
    }
  }
  TemplateInstallResult install;
  JobId job = scheduler_->SubmitJob(spec.type, spec.priority, std::move(tasks), now, &install);
  JobTracking tracking;
  tracking.submit = now;
  tracking.remaining = spec.task_runtimes.size();
  tracking.type = spec.type;
  job_tracking_.emplace(job, tracking);
  if (install.installed) {
    // Template hit: the job is already placed — consume the install deltas
    // the way HandleApplyRound consumes a round's, so the tasks run to
    // completion. No round work is created for this job.
    for (const SchedulingDelta& delta : install.deltas) {
      CHECK(delta.kind == SchedulingDelta::Kind::kPlace);
      uint64_t epoch = ++placement_epoch_[delta.task];
      Push(now + cluster_->task(delta.task).runtime, EventKind::kTaskCompletion, delta.task,
           epoch);
      ++metrics_.tasks_placed;
    }
    return;
  }
  pending_work_ = true;
}

void ClusterSimulator::HandleCompletion(TaskId task, uint64_t epoch) {
  const SimTime now = clock_.Now();
  auto it = placement_epoch_.find(task);
  if (it == placement_epoch_.end() || it->second != epoch) {
    return;  // stale: the task was preempted or migrated since this was set
  }
  const TaskDescriptor& desc = cluster_->task(task);
  CHECK(desc.state == TaskState::kRunning);
  JobId job = desc.job;
  SimTime submit = job_tracking_[job].submit;
  metrics_.batch_task_response_seconds.Add(static_cast<double>(now - submit) / 1e6);
  scheduler_->CompleteTask(task, now);
  placement_epoch_.erase(it);
  ++metrics_.tasks_completed;

  JobTracking& tracking = job_tracking_[job];
  CHECK_GT(tracking.remaining, 0u);
  if (--tracking.remaining == 0 && tracking.type == JobType::kBatch) {
    metrics_.batch_job_response_seconds.Add(static_cast<double>(now - tracking.submit) / 1e6);
    job_tracking_.erase(job);
  }
  pending_work_ = true;
}

void ClusterSimulator::HandleApplyRound() {
  const SimTime now = clock_.Now();
  SchedulerRoundResult result = scheduler_->ApplyRound(now);
  for (const SchedulingDelta& delta : result.deltas) {
    switch (delta.kind) {
      case SchedulingDelta::Kind::kPlace:
      case SchedulingDelta::Kind::kMigrate: {
        uint64_t epoch = ++placement_epoch_[delta.task];
        // Migration restarts the task (conservative: the moved task redoes
        // its work, as a preempted-and-restarted batch task would).
        Push(now + cluster_->task(delta.task).runtime, EventKind::kTaskCompletion, delta.task,
             epoch);
        break;
      }
      case SchedulingDelta::Kind::kPreempt:
        ++placement_epoch_[delta.task];  // invalidate any pending completion
        break;
    }
  }
  metrics_.tasks_placed += result.tasks_placed;
  metrics_.tasks_preempted += result.tasks_preempted;
  metrics_.tasks_migrated += result.tasks_migrated;
  metrics_.graph_update_seconds.Add(static_cast<double>(result.graph_update_us) / 1e6);

  RoundLogEntry entry;
  entry.start = round_start_time_;
  entry.solve_seconds = static_cast<double>(result.algorithm_runtime_us) / 1e6;
  entry.winner = result.solver_stats.algorithm;
  entry.placed = result.tasks_placed;
  entry.preempted = result.tasks_preempted;
  metrics_.round_log.push_back(entry);
  ++metrics_.rounds;

  solver_busy_ = false;
  if (result.tasks_preempted > 0) {
    pending_work_ = true;  // preempted tasks want re-placement
  }
  MaybeStartRound();
}

void ClusterSimulator::MaybeStartRound() {
  const SimTime now = clock_.Now();
  if (solver_busy_ || !pending_work_) {
    return;
  }
  if (params_.min_round_interval > 0 && any_round_started_ &&
      now < last_round_start_ + params_.min_round_interval) {
    if (!timer_scheduled_) {
      timer_scheduled_ = true;
      Push(last_round_start_ + params_.min_round_interval, EventKind::kRoundTimer);
    }
    return;
  }
  pending_work_ = false;
  any_round_started_ = true;
  last_round_start_ = now;
  round_start_time_ = now;
  SolveStats stats = scheduler_->StartRound(now);
  SimTime charged = std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(stats.runtime_us) * params_.solver_charge_scale));
  solver_busy_ = true;
  Push(now + charged, EventKind::kApplyRound);
}

SimulationMetrics ClusterSimulator::Run() {
  while (!events_.empty()) {
    Event event = events_.top();
    events_.pop();
    if (event.time > params_.duration) {
      break;
    }
    clock_.AdvanceTo(event.time);
    switch (event.kind) {
      case EventKind::kJobArrival:
        HandleJobArrival(event.payload);
        MaybeStartRound();
        break;
      case EventKind::kTaskCompletion:
        HandleCompletion(static_cast<TaskId>(event.payload), event.epoch);
        MaybeStartRound();
        break;
      case EventKind::kApplyRound:
        HandleApplyRound();
        break;
      case EventKind::kRoundTimer:
        timer_scheduled_ = false;
        MaybeStartRound();
        break;
    }
  }
  metrics_.placement_latency_seconds = scheduler_->placement_latency();
  metrics_.algorithm_runtime_seconds = scheduler_->algorithm_runtime();
  return metrics_;
}

}  // namespace firmament
