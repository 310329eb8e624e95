#include "src/core/cluster.h"

#include <algorithm>

namespace firmament {

RackId ClusterState::AddRack() {
  racks_.emplace_back();
  return static_cast<RackId>(racks_.size() - 1);
}

MachineId ClusterState::AddMachine(RackId rack, const MachineSpec& spec) {
  CHECK_LT(rack, racks_.size());
  MachineId id = static_cast<MachineId>(machines_.size());
  MachineDescriptor machine;
  machine.id = id;
  machine.rack = rack;
  machine.spec = spec;
  machines_.push_back(machine);
  racks_[rack].push_back(id);
  ++num_alive_machines_;
  return id;
}

bool ClusterState::RemoveMachine(MachineId machine) {
  if (machine >= machines_.size() || !machines_[machine].alive) {
    return false;  // unknown or already-dead machine: idempotent no-op
  }
  machines_[machine].alive = false;
  auto& rack = racks_[machines_[machine].rack];
  rack.erase(std::remove(rack.begin(), rack.end(), machine), rack.end());
  --num_alive_machines_;
  return true;
}

JobId ClusterState::SubmitJob(JobType type, int32_t priority, SimTime now) {
  JobId id = next_job_id_++;
  JobDescriptor job;
  job.id = id;
  job.type = type;
  job.priority = priority;
  job.submit_time = now;
  jobs_.emplace(id, std::move(job));
  return id;
}

TaskId ClusterState::AddTaskToJob(JobId job_id, TaskDescriptor task) {
  auto it = jobs_.find(job_id);
  CHECK(it != jobs_.end());
  TaskId id = next_task_id_++;
  task.id = id;
  task.job = job_id;
  it->second.tasks.push_back(id);
  if (task.state == TaskState::kWaiting) {
    ++num_waiting_tasks_;
  }
  tasks_.emplace(id, std::move(task));
  return id;
}

const JobDescriptor& ClusterState::job(JobId id) const {
  auto it = jobs_.find(id);
  CHECK(it != jobs_.end());
  return it->second;
}

const TaskDescriptor& ClusterState::task(TaskId id) const {
  auto it = tasks_.find(id);
  CHECK(it != tasks_.end());
  return it->second;
}

TaskDescriptor& ClusterState::mutable_task(TaskId id) {
  auto it = tasks_.find(id);
  CHECK(it != tasks_.end());
  return it->second;
}

bool ClusterState::PlaceTask(TaskId task_id, MachineId machine, SimTime now) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.state != TaskState::kWaiting ||
      machine >= machines_.size() || !machines_[machine].alive) {
    return false;  // stale placement (task gone/running, or machine died)
  }
  TaskDescriptor& task = it->second;
  --num_waiting_tasks_;
  task.state = TaskState::kRunning;
  task.machine = machine;
  task.placed_time = now;
  task.total_wait += now - task.submit_time;
  machines_[machine].running_tasks += 1;
  machines_[machine].used_bandwidth_mbps += task.bandwidth_request_mbps;
  dirty_machines_.insert(machine);
  dirty_tasks_.insert(task_id);
  return true;
}

bool ClusterState::EvictTask(TaskId task_id, SimTime now) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.state != TaskState::kRunning) {
    return false;  // already evicted/completed, or never existed
  }
  TaskDescriptor& task = it->second;
  MachineDescriptor& machine = machines_[task.machine];
  machine.running_tasks -= 1;
  machine.used_bandwidth_mbps -= task.bandwidth_request_mbps;
  dirty_machines_.insert(task.machine);
  dirty_tasks_.insert(task_id);
  task.state = TaskState::kWaiting;
  ++num_waiting_tasks_;
  task.machine = kInvalidMachineId;
  // Eviction restarts the wait clock; accumulated wait is preserved in
  // total_wait so the unscheduled cost keeps growing (§3.3).
  task.submit_time = now;
  return true;
}

bool ClusterState::CompleteTask(TaskId task_id, SimTime now) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.state != TaskState::kRunning) {
    return false;  // completion raced an eviction/removal, or unknown task
  }
  TaskDescriptor& task = it->second;
  MachineDescriptor& machine = machines_[task.machine];
  machine.running_tasks -= 1;
  machine.used_bandwidth_mbps -= task.bandwidth_request_mbps;
  dirty_machines_.insert(task.machine);
  dirty_tasks_.insert(task_id);
  task.state = TaskState::kCompleted;
  task.finish_time = now;
  return true;
}

bool ClusterState::WithdrawTask(TaskId task_id, SimTime now) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.state != TaskState::kWaiting) {
    return false;  // placed/completed since the withdraw was decided
  }
  TaskDescriptor& task = it->second;
  --num_waiting_tasks_;
  task.state = TaskState::kCompleted;
  task.finish_time = now;
  dirty_tasks_.insert(task_id);
  return true;
}

bool ClusterState::ForgetTask(TaskId task_id) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || it->second.state != TaskState::kCompleted) {
    return false;
  }
  tasks_.erase(it);
  dirty_tasks_.erase(task_id);
  return true;
}

std::vector<TaskId> ClusterState::LiveTasks() const {
  std::vector<TaskId> live;
  live.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) {
    if (task.state != TaskState::kCompleted) {
      live.push_back(id);
    }
  }
  std::sort(live.begin(), live.end());
  return live;
}

std::vector<TaskId> ClusterState::RunningTasksOn(MachineId machine) const {
  std::vector<TaskId> running;
  for (const auto& [id, task] : tasks_) {
    if (task.state == TaskState::kRunning && task.machine == machine) {
      running.push_back(id);
    }
  }
  std::sort(running.begin(), running.end());
  return running;
}

void ClusterState::RefreshStatistics() {
  for (MachineDescriptor& machine : machines_) {
    machine.running_tasks = 0;
    machine.used_bandwidth_mbps = 0;
  }
  num_waiting_tasks_ = 0;
  for (const auto& [id, task] : tasks_) {
    if (task.state == TaskState::kWaiting) {
      ++num_waiting_tasks_;
    } else if (task.state == TaskState::kRunning) {
      MachineDescriptor& machine = machines_[task.machine];
      machine.running_tasks += 1;
      machine.used_bandwidth_mbps += task.bandwidth_request_mbps;
    }
  }
}

int64_t ClusterState::TotalSlots() const {
  int64_t total = 0;
  for (const MachineDescriptor& machine : machines_) {
    if (machine.alive) {
      total += machine.spec.slots;
    }
  }
  return total;
}

int64_t ClusterState::UsedSlots() const {
  int64_t used = 0;
  for (const MachineDescriptor& machine : machines_) {
    if (machine.alive) {
      used += machine.running_tasks;
    }
  }
  return used;
}

void EventStage::Stage(StagedEvent event) {
  front_.push_back(std::move(event));
  ++total_staged_;
}

std::vector<StagedEvent>& EventStage::TakeStaged() {
  back_.clear();
  back_.swap(front_);
  return back_;
}

}  // namespace firmament
