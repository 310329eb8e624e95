#include "src/sim/replay_feedback.h"

#include "src/sim/fault_injector.h"

namespace firmament {

void ReplayFeedback::OnPlaced(TaskId task, const TaskInfo& info) {
  std::unique_lock<std::mutex> lock(mutex_);
  running_[task] = info;
}

void ReplayFeedback::ScheduleCompletion(TaskId task, SimTime due) {
  std::unique_lock<std::mutex> lock(mutex_);
  completions_.push(DueTask{due, task});
}

bool ReplayFeedback::PopDueCompletion(SimTime upto, TaskId* task) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!completions_.empty() && completions_.top().due <= upto) {
    TaskId candidate = completions_.top().task;
    completions_.pop();
    if (running_.erase(candidate) > 0) {
      *task = candidate;
      return true;
    }
    // Stale entry: the task was killed or already force-completed.
  }
  return false;
}

SimTime ReplayFeedback::NextCompletionDue() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return completions_.empty() ? kNoDue : completions_.top().due;
}

bool ReplayFeedback::Kill(TaskId task, TaskInfo* info) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = running_.find(task);
  if (it == running_.end()) {
    return false;
  }
  *info = it->second;
  running_.erase(it);
  return true;
}

void ReplayFeedback::QueueResubmit(SimTime now, TaskInfo info) {
  ++info.attempts;
  SimTime due =
      now + CappedExponentialBackoff(backoff_base_us_, backoff_cap_us_, info.attempts - 1);
  std::unique_lock<std::mutex> lock(mutex_);
  resubmits_.push(DueResubmit{due, info});
}

bool ReplayFeedback::PopDueResubmit(SimTime upto, TaskInfo* info) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (resubmits_.empty() || resubmits_.top().due > upto) {
    return false;
  }
  *info = resubmits_.top().info;
  resubmits_.pop();
  return true;
}

SimTime ReplayFeedback::NextResubmitDue() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return resubmits_.empty() ? kNoDue : resubmits_.top().due;
}

}  // namespace firmament
