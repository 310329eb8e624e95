// Completion-feedback and kill-and-resubmit bookkeeping for drivers that
// replay workloads through the SchedulerService producer API:
// TraceReplayDriver (src/trace/trace_replay_driver.h) and the virtual-time
// benchmark driver.
//
// A driver closes two loops around the service:
//  * completions — a placed task's Complete() call is scheduled for a later
//    instant (the trace's FINISH timestamp, clamped to the placement), and
//  * kill-and-resubmit — a killed task leaves the running set and a
//    replacement submission is queued after the lineage's capped
//    exponential backoff.
// This class owns that state: the running-task set, the due-completion and
// due-resubmission heaps, and the backoff policy. Thread contract: the
// service loop thread feeds placements in via OnPlaced/ScheduleCompletion
// (from the on_placed callback) while the driver thread pops due work —
// every method takes the one internal mutex.

#ifndef SRC_SIM_REPLAY_FEEDBACK_H_
#define SRC_SIM_REPLAY_FEEDBACK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/core/types.h"

namespace firmament {

class ReplayFeedback {
 public:
  static constexpr SimTime kNoDue = std::numeric_limits<SimTime>::max();

  // What a resubmission needs to recreate the task, plus lineage bookkeeping.
  struct TaskInfo {
    SimTime runtime = 0;
    int64_t input_bytes = 0;
    int64_t bandwidth_mbps = 0;
    int attempts = 1;  // lineage submission count; drives the backoff exponent
    uint64_t tag = 0;  // caller cookie (e.g. a trace-lineage handle)
  };

  ReplayFeedback(SimTime backoff_base_us, SimTime backoff_cap_us)
      : backoff_base_us_(backoff_base_us), backoff_cap_us_(backoff_cap_us) {}

  ReplayFeedback(const ReplayFeedback&) = delete;
  ReplayFeedback& operator=(const ReplayFeedback&) = delete;

  // --- running set (service loop thread via on_placed) ----------------------
  // Registers a placed task. Re-placement of an already-tracked task (after
  // eviction) just refreshes the info.
  void OnPlaced(TaskId task, const TaskInfo& info);

  // Schedules Complete() delivery for a tracked task at `due`.
  void ScheduleCompletion(TaskId task, SimTime due);

  // --- driver thread --------------------------------------------------------
  // Pops the next completion due by `upto`; skips entries whose task was
  // killed or already completed since being scheduled.
  bool PopDueCompletion(SimTime upto, TaskId* task);
  SimTime NextCompletionDue() const;

  // Removes `task` from the running set (it is being killed); false if it
  // was not tracked. The heap entry, if any, becomes stale and is skipped.
  bool Kill(TaskId task, TaskInfo* info);

  // Queues a replacement submission: bumps info.attempts and schedules it
  // for now + CappedExponentialBackoff(attempts).
  void QueueResubmit(SimTime now, TaskInfo info);
  bool PopDueResubmit(SimTime upto, TaskInfo* info);
  SimTime NextResubmitDue() const;

 private:
  struct DueTask {
    SimTime due = 0;
    TaskId task = kInvalidTaskId;
    bool operator>(const DueTask& other) const { return due > other.due; }
  };
  struct DueResubmit {
    SimTime due = 0;
    TaskInfo info;
    bool operator>(const DueResubmit& other) const { return due > other.due; }
  };

  const SimTime backoff_base_us_;
  const SimTime backoff_cap_us_;

  mutable std::mutex mutex_;
  std::unordered_map<TaskId, TaskInfo> running_;
  std::priority_queue<DueTask, std::vector<DueTask>, std::greater<>> completions_;
  std::priority_queue<DueResubmit, std::vector<DueResubmit>, std::greater<>> resubmits_;
};

}  // namespace firmament

#endif  // SRC_SIM_REPLAY_FEEDBACK_H_
