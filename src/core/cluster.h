// Cluster topology and workload state: machines in racks, jobs of tasks,
// and the load/bandwidth statistics that scheduling policies consume.
//
// This is the "cluster manager" state of Fig. 4: jobs and tasks, monitoring
// data, and cluster topology feeding the scheduling policy. Per-machine
// statistics are maintained incrementally by the task lifecycle methods
// (§6.3 first pass without the full rebuild): every mutation marks the
// affected machine and task dirty, and the FlowGraphManager drains those
// dirty sets each round so the graph update touches only what changed.

#ifndef SRC_CORE_CLUSTER_H_
#define SRC_CORE_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/check.h"
#include "src/core/types.h"

namespace firmament {

struct MachineSpec {
  int32_t slots = 8;               // schedulable task slots (slot-based, §7.1)
  int64_t nic_bandwidth_mbps = 10'000;  // 10 Gbps as on the paper's testbed
};

struct MachineDescriptor {
  MachineId id = kInvalidMachineId;
  RackId rack = kInvalidRackId;
  MachineSpec spec;
  bool alive = true;
  // Monitoring statistics (refreshed from task state each round).
  int32_t running_tasks = 0;
  int64_t used_bandwidth_mbps = 0;        // task reservations
  int64_t background_bandwidth_mbps = 0;  // non-scheduled traffic (Fig. 19b)

  int32_t FreeSlots() const { return spec.slots - running_tasks; }
  int64_t SpareBandwidthMbps() const {
    int64_t spare = spec.nic_bandwidth_mbps - used_bandwidth_mbps - background_bandwidth_mbps;
    return spare > 0 ? spare : 0;
  }
};

struct TaskDescriptor {
  TaskId id = kInvalidTaskId;
  JobId job = kInvalidJobId;
  TaskState state = TaskState::kWaiting;
  MachineId machine = kInvalidMachineId;  // valid while running

  SimTime submit_time = 0;
  SimTime placed_time = 0;
  SimTime finish_time = 0;
  SimTime total_wait = 0;  // accumulated waiting time (drives unscheduled cost)

  // Simulated execution duration (batch tasks; service tasks use a sentinel
  // far in the future).
  SimTime runtime = 0;

  // Workload attributes consumed by policies.
  int64_t input_size_bytes = 0;
  std::vector<uint64_t> input_blocks;     // block store ids (Quincy policy)
  int64_t bandwidth_request_mbps = 0;     // network-aware policy
};

struct JobDescriptor {
  JobId id = kInvalidJobId;
  JobType type = JobType::kBatch;
  int32_t priority = 0;  // larger = more important
  SimTime submit_time = 0;
  std::vector<TaskId> tasks;
};

// Mutable cluster + workload state. All scheduler components hold a pointer
// to one instance; the simulator and examples drive its mutations.
class ClusterState {
 public:
  ClusterState() = default;

  // --- Topology ------------------------------------------------------------
  RackId AddRack();
  MachineId AddMachine(RackId rack, const MachineSpec& spec);
  // Marks the machine dead; running tasks must be evicted by the caller
  // (the scheduler does this, see FirmamentScheduler::RemoveMachine).
  // Returns false (and changes nothing) if the id is unknown or the machine
  // is already dead — duplicate failure reports are a fact of life under
  // failure storms, not a programming error.
  bool RemoveMachine(MachineId machine);

  size_t num_racks() const { return racks_.size(); }
  size_t num_machines() const { return num_alive_machines_; }
  const std::vector<MachineId>& MachinesInRack(RackId rack) const { return racks_[rack]; }
  const MachineDescriptor& machine(MachineId id) const { return machines_[id]; }
  // Mutable access marks the machine statistics-dirty: out-of-band changes
  // (background bandwidth, spec edits) must reach the next graph update.
  MachineDescriptor& mutable_machine(MachineId id) {
    dirty_machines_.insert(id);
    out_of_band_machines_.insert(id);
    return machines_[id];
  }
  const std::vector<MachineDescriptor>& machines() const { return machines_; }
  RackId RackOf(MachineId machine) const { return machines_[machine].rack; }

  // --- Workload ------------------------------------------------------------
  JobId SubmitJob(JobType type, int32_t priority, SimTime now);
  TaskId AddTaskToJob(JobId job, TaskDescriptor task);
  const JobDescriptor& job(JobId id) const;
  const TaskDescriptor& task(TaskId id) const;
  // Attribute edits only: `state` changes go through the lifecycle methods
  // below, which keep the dirty set and the waiting count.
  TaskDescriptor& mutable_task(TaskId id);
  bool HasTask(TaskId id) const { return tasks_.count(id) != 0; }
  // One-lookup variant of HasTask + task(): nullptr if the task is unknown
  // (never added, or completed and forgotten).
  const TaskDescriptor* FindTask(TaskId id) const {
    auto it = tasks_.find(id);
    return it == tasks_.end() ? nullptr : &it->second;
  }
  size_t num_tasks() const { return tasks_.size(); }
  // Tasks in state kWaiting, maintained by the lifecycle methods below.
  size_t num_waiting_tasks() const { return num_waiting_tasks_; }

  // --- Task lifecycle ----------------------------------------------------
  // Lifecycle transitions are *idempotent*: an op whose precondition does
  // not hold (unknown task, task not in the required state, dead target
  // machine) returns false and mutates nothing, so stale or duplicated
  // events — the common case under failure storms — are shrugged off
  // instead of CHECK-aborting the control loop. Callers that believe their
  // event is fresh should CHECK the return themselves.
  bool PlaceTask(TaskId task, MachineId machine, SimTime now);
  bool EvictTask(TaskId task, SimTime now);
  bool CompleteTask(TaskId task, SimTime now);
  // Retires a *waiting* task (kWaiting -> kCompleted) without ever running
  // it: the federation coordinator's spill/rebalance path withdraws a job
  // from one cell to resubmit it in another. No machine statistics to
  // unwind; the terminal state lets the standard staged-completion replay
  // (graph RemoveTask + ForgetTask) retire it unmodified.
  bool WithdrawTask(TaskId task, SimTime now);
  // Erases a completed task's descriptor (jobs keep their id lists).
  bool ForgetTask(TaskId task);

  // All tasks that currently exist and are not completed; the flow network
  // reschedules all of them continuously (§3).
  std::vector<TaskId> LiveTasks() const;
  std::vector<TaskId> RunningTasksOn(MachineId machine) const;

  // Recomputes per-machine statistics from task state from scratch. The
  // statistics are maintained incrementally by PlaceTask/EvictTask/
  // CompleteTask, so this is only needed to repair out-of-band corruption or
  // to time the legacy full-refresh path; it does not mark anything dirty
  // (it converges to the same values the incremental path maintains).
  void RefreshStatistics();

  // --- Dirty tracking (consumed by FlowGraphManager::UpdateRound) ---------
  // Machines whose statistics changed and tasks whose state changed
  // (placed / evicted / completed) since the last ClearDirty. Ordered so the
  // per-round graph update iterates deterministically without re-sorting.
  const std::set<MachineId>& dirty_machines() const { return dirty_machines_; }
  const std::set<TaskId>& dirty_tasks() const { return dirty_tasks_; }
  void ClearDirty() {
    dirty_machines_.clear();
    dirty_tasks_.clear();
  }

  // Machines handed out via mutable_machine since the last drain: unlike
  // dirty_machines_ (which PlaceTask/EvictTask also feed), this only tracks
  // *out-of-band* descriptor edits, whose changed specs/costs must evict any
  // cached placement template touching the machine. Drained by the
  // scheduler's template layer; harmless to ignore otherwise.
  const std::set<MachineId>& out_of_band_machines() const {
    return out_of_band_machines_;
  }
  void ClearOutOfBandMachines() { out_of_band_machines_.clear(); }

  // Total slots across alive machines; used for utilization accounting.
  int64_t TotalSlots() const;
  int64_t UsedSlots() const;

 private:
  std::vector<MachineDescriptor> machines_;
  std::vector<std::vector<MachineId>> racks_;
  std::unordered_map<JobId, JobDescriptor> jobs_;
  std::unordered_map<TaskId, TaskDescriptor> tasks_;
  std::set<MachineId> dirty_machines_;
  std::set<TaskId> dirty_tasks_;
  std::set<MachineId> out_of_band_machines_;
  size_t num_alive_machines_ = 0;
  size_t num_waiting_tasks_ = 0;
  JobId next_job_id_ = 0;
  TaskId next_task_id_ = 0;
};

// --- Event staging (pipelined rounds) --------------------------------------
//
// While a round's solve is in flight, the flow network (and the solver views
// patched from its journal) must not change under the solver. Cluster events
// arriving mid-round are therefore split: the ClusterState half applies
// eagerly (the solver never reads ClusterState, and eager application keeps
// ids, statistics, and the idempotency checks exact), while the graph half —
// the FlowGraphManager mutation *including its policy hooks, which create
// and remove aggregator nodes* — is recorded as a StagedEvent and replayed
// once the round's placements have been extracted.

// One cluster event whose graph-side application is deferred.
struct StagedEvent {
  enum class Kind : uint8_t {
    kMachineAdded,    // graph AddMachine(machine)
    kMachineRemoved,  // graph RemoveMachine(machine), then `after`
    kTasksSubmitted,  // graph AddTask(task, time) per task
    kTaskCompleted,   // graph RemoveTask(task), then cluster ForgetTask(task)
  };
  Kind kind = Kind::kTasksSubmitted;
  SimTime time = 0;  // the event's original arrival timestamp
  MachineId machine = kInvalidMachineId;
  TaskId task = kInvalidTaskId;
  std::vector<TaskId> tasks;  // kTasksSubmitted: ids minted at arrival
  // kMachineRemoved: deferred caller notification (e.g. dropping the
  // machine's replicas from a locality store) that must run only after the
  // policy's OnMachineRemoved hook has read the store.
  std::function<void()> after;
};

// Double-buffered staging area: the front buffer accumulates arrivals while
// the back buffer holds the batch currently being replayed, so a replay
// that (transitively) stages new events never invalidates the iteration.
class EventStage {
 public:
  void Stage(StagedEvent event);

  // Swaps buffers and returns the staged batch, in arrival order, for
  // replay. The returned reference stays valid until the next TakeStaged.
  std::vector<StagedEvent>& TakeStaged();

  size_t staged_count() const { return front_.size(); }
  // The events staged since the last TakeStaged, in arrival order.
  const std::vector<StagedEvent>& staged() const { return front_; }
  bool empty() const { return front_.empty(); }
  // Monotonic: every event ever staged (observability / fuzz accounting).
  uint64_t total_staged() const { return total_staged_; }

 private:
  std::vector<StagedEvent> front_;
  std::vector<StagedEvent> back_;
  uint64_t total_staged_ = 0;
};

}  // namespace firmament

#endif  // SRC_CORE_CLUSTER_H_
