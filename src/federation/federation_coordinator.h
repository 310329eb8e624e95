// Federated multi-cell scheduling: K share-nothing CellSchedulers behind a
// thin coordinator, after "Eventually-Consistent Federated Scheduling for
// Data Center Workloads" (PAPERS.md). Because MCMF solve cost is superlinear
// in graph size, K solves over n/K machines beat one n-machine solve even on
// a single core; on a multi-core box the running cells' solves additionally
// overlap, each on its own scheduler's solve dispatch worker.
//
// Contract overview:
//  * Partitioning is rack-aligned: a rack (and every machine in it) belongs
//    to exactly one cell, assigned round-robin at AddRack time. Global
//    machine/rack/task/job ids are minted here in arrival order; cells see
//    dense local ids and the coordinator's route tables translate at the
//    boundary (with cells=1 the two id spaces coincide, which is what makes
//    the centralized path byte-identical).
//  * Job routing is least-loaded: max free-slots minus waiting-tasks
//    headroom, from each cell's own exact counts; ties to the lowest index.
//    Deterministic: no RNG anywhere in the coordinator.
//  * Threading: every coordinator method, and all policy and graph code of
//    every cell, runs on the calling thread. RunRound starts each running
//    cell's round (graph update here, solve on that cell's dispatch worker
//    via FirmamentScheduler::StartRoundAsync; the last running cell solves
//    here), then applies them in cell order (ApplyRound joins the solve).
//    The only work off the calling thread is the cells' solves, and each
//    reads only its own cell's network.
//  * Jobs move between cells in one pass at the end of each round, and
//    only when the cell aggregates say some work cannot be placed where it
//    is: a donor cell (more waiting tasks than free slots) exists beside a
//    receiver cell (more free slots than waiting tasks). Then the jobs the
//    donors' rounds just left fully waiting move, oldest global job id
//    first, each to the receiver with the most spare slots that fits the
//    whole job (ties to the lowest index), debiting both sides, at most
//    kMaxSpillsPerJob times per job. Deciding and moving are one step on
//    the coordinator thread, so no cell can claim a job in between; the
//    withdraw goes through FirmamentScheduler::WithdrawTask and the
//    resubmit through SubmitJob, so staging, placement templates, and
//    integrity checking in the cells keep working unmodified. An all-full
//    cluster has no receiver, so it stays quiescent.
//  * Solve budgets are per cell: every running cell solves at once, so each
//    keeps the whole FederationOptions::cell.solver.solve_budget_us, as a
//    centralized scheduler does.
//  * Clean cells skip their round. A cell with no routed event since its
//    last round and no waiting tasks has a provably unchanged flow graph:
//    only the unscheduled-cost ramp of *waiting* tasks makes costs
//    time-dependent, so a running-only graph is static between events. The
//    coordinator tracks per-cell dirtiness (any routed submit / completion /
//    machine change / job move marks the cell; ending a round with waiting
//    tasks keeps it marked) and elides the whole scheduling round —
//    graph update, solve, and extraction — for clean cells. This is the
//    structural federation win a centralized scheduler cannot have: its one
//    graph is touched by every event, so every round pays full-cluster cost,
//    while a federated round's cost scales with the *active* cells only.
//    A skipped round emits zero deltas, exactly like a centralized no-event
//    round, which preserves cells=1 byte-identity.

#ifndef SRC_FEDERATION_FEDERATION_COORDINATOR_H_
#define SRC_FEDERATION_FEDERATION_COORDINATOR_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/placement_template.h"
#include "src/core/scheduler.h"
#include "src/federation/cell_scheduler.h"

namespace firmament {

struct FederationOptions {
  // Per-cell scheduler stack configuration, shared by every cell.
  FirmamentSchedulerOptions cell;
  // Never read: the running cells solve on their own schedulers' dispatch
  // workers. Kept while the end-to-end benchmark still sets it.
  size_t threads = static_cast<size_t>(-1);
};

struct FederationCounters {
  uint64_t rounds = 0;
  uint64_t spills = 0;  // jobs moved to a sibling cell by the move pass
  // Always 0: the rebalance flow it counted is part of the move pass now.
  // Kept while the end-to-end benchmark still reports it.
  uint64_t rebalance_moves = 0;
  uint64_t cell_rounds_run = 0;      // per-cell scheduling rounds executed
  uint64_t cell_rounds_skipped = 0;  // elided: cell was clean (no events, no waiting)
};

struct FederationRoundResult {
  // Merged view over the cells that ran: deltas carry *global* ids, counts
  // and stats are sums, outcome is the worst severity (any degraded cell
  // degrades the round; infeasible only if every running cell was).
  SchedulerRoundResult merged;
  std::vector<SolveOutcome> cell_outcomes;  // indexed by cell
  size_t cells_run = 0;
  size_t spills = 0;  // jobs the move pass moved this round
  // More work is already known to exist (moved jobs, preemptions to
  // re-place, or a degraded cell) — the service loop schedules a follow-up
  // round.
  bool needs_followup = false;
};

class FederationCoordinator {
 public:
  static constexpr uint32_t kNoCell = static_cast<uint32_t>(-1);

  FederationCoordinator(size_t cells, CellPolicyFactory factory,
                        FederationOptions options = {});

  FederationCoordinator(const FederationCoordinator&) = delete;
  FederationCoordinator& operator=(const FederationCoordinator&) = delete;

  // --- producer events (global ids; same shapes as FirmamentScheduler) ---
  RackId AddRack();
  MachineId AddMachine(RackId rack, const MachineSpec& spec);
  void RemoveMachine(MachineId machine, SimTime now,
                     std::function<void()> on_removed = {});
  JobId SubmitJob(JobType type, int32_t priority, std::vector<TaskDescriptor> tasks,
                  SimTime now, TemplateInstallResult* install = nullptr,
                  std::vector<TaskId>* global_task_ids = nullptr);
  void CompleteTask(TaskId task, SimTime now);

  // One federated round: start every non-idle, dirty cell's scheduling
  // round, apply them in cell order and merge, then run the move pass.
  FederationRoundResult RunRound(SimTime now);

  // --- introspection -----------------------------------------------------
  size_t num_cells() const { return cells_.size(); }
  CellScheduler& cell(size_t i) { return *cells_[i]; }
  const CellScheduler& cell(size_t i) const { return *cells_[i]; }
  const FederationCounters& counters() const { return counters_; }
  bool HasTask(TaskId task) const { return task_routes_.count(task) != 0; }
  bool IsTaskRunning(TaskId task) const;
  // Descriptor of a live task by global id (CHECKs the route exists). The
  // descriptor's id/job/machine fields are cell-local; callers wanting
  // global ids should stick to the payload fields (runtime, input size...).
  const TaskDescriptor& task(TaskId task) const;
  uint32_t CellOfTask(TaskId task) const;      // kNoCell if unknown
  uint32_t CellOfJob(JobId job) const;         // kNoCell if unknown
  uint32_t CellOfMachine(MachineId machine) const;
  int64_t TotalSlots() const;
  int64_t UsedSlots() const;

  // Summing views over the per-cell (cell-local) counters, plus the
  // coordinator's own ignores for events it could not route (unknown global
  // id — the federated analogue of the scheduler's unknown-entity ignores).
  SchedulerEventCounters SummedEventCounters() const;
  PlacementTemplateStats SummedTemplateStats() const;

 private:
  struct TaskRoute {
    uint32_t cell = 0;
    TaskId local = kInvalidTaskId;
    JobId job = kInvalidJobId;  // global
  };
  struct JobRoute {
    uint32_t cell = 0;
    JobId local = kInvalidJobId;
    JobType type = JobType::kBatch;
    int32_t priority = 0;
    std::vector<TaskId> global_tasks;
    size_t live = 0;  // not-yet-completed tasks
    size_t spill_count = 0;
  };
  struct MachineRoute {
    uint32_t cell = 0;
    MachineId local = kInvalidMachineId;
  };
  struct RackRoute {
    uint32_t cell = 0;
    RackId local = kInvalidRackId;  // minted in the cell at first machine
  };

  int64_t CellHeadroom(uint32_t cell) const;
  uint32_t RouteJob() const;
  bool FullyWaiting(const JobRoute& route) const;
  // Withdraws every live task of a fully-waiting `job` from its cell and
  // resubmits them to `target_cell`, banking the wait accrued so far.
  void MoveJob(JobId job, uint32_t target_cell, SimTime now,
               FederationRoundResult* result);
  // The end-of-round move pass (see the contract above).
  void MoveStuckJobs(SimTime now, FederationRoundResult* result);
  void MergeCellRound(CellScheduler& cell, const SchedulerRoundResult& round,
                      FederationRoundResult* result);

  FederationOptions options_;
  std::vector<std::unique_ptr<CellScheduler>> cells_;

  TaskId next_global_task_ = 0;
  JobId next_global_job_ = 0;
  MachineId next_global_machine_ = 0;

  std::unordered_map<TaskId, TaskRoute> task_routes_;
  std::unordered_map<JobId, JobRoute> job_routes_;
  std::unordered_map<MachineId, MachineRoute> machine_routes_;
  std::vector<RackRoute> rack_routes_;  // indexed by global rack id

  // Per-cell dirty flag: set by every routed event, cleared when a round
  // leaves the cell with zero waiting tasks (see the clean-cell contract
  // above). All mutations happen on the round-driving thread.
  std::vector<uint8_t> cell_dirty_;

  FederationCounters counters_;
  // Ignores for events the coordinator could not route to any cell.
  SchedulerEventCounters local_ignored_;
};

}  // namespace firmament

#endif  // SRC_FEDERATION_FEDERATION_COORDINATOR_H_
