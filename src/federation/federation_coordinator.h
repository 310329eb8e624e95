// Federated multi-cell scheduling: K share-nothing CellSchedulers behind a
// thin coordinator, after "Eventually-Consistent Federated Scheduling for
// Data Center Workloads" (PAPERS.md). Because MCMF solve cost is superlinear
// in graph size, K solves over n/K machines beat one n-machine solve even on
// a single core; on a multi-core box the per-cell rounds additionally run
// concurrently on a ThreadPool.
//
// Contract overview:
//  * Partitioning is rack-aligned: a rack (and every machine in it) belongs
//    to exactly one cell, assigned round-robin at AddRack time. Global
//    machine/rack/task/job ids are minted here in arrival order; cells see
//    dense local ids and the coordinator's route tables translate at the
//    boundary (with cells=1 the two id spaces coincide, which is what makes
//    the centralized path byte-identical).
//  * Job routing is locality-first (sum of DataLocalityInterface bytes per
//    cell over each task's candidate machines, if a locality source is
//    attached and the best cell has headroom), then least-loaded (max
//    free-slots minus waiting-tasks headroom; ties to the lowest index).
//    Deterministic: no RNG anywhere in the coordinator.
//  * Conflicts resolve at commit time. A job whose cell leaves it fully
//    waiting for spill_after_rounds consecutive rounds — i.e. the cell
//    cannot place it while its unscheduled-cost ramp climbs — is queued to
//    spill to the sibling cell with the most headroom *next* round. At
//    execution the coordinator re-checks every task is still waiting: if the
//    origin cell placed any of them meanwhile, the move aborts and the
//    cell's claim wins (spill_conflicts). The withdraw itself goes through
//    FirmamentScheduler::WithdrawTask, whose idempotent counter is the
//    backstop for genuinely stale duplicates.
//  * An occasional rebalance pass (every rebalance_every_rounds) solves a
//    tiny min-cost flow over cell aggregates — donor cells supply their
//    waiting-minus-free surplus, receivers absorb up to their spare — and
//    moves whole waiting jobs along the non-zero flows. Moves use the same
//    Withdraw + SubmitJob path as spills, so staging, placement templates,
//    and integrity checking in the cells keep working unmodified.
//  * Solve budgets federate: a global solve_budget_us is split across the
//    cells that will actually solve this round, proportional to live graph
//    size, so a federated round degrades under the same global budget as a
//    centralized one.
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

#include "src/base/thread_pool.h"
#include "src/core/data_locality.h"
#include "src/core/placement_template.h"
#include "src/core/scheduler.h"
#include "src/federation/cell_scheduler.h"

namespace firmament {

struct FederationOptions {
  // Per-cell scheduler stack configuration, shared by every cell.
  FirmamentSchedulerOptions cell;
  // A job fully waiting for this many consecutive coordinator rounds
  // becomes a spill candidate (its unscheduled-cost ramp has had that many
  // chances to win locally and lost).
  size_t spill_after_rounds = 2;
  // Cross-cell rebalance cadence in coordinator rounds (0 disables).
  size_t rebalance_every_rounds = 16;
  // Global per-round solve budget split across solving cells proportional
  // to live graph size (0 = no budget; cells keep their own settings).
  uint64_t solve_budget_us = 0;
  // Worker threads for the concurrent cell rounds. SIZE_MAX = auto:
  // min(cells - 1, ThreadPool::DefaultThreads()); the calling thread
  // participates, so 0 runs the cells sequentially on the caller (the
  // single-core deployment — the superlinear-solve win still applies).
  size_t threads = static_cast<size_t>(-1);
};

struct FederationCounters {
  uint64_t rounds = 0;
  uint64_t spills = 0;            // jobs moved by the spill path
  uint64_t spill_conflicts = 0;   // spills aborted: origin cell claimed first
  uint64_t rebalance_passes = 0;
  uint64_t rebalance_moves = 0;   // jobs moved by the rebalance flow
  uint64_t cell_rounds_run = 0;      // per-cell scheduling rounds executed
  uint64_t cell_rounds_skipped = 0;  // elided: cell was clean (no events, no waiting)
  uint64_t jobs_routed_by_locality = 0;
  uint64_t jobs_routed_by_load = 0;
};

struct FederationRoundResult {
  // Merged view over the cells that ran: deltas carry *global* ids, counts
  // and stats are sums, outcome is the worst severity (any degraded cell
  // degrades the round; infeasible only if every running cell was).
  SchedulerRoundResult merged;
  std::vector<SolveOutcome> cell_outcomes;  // indexed by cell
  size_t cells_run = 0;
  size_t spills = 0;
  size_t spill_conflicts = 0;
  size_t rebalance_moves = 0;
  // More work is already known to exist (spills queued or executed,
  // rebalance moved jobs, preemptions to re-place, or a degraded cell) —
  // the service loop schedules a follow-up round.
  bool needs_followup = false;
  uint64_t round_wall_us = 0;
};

class FederationCoordinator {
 public:
  static constexpr uint32_t kNoCell = static_cast<uint32_t>(-1);

  FederationCoordinator(size_t cells, CellPolicyFactory factory,
                        FederationOptions options = {});

  FederationCoordinator(const FederationCoordinator&) = delete;
  FederationCoordinator& operator=(const FederationCoordinator&) = delete;

  // Optional locality source for locality-first routing. Machine ids passed
  // to / received from it are *global* ids. Not owned.
  void set_locality(const DataLocalityInterface* locality) { locality_ = locality; }

  // --- producer events (global ids; same shapes as FirmamentScheduler) ---
  RackId AddRack();
  MachineId AddMachine(RackId rack, const MachineSpec& spec);
  void RemoveMachine(MachineId machine, SimTime now,
                     std::function<void()> on_removed = {});
  JobId SubmitJob(JobType type, int32_t priority, std::vector<TaskDescriptor> tasks,
                  SimTime now, TemplateInstallResult* install = nullptr,
                  std::vector<TaskId>* global_task_ids = nullptr);
  void CompleteTask(TaskId task, SimTime now);

  // One federated round: execute queued spills, maybe rebalance, split the
  // solve budget, run every non-idle cell's scheduling round (concurrently
  // when the pool has workers), and merge.
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
  // Per-cell budget shares computed by the last RunRound (µs; 0 = none
  // assigned). Empty until the first round.
  const std::vector<uint64_t>& last_budget_split() const { return last_budget_split_; }

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
    size_t live = 0;         // not-yet-completed tasks
    size_t wait_rounds = 0;  // consecutive rounds fully waiting
    size_t spill_count = 0;
    bool pending_spill = false;
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
  uint32_t RouteJob(const std::vector<TaskDescriptor>& tasks);
  // Best sibling for `tasks` waiting tasks currently in `origin`: the cell
  // with the most headroom, if it both fits the job and beats the origin.
  // Returns origin when no sibling qualifies.
  uint32_t PickSpillTarget(uint32_t origin, size_t tasks) const;
  bool MoveJob(JobId job, uint32_t target_cell, SimTime now,
               FederationRoundResult* result);
  void ExecutePendingSpills(SimTime now, FederationRoundResult* result);
  void RebalancePass(SimTime now, FederationRoundResult* result);
  void MoveWaitingJobs(uint32_t from, uint32_t to, int64_t task_quota,
                       SimTime now, FederationRoundResult* result);
  void SplitSolveBudget();
  void MergeCellRound(CellScheduler& cell, const SchedulerRoundResult& round,
                      FederationRoundResult* result);
  void UpdateWaitAccounting(const std::vector<uint8_t>& ran,
                            FederationRoundResult* result);

  FederationOptions options_;
  std::vector<std::unique_ptr<CellScheduler>> cells_;
  std::unique_ptr<ThreadPool> pool_;
  const DataLocalityInterface* locality_ = nullptr;

  TaskId next_global_task_ = 0;
  JobId next_global_job_ = 0;
  MachineId next_global_machine_ = 0;

  std::unordered_map<TaskId, TaskRoute> task_routes_;
  std::unordered_map<JobId, JobRoute> job_routes_;
  std::unordered_map<MachineId, MachineRoute> machine_routes_;
  std::vector<RackRoute> rack_routes_;  // indexed by global rack id

  // Waiting-task estimate per cell: exact after every round the cell runs
  // (recomputed), nudged on submit/move in between so routing headroom
  // stays honest. A skipped cell's entry is already exact — clean means
  // nothing changed since it went quiescent.
  std::vector<int64_t> waiting_cache_;
  // Per-cell dirty flag: set by every routed event, cleared when a round
  // leaves the cell with zero waiting tasks (see the clean-cell contract
  // above). All mutations happen on the round-driving thread.
  std::vector<uint8_t> cell_dirty_;
  std::vector<JobId> pending_spills_;
  std::vector<uint64_t> last_budget_split_;

  uint64_t round_seq_ = 0;
  FederationCounters counters_;
  // Ignores for events the coordinator could not route to any cell.
  SchedulerEventCounters local_ignored_;
};

}  // namespace firmament

#endif  // SRC_FEDERATION_FEDERATION_COORDINATOR_H_
