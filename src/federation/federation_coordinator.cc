#include "src/federation/federation_coordinator.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/core/flow_graph_manager.h"

namespace firmament {

namespace {

// Move cap per job, so a cluster-wide capacity crunch cannot bounce a job
// between cells forever.
constexpr size_t kMaxSpillsPerJob = 3;

// Worst-severity merge: a degraded cell degrades the round (the service
// schedules a follow-up), approximate taints optimal, and infeasible only
// surfaces when *every* cell that ran was infeasible — one oversubscribed
// cell must not mask its siblings' placements.
int OutcomeSeverity(SolveOutcome outcome) {
  switch (outcome) {
    case SolveOutcome::kOptimal:
      return 0;
    case SolveOutcome::kApproximate:
      return 1;
    case SolveOutcome::kDegraded:
      return 2;
    case SolveOutcome::kInfeasible:
    case SolveOutcome::kCancelled:
      return 3;
  }
  return 3;
}

}  // namespace

FederationCoordinator::FederationCoordinator(size_t cells, CellPolicyFactory factory,
                                             FederationOptions options)
    : options_(options) {
  CHECK_GE(cells, 1u);
  CHECK(factory != nullptr);
  cells_.reserve(cells);
  for (size_t i = 0; i < cells; ++i) {
    cells_.push_back(std::make_unique<CellScheduler>(static_cast<uint32_t>(i),
                                                     factory, options_.cell));
  }
  cell_dirty_.assign(cells, 1);
}

// --- producer events -------------------------------------------------------

RackId FederationCoordinator::AddRack() {
  RackRoute route;
  // Rack-aligned partitioning: every machine of a rack lands in the rack's
  // cell, so a rack-correlated failure storm stays a single cell's problem.
  route.cell = static_cast<uint32_t>(rack_routes_.size() % cells_.size());
  rack_routes_.push_back(route);
  return static_cast<RackId>(rack_routes_.size() - 1);
}

MachineId FederationCoordinator::AddMachine(RackId rack, const MachineSpec& spec) {
  CHECK_LT(static_cast<size_t>(rack), rack_routes_.size());
  RackRoute& rr = rack_routes_[rack];
  CellScheduler& cell = *cells_[rr.cell];
  if (rr.local == kInvalidRackId) {
    // Local racks materialize lazily at first use, keeping cell-local rack
    // ids dense regardless of how global racks interleave across cells.
    rr.local = cell.cluster().AddRack();
  }
  MachineId local = cell.scheduler().AddMachine(rr.local, spec);
  MachineId global = next_global_machine_++;
  cell.MapMachine(local, global);
  machine_routes_.emplace(global, MachineRoute{rr.cell, local});
  cell_dirty_[rr.cell] = 1;
  return global;
}

void FederationCoordinator::RemoveMachine(MachineId machine, SimTime now,
                                          std::function<void()> on_removed) {
  auto it = machine_routes_.find(machine);
  if (it == machine_routes_.end()) {
    // Never-added machine id: the centralized scheduler would count this in
    // its own ignore counter; unroutable events land in the coordinator's.
    ++local_ignored_.ignored_machine_removals;
    return;
  }
  // Known-but-dead machines route through: the cell counts the duplicate,
  // keeping SummedEventCounters equal to what one scheduler would report.
  cell_dirty_[it->second.cell] = 1;
  cells_[it->second.cell]->scheduler().RemoveMachine(it->second.local, now,
                                                     std::move(on_removed));
}

JobId FederationCoordinator::SubmitJob(JobType type, int32_t priority,
                                       std::vector<TaskDescriptor> tasks, SimTime now,
                                       TemplateInstallResult* install,
                                       std::vector<TaskId>* global_task_ids) {
  CHECK(!tasks.empty());
  const size_t task_count = tasks.size();
  const uint32_t target = RouteJob();
  cell_dirty_[target] = 1;
  CellScheduler& cell = *cells_[target];
  TemplateInstallResult local_install;
  JobId local_job =
      cell.scheduler().SubmitJob(type, priority, std::move(tasks), now, &local_install);

  JobId global_job = next_global_job_++;
  JobRoute route;
  route.cell = target;
  route.local = local_job;
  route.type = type;
  route.priority = priority;
  const std::vector<TaskId>& locals = cell.cluster().job(local_job).tasks;
  CHECK_EQ(locals.size(), task_count);
  route.global_tasks.reserve(task_count);
  for (TaskId local : locals) {
    TaskId global = next_global_task_++;
    cell.MapTask(local, global);
    task_routes_.emplace(global, TaskRoute{target, local, global_job});
    route.global_tasks.push_back(global);
    if (global_task_ids != nullptr) {
      global_task_ids->push_back(global);
    }
  }
  route.live = task_count;
  if (install != nullptr) {
    *install = local_install;
    for (SchedulingDelta& delta : install->deltas) {
      delta.task = cell.ToGlobalTask(delta.task);
      if (delta.to != kInvalidMachineId) delta.to = cell.ToGlobalMachine(delta.to);
      if (delta.from != kInvalidMachineId) delta.from = cell.ToGlobalMachine(delta.from);
    }
  }
  job_routes_.emplace(global_job, std::move(route));
  return global_job;
}

void FederationCoordinator::CompleteTask(TaskId task, SimTime now) {
  auto it = task_routes_.find(task);
  if (it == task_routes_.end()) {
    ++local_ignored_.ignored_task_completions;
    return;
  }
  CellScheduler& cell = *cells_[it->second.cell];
  const TaskId local = it->second.local;
  const bool fresh =
      cell.cluster().HasTask(local) && cell.cluster().task(local).state == TaskState::kRunning;
  // Conservatively dirty even on a stale delivery: the cell's counter bump
  // is cheap to revisit, and the fresh path definitely changed the graph.
  cell_dirty_[it->second.cell] = 1;
  cell.scheduler().CompleteTask(local, now);
  if (!fresh) {
    return;  // the cell counted the stale delivery; routes stay for retries
  }
  auto job_it = job_routes_.find(it->second.job);
  CHECK(job_it != job_routes_.end());
  if (--job_it->second.live == 0) {
    job_routes_.erase(job_it);
  }
  cell.UnmapTask(local);
  task_routes_.erase(it);
}

// --- routing ---------------------------------------------------------------

int64_t FederationCoordinator::CellHeadroom(uint32_t cell) const {
  return cells_[cell]->FreeSlots() - static_cast<int64_t>(cells_[cell]->WaitingTasks());
}

uint32_t FederationCoordinator::RouteJob() const {
  if (cells_.size() == 1) {
    return 0;
  }
  // Least-loaded: max headroom, ties to the lowest index (strict > keeps it
  // deterministic).
  uint32_t best = 0;
  int64_t best_headroom = CellHeadroom(0);
  for (uint32_t c = 1; c < cells_.size(); ++c) {
    int64_t headroom = CellHeadroom(c);
    if (headroom > best_headroom) {
      best = c;
      best_headroom = headroom;
    }
  }
  return best;
}

// --- move pass -------------------------------------------------------------

bool FederationCoordinator::FullyWaiting(const JobRoute& route) const {
  const ClusterState& cluster = cells_[route.cell]->cluster();
  for (TaskId gtask : route.global_tasks) {
    auto tr = task_routes_.find(gtask);
    if (tr == task_routes_.end()) continue;  // completed
    if (cluster.task(tr->second.local).state != TaskState::kWaiting) {
      return false;
    }
  }
  return true;
}

void FederationCoordinator::MoveJob(JobId job, uint32_t target_cell, SimTime now,
                                    FederationRoundResult* result) {
  JobRoute& route = job_routes_.at(job);
  const uint32_t origin_cell = route.cell;
  CellScheduler& origin = *cells_[origin_cell];
  CellScheduler& target = *cells_[target_cell];
  cell_dirty_[origin_cell] = 1;
  cell_dirty_[target_cell] = 1;

  std::vector<TaskId> live_globals;
  std::vector<TaskDescriptor> descs;
  for (TaskId gtask : route.global_tasks) {
    auto it = task_routes_.find(gtask);
    if (it == task_routes_.end()) continue;  // completed
    const TaskDescriptor& src = origin.cluster().task(it->second.local);
    TaskDescriptor copy = src;
    copy.id = kInvalidTaskId;
    copy.job = kInvalidJobId;
    copy.machine = kInvalidMachineId;
    copy.state = TaskState::kWaiting;
    // Bank the wait accrued in the origin cell; the resubmission restarts
    // the clock from `now`, and the unscheduled-cost ramp resumes from the
    // banked total — a moved job keeps its seniority.
    copy.total_wait += now - src.submit_time;
    descs.push_back(std::move(copy));
    live_globals.push_back(gtask);
  }
  CHECK(!live_globals.empty());
  // Withdraw from the origin. The move pass checked every task is still
  // waiting and nothing ran in between on this thread, so the withdraws
  // must succeed.
  for (TaskId gtask : live_globals) {
    TaskRoute tr = task_routes_.at(gtask);
    CHECK(origin.scheduler().WithdrawTask(tr.local, now));
    origin.UnmapTask(tr.local);
  }

  // Resubmit through the normal event path: staging, placement templates,
  // and integrity checking in the target cell all apply unmodified. Global
  // task ids survive the move; only the locals change.
  TemplateInstallResult install;
  JobId new_local = target.scheduler().SubmitJob(route.type, route.priority,
                                                 std::move(descs), now, &install);
  const std::vector<TaskId>& new_locals = target.cluster().job(new_local).tasks;
  CHECK_EQ(new_locals.size(), live_globals.size());
  for (size_t i = 0; i < new_locals.size(); ++i) {
    target.MapTask(new_locals[i], live_globals[i]);
    TaskRoute& tr = task_routes_.at(live_globals[i]);
    tr.cell = target_cell;
    tr.local = new_locals[i];
  }
  route.cell = target_cell;
  route.local = new_local;
  route.global_tasks = std::move(live_globals);
  route.live = route.global_tasks.size();
  if (install.installed) {
    // A template hit placed the moved job instantly — surface the minted
    // deltas (global ids) in the round result so the service books them.
    for (const SchedulingDelta& delta : install.deltas) {
      SchedulingDelta global = delta;
      global.task = target.ToGlobalTask(delta.task);
      if (global.to != kInvalidMachineId) global.to = target.ToGlobalMachine(delta.to);
      result->merged.deltas.push_back(global);
      ++result->merged.tasks_placed;
    }
  }
}

void FederationCoordinator::MoveStuckJobs(SimTime now, FederationRoundResult* result) {
  if (cells_.size() < 2) {
    return;
  }
  // Spare slots per cell (free minus waiting): negative in a donor, which
  // holds more waiting tasks than it can place, positive in a receiver.
  std::vector<int64_t> spare(cells_.size());
  bool any_donor = false;
  bool any_receiver = false;
  for (uint32_t c = 0; c < cells_.size(); ++c) {
    spare[c] = CellHeadroom(c);
    any_donor |= spare[c] < 0;
    any_receiver |= spare[c] > 0;
  }
  if (!any_donor || !any_receiver) {
    return;
  }
  // Only here is a job walk worth it. Sorting the candidates keeps the
  // unordered_map's iteration order out of behaviour.
  std::vector<JobId> candidates;
  for (const auto& [job, route] : job_routes_) {
    if (spare[route.cell] < 0 && route.spill_count < kMaxSpillsPerJob && FullyWaiting(route)) {
      candidates.push_back(job);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (JobId job : candidates) {
    JobRoute& route = job_routes_.at(job);
    const uint32_t donor = route.cell;
    const int64_t size = static_cast<int64_t>(route.live);
    if (spare[donor] >= 0) {
      continue;  // earlier moves already relieved this donor
    }
    uint32_t target = kNoCell;
    for (uint32_t c = 0; c < cells_.size(); ++c) {
      if (spare[c] >= size && (target == kNoCell || spare[c] > spare[target])) {
        target = c;
      }
    }
    if (target == kNoCell) {
      continue;  // no receiver fits the whole job; a smaller one may fit
    }
    MoveJob(job, target, now, result);
    spare[donor] += size;
    spare[target] -= size;
    ++route.spill_count;
    ++counters_.spills;
    ++result->spills;
  }
}

// --- round -----------------------------------------------------------------

void FederationCoordinator::MergeCellRound(CellScheduler& cell,
                                           const SchedulerRoundResult& round,
                                           FederationRoundResult* result) {
  SchedulerRoundResult& merged = result->merged;
  for (const SchedulingDelta& delta : round.deltas) {
    SchedulingDelta global = delta;
    global.task = cell.ToGlobalTask(delta.task);
    if (global.to != kInvalidMachineId) global.to = cell.ToGlobalMachine(delta.to);
    if (global.from != kInvalidMachineId) global.from = cell.ToGlobalMachine(delta.from);
    merged.deltas.push_back(global);
  }
  merged.solver_stats.total_cost += round.solver_stats.total_cost;
  merged.solver_stats.runtime_us += round.solver_stats.runtime_us;
  merged.solver_stats.iterations += round.solver_stats.iterations;
  merged.solver_stats.view_prep_us += round.solver_stats.view_prep_us;
  merged.solver_stats.budget_slack_us += round.solver_stats.budget_slack_us;
  merged.solver_stats.deadline_exceeded |= round.solver_stats.deadline_exceeded;
  merged.algorithm_runtime_us += round.algorithm_runtime_us;
  merged.graph_update_us += round.graph_update_us;
  merged.total_runtime_us += round.total_runtime_us;
  merged.staged_replay_us += round.staged_replay_us;
  merged.task_nodes += round.task_nodes;
  merged.tasks_extracted += round.tasks_extracted;
  merged.tasks_placed += round.tasks_placed;
  merged.tasks_preempted += round.tasks_preempted;
  merged.tasks_migrated += round.tasks_migrated;
  merged.tasks_unscheduled += round.tasks_unscheduled;
  merged.deltas_dropped += round.deltas_dropped;
  merged.recovery_actions.insert(merged.recovery_actions.end(),
                                 round.recovery_actions.begin(),
                                 round.recovery_actions.end());
}

FederationRoundResult FederationCoordinator::RunRound(SimTime now) {
  FederationRoundResult result;
  result.cell_outcomes.assign(cells_.size(), SolveOutcome::kOptimal);
  ++counters_.rounds;

  // Idle cells (nothing live, nothing pending in the graph) and clean cells
  // (no routed event since their last round, zero waiting tasks — so a
  // provably unchanged graph) skip the round entirely. This is where a
  // federated round's cost scales with the active cells instead of the
  // whole cluster.
  std::vector<uint32_t> running;
  for (uint32_t i = 0; i < cells_.size(); ++i) {
    CellScheduler& cell = *cells_[i];
    if (cell.cluster().num_tasks() == 0 &&
        cell.scheduler().graph_manager().num_task_nodes() == 0) {
      continue;  // idle cell: no tasks live and none pending in the graph
    }
    if (!cell_dirty_[i]) {
      ++counters_.cell_rounds_skipped;
      continue;
    }
    ++counters_.cell_rounds_run;
    running.push_back(i);
  }

  // Each running cell updates its graph on this thread and solves on its
  // own dispatch worker, so the running cells solve at once. The last one
  // solves on this thread, which would otherwise only wait.
  for (uint32_t i : running) {
    if (i == running.back()) {
      cells_[i]->scheduler().StartRound(now);
    } else {
      cells_[i]->scheduler().StartRoundAsync(now);
    }
  }

  // Apply in cell order: each ApplyRound joins that cell's solve.
  bool any_degraded = false;
  int worst = -1;
  bool all_infeasible = true;
  for (uint32_t i : running) {
    const SchedulerRoundResult round = cells_[i]->scheduler().ApplyRound(now);
    ++result.cells_run;
    result.cell_outcomes[i] = round.outcome;
    MergeCellRound(*cells_[i], round, &result);
    // A cell ending its round with zero waiting tasks has a static graph
    // until the next routed event (no unscheduled-cost ramp left to climb),
    // so it is clean and skippable. A degraded/infeasible outcome keeps it
    // dirty regardless: the solver owes the cell a retry.
    cell_dirty_[i] = cells_[i]->WaitingTasks() > 0 || OutcomeSeverity(round.outcome) >= 2;
    any_degraded |= round.outcome == SolveOutcome::kDegraded;
    if (OutcomeSeverity(round.outcome) < 3) {
      all_infeasible = false;
      worst = std::max(worst, OutcomeSeverity(round.outcome));
    }
  }
  if (result.cells_run == 0) {
    result.merged.outcome = SolveOutcome::kOptimal;
  } else if (all_infeasible) {
    result.merged.outcome = SolveOutcome::kInfeasible;
  } else if (any_degraded) {
    result.merged.outcome = SolveOutcome::kDegraded;
  } else {
    result.merged.outcome =
        worst >= 1 ? SolveOutcome::kApproximate : SolveOutcome::kOptimal;
  }

  MoveStuckJobs(now, &result);
  result.needs_followup =
      result.spills > 0 || result.merged.tasks_preempted > 0 || any_degraded;
  return result;
}

// --- introspection ---------------------------------------------------------

bool FederationCoordinator::IsTaskRunning(TaskId task) const {
  auto it = task_routes_.find(task);
  if (it == task_routes_.end()) return false;
  const ClusterState& cluster = cells_[it->second.cell]->cluster();
  return cluster.HasTask(it->second.local) &&
         cluster.task(it->second.local).state == TaskState::kRunning;
}

const TaskDescriptor& FederationCoordinator::task(TaskId task) const {
  auto it = task_routes_.find(task);
  CHECK(it != task_routes_.end());
  return cells_[it->second.cell]->cluster().task(it->second.local);
}

uint32_t FederationCoordinator::CellOfTask(TaskId task) const {
  auto it = task_routes_.find(task);
  return it == task_routes_.end() ? kNoCell : it->second.cell;
}

uint32_t FederationCoordinator::CellOfJob(JobId job) const {
  auto it = job_routes_.find(job);
  return it == job_routes_.end() ? kNoCell : it->second.cell;
}

uint32_t FederationCoordinator::CellOfMachine(MachineId machine) const {
  auto it = machine_routes_.find(machine);
  return it == machine_routes_.end() ? kNoCell : it->second.cell;
}

int64_t FederationCoordinator::TotalSlots() const {
  int64_t total = 0;
  for (const auto& cell : cells_) total += cell->cluster().TotalSlots();
  return total;
}

int64_t FederationCoordinator::UsedSlots() const {
  int64_t used = 0;
  for (const auto& cell : cells_) used += cell->cluster().UsedSlots();
  return used;
}

SchedulerEventCounters FederationCoordinator::SummedEventCounters() const {
  SchedulerEventCounters sum = local_ignored_;
  for (const auto& cell : cells_) {
    const SchedulerEventCounters& c = cell->scheduler().event_counters();
    sum.ignored_machine_removals += c.ignored_machine_removals;
    sum.ignored_task_completions += c.ignored_task_completions;
    sum.ignored_task_submissions += c.ignored_task_submissions;
    sum.ignored_task_withdrawals += c.ignored_task_withdrawals;
  }
  return sum;
}

PlacementTemplateStats FederationCoordinator::SummedTemplateStats() const {
  PlacementTemplateStats sum;
  for (const auto& cell : cells_) {
    const PlacementTemplateStats& c = cell->scheduler().template_stats();
    sum.hits += c.hits;
    sum.misses += c.misses;
    sum.validation_failures += c.validation_failures;
    sum.recordings += c.recordings;
    sum.evictions += c.evictions;
  }
  return sum;
}

}  // namespace firmament
