#include "src/federation/federation_coordinator.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/core/flow_graph_manager.h"
#include "src/flow/graph.h"
#include "src/solvers/successive_shortest_path.h"

namespace firmament {

namespace {

// Spill cap per job, so a cluster-wide capacity crunch cannot bounce a job
// between cells forever.
constexpr size_t kMaxSpillsPerJob = 3;
// Rebalance flow arc costs: moving one task between cells vs leaving it
// queued where it is. move < stay makes the solver move work wherever
// spare capacity exists.
constexpr int64_t kRebalanceMoveCost = 1;
constexpr int64_t kRebalanceStayCost = 8;

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
  size_t threads = options_.threads;
  if (threads == static_cast<size_t>(-1)) {
    threads = std::min(cells - 1, ThreadPool::DefaultThreads());
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  waiting_cache_.assign(cells, 0);
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
  const uint32_t target = RouteJob(tasks);
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
  if (!local_install.installed) {
    waiting_cache_[target] += static_cast<int64_t>(task_count);
  }
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
  return cells_[cell]->FreeSlots() - waiting_cache_[cell];
}

uint32_t FederationCoordinator::RouteJob(const std::vector<TaskDescriptor>& tasks) {
  if (cells_.size() == 1) {
    return 0;
  }
  if (locality_ != nullptr) {
    // Locality-first: the cell holding the most input bytes across the
    // job's candidate machines wins, provided it has room for the job.
    std::vector<int64_t> bytes(cells_.size(), 0);
    std::vector<MachineId> candidates;
    for (const TaskDescriptor& task : tasks) {
      candidates.clear();
      locality_->CandidateMachines(task, &candidates);
      for (MachineId machine : candidates) {
        auto it = machine_routes_.find(machine);
        if (it == machine_routes_.end()) continue;
        bytes[it->second.cell] += locality_->BytesOnMachine(task, machine);
      }
    }
    uint32_t best = kNoCell;
    int64_t best_bytes = 0;
    for (uint32_t c = 0; c < cells_.size(); ++c) {
      if (bytes[c] > best_bytes &&
          CellHeadroom(c) >= static_cast<int64_t>(tasks.size())) {
        best = c;
        best_bytes = bytes[c];
      }
    }
    if (best != kNoCell) {
      ++counters_.jobs_routed_by_locality;
      return best;
    }
  }
  // Least-loaded fallback: max headroom, ties to the lowest index (strict >
  // keeps it deterministic).
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

// --- spill / move ----------------------------------------------------------

uint32_t FederationCoordinator::PickSpillTarget(uint32_t origin, size_t tasks) const {
  uint32_t best = origin;
  int64_t best_headroom = CellHeadroom(origin);
  for (uint32_t c = 0; c < cells_.size(); ++c) {
    if (c == origin) continue;
    int64_t headroom = CellHeadroom(c);
    if (headroom >= static_cast<int64_t>(tasks) && headroom > best_headroom) {
      best = c;
      best_headroom = headroom;
    }
  }
  return best;
}

bool FederationCoordinator::MoveJob(JobId job, uint32_t target_cell, SimTime now,
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
    // banked total — a spilled job keeps its seniority.
    copy.total_wait += now - src.submit_time;
    descs.push_back(std::move(copy));
    live_globals.push_back(gtask);
  }
  if (live_globals.empty()) {
    return false;
  }
  // Withdraw from the origin. The caller pre-checked every task is still
  // waiting and nothing ran in between on this thread, so the withdraws
  // must succeed; WithdrawTask's ignore counter remains the backstop for
  // any future caller that skips the pre-check.
  for (TaskId gtask : live_globals) {
    TaskRoute tr = task_routes_.at(gtask);
    CHECK(origin.scheduler().WithdrawTask(tr.local, now));
    origin.UnmapTask(tr.local);
  }
  waiting_cache_[origin_cell] -=
      std::min<int64_t>(waiting_cache_[origin_cell], live_globals.size());

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
  } else {
    waiting_cache_[target_cell] += static_cast<int64_t>(route.global_tasks.size());
  }
  return true;
}

void FederationCoordinator::ExecutePendingSpills(SimTime now,
                                                 FederationRoundResult* result) {
  if (pending_spills_.empty()) {
    return;
  }
  std::vector<JobId> batch;
  batch.swap(pending_spills_);
  for (JobId job : batch) {
    auto it = job_routes_.find(job);
    if (it == job_routes_.end()) continue;  // completed since the decision
    JobRoute& route = it->second;
    route.pending_spill = false;
    CellScheduler& origin = *cells_[route.cell];
    // Duplicate-claim detection: the origin cell may have placed (part of)
    // the job since the spill was decided last round. Its claim wins — the
    // move aborts as a counted no-op and the wait clock restarts.
    bool all_waiting = true;
    size_t live = 0;
    for (TaskId gtask : route.global_tasks) {
      auto tr = task_routes_.find(gtask);
      if (tr == task_routes_.end()) continue;
      ++live;
      if (origin.cluster().task(tr->second.local).state != TaskState::kWaiting) {
        all_waiting = false;
        break;
      }
    }
    if (live == 0) continue;
    if (!all_waiting) {
      ++counters_.spill_conflicts;
      ++result->spill_conflicts;
      route.wait_rounds = 0;
      continue;
    }
    uint32_t target = PickSpillTarget(route.cell, live);
    if (target == route.cell) {
      continue;  // headroom evaporated; wait accounting may re-queue later
    }
    if (MoveJob(job, target, now, result)) {
      ++counters_.spills;
      ++result->spills;
      ++route.spill_count;
      route.wait_rounds = 0;
    }
  }
}

// --- rebalance -------------------------------------------------------------

void FederationCoordinator::RebalancePass(SimTime now, FederationRoundResult* result) {
  if (cells_.size() < 2) {
    return;
  }
  ++counters_.rebalance_passes;
  const size_t n = cells_.size();
  std::vector<int64_t> surplus(n, 0), spare(n, 0);
  int64_t total_surplus = 0, total_spare = 0;
  for (size_t c = 0; c < n; ++c) {
    const int64_t waiting = waiting_cache_[c];
    const int64_t free_slots = cells_[c]->FreeSlots();
    surplus[c] = std::max<int64_t>(0, waiting - free_slots);
    spare[c] = std::max<int64_t>(0, free_slots - waiting);
    total_surplus += surplus[c];
    total_spare += spare[c];
  }
  if (total_surplus == 0 || total_spare == 0) {
    return;
  }
  // Small flow problem over cell aggregates: donors supply their surplus,
  // receivers absorb up to their spare, moving costs kRebalanceMoveCost
  // per task; the escape arc (stay queued at home) costs more, so flow
  // moves exactly where spare capacity exists and nowhere else.
  FlowNetwork net;
  NodeId sink = net.AddNode(-total_surplus, NodeKind::kSink);
  std::vector<NodeId> receiver(n, kInvalidNodeId);
  for (size_t c = 0; c < n; ++c) {
    if (spare[c] > 0) {
      receiver[c] = net.AddNode(0, NodeKind::kAggregator);
      net.AddArc(receiver[c], sink, spare[c], 0);
    }
  }
  // arc -> (donor, receiver) so non-zero flows map back to move quotas.
  std::vector<std::pair<ArcId, std::pair<uint32_t, uint32_t>>> move_arcs;
  for (size_t i = 0; i < n; ++i) {
    if (surplus[i] == 0) continue;
    NodeId donor = net.AddNode(surplus[i], NodeKind::kAggregator);
    net.AddArc(donor, sink, surplus[i], kRebalanceStayCost);
    for (size_t j = 0; j < n; ++j) {
      if (j == i || receiver[j] == kInvalidNodeId) continue;
      ArcId arc = net.AddArc(donor, receiver[j], std::min(surplus[i], spare[j]),
                             kRebalanceMoveCost);
      move_arcs.push_back({arc, {static_cast<uint32_t>(i), static_cast<uint32_t>(j)}});
    }
  }
  SuccessiveShortestPath solver;
  SolveStats stats = solver.Solve(&net);
  if (stats.outcome != SolveOutcome::kOptimal) {
    return;  // escape arcs make this unreachable, but stay defensive
  }
  for (const auto& [arc, pair] : move_arcs) {
    const int64_t quota = net.Flow(arc);
    if (quota > 0) {
      MoveWaitingJobs(pair.first, pair.second, quota, now, result);
    }
  }
}

void FederationCoordinator::MoveWaitingJobs(uint32_t from, uint32_t to,
                                            int64_t task_quota, SimTime now,
                                            FederationRoundResult* result) {
  // Candidates: jobs in `from` that are fully waiting and have waited at
  // least one full round (fresh submissions get their home-cell chance
  // first). Collected then sorted so the unordered_map's iteration order
  // cannot leak into behavior — longest-waiting first, ties by global id.
  std::vector<std::pair<size_t, JobId>> candidates;
  CellScheduler& origin = *cells_[from];
  for (const auto& [job, route] : job_routes_) {
    if (route.cell != from || route.pending_spill || route.wait_rounds < 1) continue;
    if (static_cast<int64_t>(route.live) > task_quota) continue;
    bool all_waiting = route.live > 0;
    for (TaskId gtask : route.global_tasks) {
      auto tr = task_routes_.find(gtask);
      if (tr == task_routes_.end()) continue;
      if (origin.cluster().task(tr->second.local).state != TaskState::kWaiting) {
        all_waiting = false;
        break;
      }
    }
    if (all_waiting) {
      candidates.push_back({route.wait_rounds, job});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [wait, job] : candidates) {
    JobRoute& route = job_routes_.at(job);
    if (static_cast<int64_t>(route.live) > task_quota) continue;
    if (MoveJob(job, to, now, result)) {
      task_quota -= static_cast<int64_t>(route.live);
      route.wait_rounds = 0;
      ++counters_.rebalance_moves;
      ++result->rebalance_moves;
      if (task_quota <= 0) break;
    }
  }
}

// --- round -----------------------------------------------------------------

void FederationCoordinator::SplitSolveBudget() {
  last_budget_split_.assign(cells_.size(), 0);
  if (options_.solve_budget_us == 0) {
    return;
  }
  // Live graph size is the best single predictor of solve work, so each
  // solving cell gets a proportional share of the global budget. Floors
  // round down (sum <= global); a solving cell never gets 0, which would
  // mean "unlimited" to the solver.
  std::vector<size_t> size(cells_.size(), 0);
  size_t total = 0;
  for (size_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c]->cluster().num_tasks() > 0 ||
        cells_[c]->scheduler().graph_manager().num_task_nodes() > 0) {
      size[c] = cells_[c]->LiveGraphNodes();
      total += size[c];
    }
  }
  if (total == 0) {
    return;
  }
  for (size_t c = 0; c < cells_.size(); ++c) {
    if (size[c] == 0) continue;
    uint64_t share = options_.solve_budget_us * size[c] / total;
    if (share == 0) share = 1;
    last_budget_split_[c] = share;
    cells_[c]->scheduler().solver().set_solve_budget_us(share);
  }
}

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

void FederationCoordinator::UpdateWaitAccounting(const std::vector<uint8_t>& ran,
                                                 FederationRoundResult* result) {
  // Exact waiting counts replace the between-rounds estimates — but only
  // for cells that ran; a skipped cell's cache is still exact, since clean
  // means no event touched it after its last recompute.
  for (size_t c = 0; c < cells_.size(); ++c) {
    if (!ran[c]) continue;
    waiting_cache_[c] = static_cast<int64_t>(cells_[c]->WaitingTasks());
    // A cell ending its round with zero waiting tasks has a static graph
    // until the next routed event (no unscheduled-cost ramp left to climb),
    // so it is clean and skippable. A degraded/infeasible outcome keeps it
    // dirty regardless: the solver owes the cell a retry.
    cell_dirty_[c] = waiting_cache_[c] > 0 ||
                     OutcomeSeverity(result->cell_outcomes[c]) >= 2;
  }
  if (cells_.size() < 2) {
    return;
  }
  for (auto& [job, route] : job_routes_) {
    if (waiting_cache_[route.cell] == 0) {
      // No waiting tasks anywhere in the cell: nothing of this job waits.
      route.wait_rounds = 0;
      continue;
    }
    bool any_waiting = false;
    bool any_running = false;
    CellScheduler& cell = *cells_[route.cell];
    for (TaskId gtask : route.global_tasks) {
      auto tr = task_routes_.find(gtask);
      if (tr == task_routes_.end()) continue;
      TaskState state = cell.cluster().task(tr->second.local).state;
      if (state == TaskState::kWaiting) any_waiting = true;
      if (state == TaskState::kRunning) any_running = true;
    }
    if (!any_waiting || any_running) {
      // Partially-placed jobs stay home: spilling would tear the job across
      // cells and fight the cell's own placement momentum.
      route.wait_rounds = 0;
      continue;
    }
    ++route.wait_rounds;
    if (!route.pending_spill && route.wait_rounds >= options_.spill_after_rounds &&
        route.spill_count < kMaxSpillsPerJob &&
        PickSpillTarget(route.cell, route.live) != route.cell) {
      // Queue only when a viable sibling exists *now*; execution next round
      // re-validates both the headroom and the still-waiting claim. This
      // keeps an all-full cluster quiescent instead of spinning followups.
      route.pending_spill = true;
      pending_spills_.push_back(job);
    }
  }
}

FederationRoundResult FederationCoordinator::RunRound(SimTime now) {
  FederationRoundResult result;
  result.cell_outcomes.assign(cells_.size(), SolveOutcome::kOptimal);
  ++round_seq_;
  ++counters_.rounds;

  ExecutePendingSpills(now, &result);
  if (options_.rebalance_every_rounds > 0 &&
      round_seq_ % options_.rebalance_every_rounds == 0) {
    RebalancePass(now, &result);
  }
  SplitSolveBudget();

  // Decide which cells run before fanning out: idle cells (nothing live,
  // nothing pending in the graph) and clean cells (no routed event since
  // their last round, zero waiting tasks — so a provably unchanged graph)
  // skip the round entirely. This is where a federated round's cost scales
  // with the active cells instead of the whole cluster.
  std::vector<SchedulerRoundResult> rounds(cells_.size());
  std::vector<uint8_t> ran(cells_.size(), 0);
  for (size_t i = 0; i < cells_.size(); ++i) {
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
    ran[i] = 1;
  }

  // Concurrent per-cell rounds. Cells share no mutable state (each owns its
  // cluster, graph, solver, and template cache); ParallelFor's barrier
  // orders every cell's writes before the single-threaded merge below.
  pool_->ParallelFor(cells_.size(), [&](size_t i) {
    if (!ran[i]) {
      return;
    }
    rounds[i] = cells_[i]->scheduler().RunSchedulingRound(now);
  });

  bool any_degraded = false;
  int worst = -1;
  bool all_infeasible = true;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (!ran[i]) continue;
    ++result.cells_run;
    result.cell_outcomes[i] = rounds[i].outcome;
    MergeCellRound(*cells_[i], rounds[i], &result);
    any_degraded |= rounds[i].outcome == SolveOutcome::kDegraded;
    if (OutcomeSeverity(rounds[i].outcome) < 3) {
      all_infeasible = false;
      worst = std::max(worst, OutcomeSeverity(rounds[i].outcome));
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

  UpdateWaitAccounting(ran, &result);
  result.needs_followup = result.spills > 0 || result.rebalance_moves > 0 ||
                          result.merged.tasks_preempted > 0 || any_degraded ||
                          !pending_spills_.empty();
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
