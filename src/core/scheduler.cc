#include "src/core/scheduler.h"

#include <cstdio>
#include <utility>

#include "src/base/check.h"
#include "src/base/timer.h"

namespace firmament {

FirmamentScheduler::FirmamentScheduler(ClusterState* cluster, SchedulingPolicy* policy,
                                       FirmamentSchedulerOptions options)
    : cluster_(cluster),
      policy_(policy),
      graph_manager_(cluster, policy, options.graph),
      solver_(options.solver),
      integrity_checker_(cluster, &graph_manager_),
      check_integrity_(options.check_integrity),
      enable_templates_(options.enable_templates) {
  if (enable_templates_) {
    // Semantic class invalidations (MarkEquivClass, node-removal purges) and
    // wholesale class-cache clears cascade into the template layer: a
    // template is only as fresh as the class arcs it was solved against.
    graph_manager_.set_on_class_invalidated(
        [this](EquivClass ec) { template_cache_.EvictClass(ec); });
    graph_manager_.set_on_class_cache_cleared([this]() { template_cache_.Clear(); });
  }
}

MachineId FirmamentScheduler::AddMachine(RackId rack, const MachineSpec& spec) {
  MachineId machine = cluster_->AddMachine(rack, spec);
  if (round_in_flight_) {
    StagedEvent event;
    event.kind = StagedEvent::Kind::kMachineAdded;
    event.machine = machine;
    event_stage_.Stage(std::move(event));
  } else {
    graph_manager_.AddMachine(machine);
  }
  return machine;
}

void FirmamentScheduler::RemoveMachine(MachineId machine, SimTime now,
                                       std::function<void()> on_removed) {
  // Stale removal (unknown machine, or a duplicate delivery after the
  // machine already died): ignore per the idempotency contract. The
  // caller's on_removed notification is dropped with the event.
  if (machine >= cluster_->machines().size() || !cluster_->machine(machine).alive) {
    ++event_counters_.ignored_machine_removals;
    return;
  }
  // Locality-store ordering: the policy's OnMachineRemoved hook (inside the
  // graph manager's removal) collects the machine's replicas, whose readers
  // the next round dirties, so the store must still list them when the
  // hook runs. Callers pass their store notification as `on_removed`, which
  // runs right after the hook — immediately here on the sync path, at
  // staged replay when a round is in flight.
  // A dead machine invalidates every template that places on it, eagerly —
  // a lookup between this event and the staged graph replay must not hit a
  // placement targeting it. (The policy fingerprint moves too, but keys
  // recorded under the old topology would otherwise linger until capacity
  // pressure clears them.)
  if (enable_templates_) {
    template_cache_.EvictMachine(machine);
  }
  for (TaskId task : cluster_->RunningTasksOn(machine)) {
    cluster_->EvictTask(task, now);
  }
  if (round_in_flight_) {
    // The cluster half applies now (the machine reads dead, placements
    // extracted from the in-flight solve get dropped against it); the
    // graph half and the caller notification replay at ApplyRound.
    cluster_->RemoveMachine(machine);
    StagedEvent event;
    event.kind = StagedEvent::Kind::kMachineRemoved;
    event.machine = machine;
    event.after = std::move(on_removed);
    event_stage_.Stage(std::move(event));
    return;
  }
  graph_manager_.RemoveMachine(machine);
  cluster_->RemoveMachine(machine);
  if (on_removed) {
    on_removed();
  }
}

JobId FirmamentScheduler::SubmitJob(JobType type, int32_t priority,
                                    std::vector<TaskDescriptor> tasks, SimTime now,
                                    TemplateInstallResult* install) {
  WallTimer submit_timer;
  if (install != nullptr) {
    *install = {};
  }
  JobId job = cluster_->SubmitJob(type, priority, now);
  std::vector<TaskId> ids;
  ids.reserve(tasks.size());
  for (TaskDescriptor& task : tasks) {
    task.submit_time = now;
    task.state = TaskState::kWaiting;
    ids.push_back(cluster_->AddTaskToJob(job, std::move(task)));
  }
  if (enable_templates_ && !ids.empty() && TryTemplateInstall(job, ids, now, install)) {
    uint64_t install_us = submit_timer.ElapsedMicros();
    if (install != nullptr) {
      install->install_wall_us = install_us;
    }
    // Per-job wall time of the bypass — the fig14 "templated" series.
    template_install_latency_.Add(static_cast<double>(install_us) / 1e6);
    return job;
  }
  // Normal flow path: tasks enter the graph (staged when a round is in
  // flight) and become schedulable in the next solve.
  StagedEvent staged;
  staged.kind = StagedEvent::Kind::kTasksSubmitted;
  staged.time = now;
  for (TaskId id : ids) {
    if (round_in_flight_) {
      staged.tasks.push_back(id);
    } else if (!graph_manager_.AddTask(id, now)) {
      // The graph already tracks this id — a duplicate delivery raced the
      // original submission. The cluster-side descriptor was freshly minted
      // above, so the graph state stays authoritative; just count it.
      ++event_counters_.ignored_task_submissions;
    }
  }
  if (!staged.tasks.empty()) {
    event_stage_.Stage(std::move(staged));
  }
  if (install != nullptr) {
    install->install_wall_us = submit_timer.ElapsedMicros();
  }
  return job;
}

void FirmamentScheduler::DrainOutOfBandTemplateEvictions() {
  if (cluster_->out_of_band_machines().empty()) {
    return;
  }
  // mutable_machine edits change specs/costs under the cache's feet; any
  // template placing on an edited machine was solved against stale inputs.
  for (MachineId machine : cluster_->out_of_band_machines()) {
    template_cache_.EvictMachine(machine);
  }
  cluster_->ClearOutOfBandMachines();
}

bool FirmamentScheduler::TryTemplateInstall(JobId job, const std::vector<TaskId>& ids,
                                            SimTime now, TemplateInstallResult* install) {
  const TaskDescriptor& representative = cluster_->task(ids[0]);
  uint64_t fingerprint = policy_->TemplateFingerprint(representative);
  if (fingerprint == 0) {
    return false;  // policy opted out (or no machines yet)
  }
  DrainOutOfBandTemplateEvictions();
  if (install != nullptr) {
    install->eligible = true;
  }
  // Signature: the job's intrinsic shape. Tasks contribute their equivalence
  // class *in task order*, so the cached machine list below can be installed
  // positionally on an equal-signature job.
  const JobDescriptor& descriptor = cluster_->job(job);
  uint64_t signature = TemplateHashInit();
  signature = TemplateHashMix(signature, static_cast<uint64_t>(descriptor.type));
  signature = TemplateHashMix(signature, static_cast<uint64_t>(
                                             static_cast<int64_t>(descriptor.priority)));
  signature = TemplateHashMix(signature, ids.size());
  std::vector<EquivClass> classes;
  classes.reserve(ids.size());
  for (TaskId id : ids) {
    EquivClass ec = policy_->TaskEquivClass(cluster_->task(id));
    classes.push_back(ec);
    signature = TemplateHashMix(signature, ec);
  }
  TemplateKey key{signature, fingerprint};
  const PlacementTemplate* cached = template_cache_.Lookup(key);
  if (cached == nullptr) {
    pending_templates_[job] = {signature, std::move(classes), ids};
    return false;
  }
  if (install != nullptr) {
    install->hit = true;
  }
  // Validation: the cached assignment must fit *current* capacity exactly —
  // every target machine alive with enough free slots for the tasks the
  // template sends there. Anything else falls back to the solver, which
  // will produce placements byte-identical to a never-cached scheduler's
  // (the fast path has mutated nothing at this point).
  bool valid = cached->machines.size() == ids.size();
  if (valid) {
    std::unordered_map<MachineId, int32_t> demand;
    for (MachineId machine : cached->machines) {
      ++demand[machine];
    }
    for (const auto& [machine, count] : demand) {
      if (machine >= cluster_->machines().size() || !cluster_->machine(machine).alive ||
          cluster_->machine(machine).FreeSlots() < count) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    template_cache_.CountValidationFailure();
    template_cache_.Evict(key);
    if (install != nullptr) {
      install->validation_failed = true;
    }
    pending_templates_[job] = {signature, std::move(classes), ids};
    return false;
  }
  // Install: mint placements directly. The cluster half applies eagerly
  // (slots are consumed before any concurrent solve's deltas apply — the
  // ApplyRound capacity guard drops clashing solver deltas); the graph half
  // follows the staging contract like any other submission, and the next
  // UpdateRound refreshes the new nodes as dirty running tasks, so the
  // continuous reschedule keeps optimizing them.
  StagedEvent staged;
  staged.kind = StagedEvent::Kind::kTasksSubmitted;
  staged.time = now;
  for (size_t i = 0; i < ids.size(); ++i) {
    TaskId id = ids[i];
    if (round_in_flight_) {
      staged.tasks.push_back(id);
      midround_install_machines_.insert(cached->machines[i]);
    } else if (!graph_manager_.AddTask(id, now)) {
      ++event_counters_.ignored_task_submissions;
    }
    CHECK(cluster_->PlaceTask(id, cached->machines[i], now));
    placement_latency_.Add(0.0);
    SchedulingDelta delta;
    delta.kind = SchedulingDelta::Kind::kPlace;
    delta.task = id;
    delta.to = cached->machines[i];
    if (install != nullptr) {
      install->deltas.push_back(delta);
    }
  }
  if (!staged.tasks.empty()) {
    event_stage_.Stage(std::move(staged));
  }
  if (install != nullptr) {
    install->installed = true;
  }
  return true;
}

void FirmamentScheduler::CompleteTask(TaskId task, SimTime now) {
  // Stale completion (unknown task, a task evicted back to waiting before
  // the completion arrived, or a duplicate delivery): ignore per the
  // idempotency contract. Skipping all three steps keeps cluster and graph
  // in lockstep — a waiting task keeps its graph node and stays schedulable.
  if (!cluster_->HasTask(task) || cluster_->task(task).state != TaskState::kRunning) {
    ++event_counters_.ignored_task_completions;
    return;
  }
  cluster_->CompleteTask(task, now);
  if (round_in_flight_) {
    // ForgetTask defers with the graph removal: the policy's OnTaskRemoved
    // hook reads the descriptor, so the cluster keeps it (state kCompleted,
    // which placement extraction skips) until the staged replay.
    StagedEvent event;
    event.kind = StagedEvent::Kind::kTaskCompleted;
    event.task = task;
    event_stage_.Stage(std::move(event));
    return;
  }
  graph_manager_.RemoveTask(task);
  cluster_->ForgetTask(task);
}

bool FirmamentScheduler::WithdrawTask(TaskId task, SimTime now) {
  // Only a still-waiting task may be withdrawn: a placement that landed
  // since the caller decided to move the job wins the claim race, and a
  // duplicate withdraw is a counted no-op (same contract as completions).
  if (!cluster_->HasTask(task) || cluster_->task(task).state != TaskState::kWaiting) {
    ++event_counters_.ignored_task_withdrawals;
    return false;
  }
  cluster_->WithdrawTask(task, now);
  if (round_in_flight_) {
    // kCompleted is terminal either way, so the staged-completion replay
    // (graph RemoveTask, then ForgetTask) retires a withdrawal unchanged;
    // extraction skips the descriptor meanwhile.
    StagedEvent event;
    event.kind = StagedEvent::Kind::kTaskCompleted;
    event.task = task;
    event_stage_.Stage(std::move(event));
    return true;
  }
  graph_manager_.RemoveTask(task);
  cluster_->ForgetTask(task);
  return true;
}

uint64_t FirmamentScheduler::ReplayStagedEvents() {
  WallTimer timer;
  // Replayed after extraction, in arrival order. Each event's validity was
  // checked against (and its cluster half applied to) live cluster state at
  // arrival, so the graph halves below cannot turn stale: a machine slated
  // for removal still has its graph node, a completed task's descriptor is
  // retained until its ForgetTask here, and submitted task ids are fresh.
  for (StagedEvent& event : event_stage_.TakeStaged()) {
    switch (event.kind) {
      case StagedEvent::Kind::kMachineAdded:
        graph_manager_.AddMachine(event.machine);
        break;
      case StagedEvent::Kind::kMachineRemoved:
        graph_manager_.RemoveMachine(event.machine);
        if (event.after) {
          event.after();
        }
        break;
      case StagedEvent::Kind::kTasksSubmitted:
        for (TaskId task : event.tasks) {
          if (!graph_manager_.AddTask(task, event.time)) {
            ++event_counters_.ignored_task_submissions;
          }
        }
        break;
      case StagedEvent::Kind::kTaskCompleted:
        graph_manager_.RemoveTask(event.task);
        cluster_->ForgetTask(event.task);
        break;
    }
  }
  return timer.ElapsedMicros();
}

size_t FirmamentScheduler::WaitingTaskNodes() const {
  size_t staged = 0;
  for (const StagedEvent& event : event_stage_.staged()) {
    if (event.kind != StagedEvent::Kind::kTasksSubmitted) {
      continue;
    }
    for (TaskId task : event.tasks) {
      const TaskDescriptor* found = cluster_->FindTask(task);
      if (found != nullptr && found->state == TaskState::kWaiting) {
        ++staged;
      }
    }
  }
  return cluster_->num_waiting_tasks() - staged;
}

SchedulerRoundResult FirmamentScheduler::RunSchedulingRound(SimTime now) {
  StartRound(now);
  return ApplyRound(now);
}

void FirmamentScheduler::PrepareRound(SimTime now) {
  CHECK(!round_in_flight_);
  if (check_integrity_) {
    IntegrityReport report = integrity_checker_.Check();
    if (!report.clean()) {
      for (const std::string& violation : report.violations) {
        fprintf(stderr, "integrity: %s\n", violation.c_str());
      }
      std::vector<RecoveryAction> actions = integrity_checker_.Recover(now);
      // The rebuild swapped in a fresh network (new uid), so solver views
      // rebuild on their own; warm-start potentials from the old graph are
      // meaningless against it, drop them too.
      solver_.ResetState();
      pending_recovery_.insert(pending_recovery_.end(), actions.begin(), actions.end());
      IntegrityReport recheck = integrity_checker_.Check();
      for (const std::string& violation : recheck.violations) {
        fprintf(stderr, "integrity (post-recovery): %s\n", violation.c_str());
      }
      // Still dirty after rebuilding the graph from the cluster alone:
      // provably-impossible state, abort.
      CHECK(recheck.clean());
    }
  }
  // Tasks whose cluster state changed since the last round: the next
  // extraction revisits them (the update below drains the dirty set).
  scope_tasks_.insert(scope_tasks_.end(), cluster_->dirty_tasks().begin(),
                      cluster_->dirty_tasks().end());
  // Fig. 2b: update the graph before the solve. A non-optimal outcome
  // (infeasible cluster, budget-truncated approximate solve) is propagated
  // through the round result instead of aborting the scheduler.
  WallTimer update_timer;
  graph_manager_.UpdateRound(now);
  pending_graph_update_us_ = update_timer.ElapsedMicros();
  round_writebacks_ = graph_manager_.network()->flow_writebacks();
}

SolveStats FirmamentScheduler::StartRound(SimTime now) {
  PrepareRound(now);
  pending_solve_ = solver_.Solve(graph_manager_.network());
  algorithm_runtime_.Add(static_cast<double>(pending_solve_.runtime_us) / 1e6);
  round_in_flight_ = true;
  return pending_solve_;
}

void FirmamentScheduler::StartRoundAsync(SimTime now) {
  PrepareRound(now);
  // Flags flip before the dispatch: the caller (the service loop thread)
  // stages every event it applies from here on, so nothing the solve reads
  // — the network or the journal its views patch from — changes under it.
  round_in_flight_ = true;
  solve_in_flight_ = true;
  solver_.SolveAsync(graph_manager_.network());
}

bool FirmamentScheduler::RoundSolveDone() const {
  return !solve_in_flight_ || solver_.async_solve_done();
}

SolveStats FirmamentScheduler::WaitRound() {
  CHECK(round_in_flight_);
  if (solve_in_flight_) {
    pending_solve_ = solver_.WaitSolve();
    solve_in_flight_ = false;
    algorithm_runtime_.Add(static_cast<double>(pending_solve_.runtime_us) / 1e6);
  }
  return pending_solve_;
}

SchedulerRoundResult FirmamentScheduler::ApplyRound(SimTime now) {
  CHECK(round_in_flight_);
  WaitRound();  // no-op when the solve ran synchronously
  round_in_flight_ = false;
  WallTimer round_timer;
  SchedulerRoundResult result;
  result.solver_stats = pending_solve_;
  result.outcome = pending_solve_.outcome;
  result.algorithm_runtime_us = pending_solve_.runtime_us;
  result.graph_update_us = pending_graph_update_us_;
  result.recovery_actions = std::move(pending_recovery_);
  pending_recovery_.clear();

  const bool have_placements = pending_solve_.outcome == SolveOutcome::kOptimal ||
                               pending_solve_.outcome == SolveOutcome::kApproximate;
  if (!have_placements) {
    // Infeasible, cancelled, or degraded (solve budget expired) round: the
    // network carries no meaningful flow, so extracting placements would act
    // on stale state. Apply no deltas — running tasks keep running under
    // their previous placements, waiting tasks stay unscheduled — and let
    // the next round retry after further cluster changes. Staged
    // submissions already wait in the cluster, so they count too.
    result.tasks_unscheduled = cluster_->num_waiting_tasks();
    // Degraded/infeasible rounds still replay: staged events carry forward
    // into the next round's graph instead of being lost, and admitted tasks
    // keep their original submit timestamps for honest latency tails.
    result.staged_replay_us = ReplayStagedEvents();
    RecordPendingTemplates();
    midround_install_machines_.clear();
    result.total_runtime_us = round_timer.ElapsedMicros();
    return result;
  }

  // Scoped extraction (see the staging contract in scheduler.h). Tasks
  // changed mid-round are still in the cluster's dirty set.
  const FlowNetwork& net = *graph_manager_.network();
  scope_tasks_.insert(scope_tasks_.end(), cluster_->dirty_tasks().begin(),
                      cluster_->dirty_tasks().end());
  const bool optimal = pending_solve_.outcome == SolveOutcome::kOptimal;
  ExtractionResult extraction;
  const bool scoped = optimal && net.uid() == extracted_uid_ &&
                      net.flow_writebacks() == round_writebacks_ + 1 &&
                      extractor_.ExtractScoped(graph_manager_, scope_tasks_, &extraction);
  if (!scoped) {
    extraction = extractor_.ExtractAll(graph_manager_);
  }
  // An approximate flow leaves tasks unresolved, and their cluster state
  // unreconciled: the next round extracts in full.
  extracted_uid_ = optimal ? net.uid() : 0;
  scope_tasks_.clear();
  result.task_nodes = graph_manager_.num_task_nodes();
  result.tasks_extracted = extraction.placements.size();
  // A task node outside the scope holds the placement its flow gives it,
  // so a waiting one is routed to its unscheduled aggregator: each counts
  // as unscheduled, as the full diff would count it.
  const size_t waiting_nodes = scoped ? WaitingTaskNodes() : 0;
  size_t waiting_in_scope = 0;

  // A machine removed between StartRound and ApplyRound invalidates every
  // delta targeting it; those are dropped exactly like deltas for tasks that
  // completed mid-round. The free-slot check covers the other mid-round
  // capacity thief — a template install placing onto slots the in-flight
  // solve still believed were free — and applies ONLY to machines such an
  // install touched: the solver's own deltas legitimately pass through
  // transiently oversubscribed states during this diff (a place can precede
  // the preempt that frees its slot) and must not be dropped.
  auto machine_placeable = [&](MachineId machine) {
    if (machine >= cluster_->machines().size() || !cluster_->machine(machine).alive) {
      return false;
    }
    return midround_install_machines_.count(machine) == 0 ||
           cluster_->machine(machine).FreeSlots() > 0;
  };

  // Diff extracted placements against current task state.
  for (const auto& [task_id, machine] : extraction.placements) {
    const TaskDescriptor* found = cluster_->FindTask(task_id);
    if (found == nullptr) {
      continue;  // completed while the solver was running (and forgotten)
    }
    const TaskDescriptor& task = *found;
    if (task.state == TaskState::kCompleted) {
      // Completed mid-round with the graph half staged: the node (and its
      // flow) are still in the extraction, but the task needs no action —
      // its graph removal replays below.
      continue;
    }
    if (task.state == TaskState::kWaiting) {
      ++waiting_in_scope;
    }
    if (machine == kInvalidMachineId) {
      if (task.state == TaskState::kRunning) {
        // The optimal flow routes this task through its unscheduled
        // aggregator: preempt it.
        SchedulingDelta delta;
        delta.kind = SchedulingDelta::Kind::kPreempt;
        delta.task = task_id;
        delta.from = task.machine;
        cluster_->EvictTask(task_id, now);
        result.deltas.push_back(delta);
        ++result.tasks_preempted;
      } else {
        ++result.tasks_unscheduled;
      }
      continue;
    }
    if (task.state == TaskState::kWaiting) {
      if (!machine_placeable(machine)) {
        // Target machine died (or lost its slots to a mid-round template
        // install): drop the delta; the task stays waiting and reschedules
        // next round, which revisits it even if its flow stays put.
        ++result.deltas_dropped;
        ++result.tasks_unscheduled;
        scope_tasks_.push_back(task_id);
        continue;
      }
      SchedulingDelta delta;
      delta.kind = SchedulingDelta::Kind::kPlace;
      delta.task = task_id;
      delta.to = machine;
      cluster_->PlaceTask(task_id, machine, now);
      placement_latency_.Add(static_cast<double>(now - task.submit_time) / 1e6);
      result.deltas.push_back(delta);
      ++result.tasks_placed;
    } else if (task.state == TaskState::kRunning && task.machine != machine) {
      if (!machine_placeable(machine)) {
        // Migration target died (or filled up) mid-round: drop the delta
        // BEFORE evicting, so the task keeps running where it is instead of
        // being stranded waiting by an evict-then-failed-place pair.
        ++result.deltas_dropped;
        scope_tasks_.push_back(task_id);
        continue;
      }
      SchedulingDelta delta;
      delta.kind = SchedulingDelta::Kind::kMigrate;
      delta.task = task_id;
      delta.from = task.machine;
      delta.to = machine;
      cluster_->EvictTask(task_id, now);
      cluster_->PlaceTask(task_id, machine, now);
      result.deltas.push_back(delta);
      ++result.tasks_migrated;
    }
    // Running on the same machine: no action.
  }
  if (scoped) {
    DCHECK_GE(waiting_nodes, waiting_in_scope);
    result.tasks_unscheduled += waiting_nodes - waiting_in_scope;
  }

  // Staged graph mutations replay *after* extraction: events that arrived
  // mid-round belong to the next round, and the solved flow must be diffed
  // against the graph the solver actually saw. This is also what makes the
  // pipelined loop placement-identical to a serialized one — the serialized
  // loop applies the same events after the round, in the same order.
  result.staged_replay_us = ReplayStagedEvents();
  RecordPendingTemplates();
  midround_install_machines_.clear();

  result.total_runtime_us = round_timer.ElapsedMicros();
  return result;
}

void FirmamentScheduler::RecordPendingTemplates() {
  if (!enable_templates_ || pending_templates_.empty()) {
    return;
  }
  DrainOutOfBandTemplateEvictions();
  for (auto it = pending_templates_.begin(); it != pending_templates_.end();) {
    const PendingTemplate& pending = it->second;
    bool all_running = true;
    bool dead = false;
    for (TaskId task : pending.tasks) {
      if (!cluster_->HasTask(task)) {
        dead = true;  // completed-and-forgotten before a full placement held
        break;
      }
      TaskState state = cluster_->task(task).state;
      if (state == TaskState::kCompleted) {
        dead = true;
        break;
      }
      if (state != TaskState::kRunning) {
        all_running = false;
        break;
      }
    }
    if (dead) {
      it = pending_templates_.erase(it);
      continue;
    }
    if (!all_running) {
      ++it;  // partial placement: wait for a later round to finish the job
      continue;
    }
    // Fingerprint against the topology the placement actually holds on —
    // the submit-time topology may have changed while the job waited.
    uint64_t fingerprint =
        policy_->TemplateFingerprint(cluster_->task(pending.tasks[0]));
    if (fingerprint != 0) {
      std::vector<MachineId> machines;
      machines.reserve(pending.tasks.size());
      for (TaskId task : pending.tasks) {
        machines.push_back(cluster_->task(task).machine);
      }
      template_cache_.Record({pending.signature, fingerprint}, std::move(machines),
                             it->second.classes);
    }
    it = pending_templates_.erase(it);
  }
}

void FirmamentScheduler::ClearMetrics() {
  placement_latency_.Clear();
  algorithm_runtime_.Clear();
  template_install_latency_.Clear();
}

}  // namespace firmament
