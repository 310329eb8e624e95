// The Firmament scheduler (§3, Fig. 4): ties cluster state, the scheduling
// policy, the flow graph manager, the racing MCMF solver, and placement
// extraction into scheduling rounds.
//
// A round follows Fig. 2b: apply accumulated cluster changes to the graph,
// run the solver, extract placements from the optimal flow, and turn the
// diff against current state into place/preempt/migrate actions. Because
// the whole workload is rescheduled continuously, preemption and migration
// fall out of the optimization rather than being special-cased.

#ifndef SRC_CORE_SCHEDULER_H_
#define SRC_CORE_SCHEDULER_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/base/metrics.h"
#include "src/core/cluster.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/integrity_checker.h"
#include "src/core/placement_extractor.h"
#include "src/core/placement_template.h"
#include "src/core/scheduling_policy.h"
#include "src/core/types.h"
#include "src/solvers/racing_solver.h"

namespace firmament {

// One task-level action decided by a scheduling round.
struct SchedulingDelta {
  enum class Kind : uint8_t { kPlace, kPreempt, kMigrate };
  Kind kind = Kind::kPlace;
  TaskId task = kInvalidTaskId;
  MachineId from = kInvalidMachineId;  // kPreempt/kMigrate
  MachineId to = kInvalidMachineId;    // kPlace/kMigrate
};

struct SchedulerRoundResult {
  // At most one delta per task, in ascending TaskId order. The order does
  // not depend on how the placements were extracted (scoped or full), on
  // node ids, or on hash-map iteration. (A federated round concatenates its
  // cells' rounds in cell order, each in its cell's local TaskId order.)
  std::vector<SchedulingDelta> deltas;
  SolveStats solver_stats;
  // Outcome of the round's solve. kOptimal and kApproximate rounds produce
  // placements; an infeasible round (e.g. an oversubscribed cluster after
  // RemoveMachine) applies no deltas and leaves waiting tasks unscheduled —
  // it does NOT abort the scheduler, which retries next round. A kDegraded
  // round (solve_budget_us expired before a usable flow existed) likewise
  // applies no deltas: running tasks keep their previous placements
  // untouched and waiting tasks stay waiting until the next round.
  SolveOutcome outcome = SolveOutcome::kOptimal;
  uint64_t algorithm_runtime_us = 0;  // solver wall time (Fig. 2b)
  // Wall time of the round's graph-update pass (stats drain + policy arc
  // deltas, §6.3) — the "total minus algorithm" slice of Fig. 2b that the
  // delta-driven policy API keeps O(|changed|).
  uint64_t graph_update_us = 0;
  // Wall time of ApplyRound after the solve: placement extraction, the diff
  // against cluster state, staged replay and template recording (the graph
  // update and the solve are the two fields above).
  uint64_t total_runtime_us = 0;
  // The staged-replay share of total_runtime_us (events that arrived while
  // the round was in flight, replayed into the graph after the diff).
  uint64_t staged_replay_us = 0;
  // Task nodes in the solved graph, and how many of them the apply
  // resolved and diffed: all of them on a full extraction, only the ones
  // whose placement can have changed on a scoped one.
  size_t task_nodes = 0;
  size_t tasks_extracted = 0;
  size_t tasks_placed = 0;
  size_t tasks_preempted = 0;
  size_t tasks_migrated = 0;
  size_t tasks_unscheduled = 0;
  // Solver deltas dropped at apply time because their target machine was
  // removed between StartRound and ApplyRound (mirrors the completed-task
  // drop in the phase-split contract above).
  size_t deltas_dropped = 0;
  // Repairs performed by the integrity checker before this round's solve
  // (empty unless FirmamentSchedulerOptions::check_integrity found damage).
  std::vector<RecoveryAction> recovery_actions;
};

// Counters for cluster events that arrived stale (duplicated, raced with a
// failure, or targeting an already-finished entity) and were ignored instead
// of CHECK-aborting. See the idempotency contract on the event methods.
struct SchedulerEventCounters {
  size_t ignored_machine_removals = 0;  // machine unknown or already dead
  size_t ignored_task_completions = 0;  // task unknown, waiting, or done
  size_t ignored_task_submissions = 0;  // task already tracked by the graph
  size_t ignored_task_withdrawals = 0;  // task unknown, running, or done
};

struct FirmamentSchedulerOptions {
  RacingSolverOptions solver;
  FlowGraphManagerOptions graph;
  // When true, every round starts with a cross-layer IntegrityChecker pass;
  // a dirty report triggers Recover() (drop caches, rebuild the graph from
  // the cluster, reset solver state) and the actions taken are surfaced in
  // SchedulerRoundResult::recovery_actions. A report that is still dirty
  // after a full rebuild is provably impossible and aborts.
  bool check_integrity = false;
  // Placement templates (see placement_template.h): cache whole solved
  // placements keyed on (equivalence-class signature, policy neighborhood
  // fingerprint) and install them at SubmitJob time — validated against
  // live capacities — without entering the graph update or the solver.
  // Off by default; policies whose TemplateFingerprint returns 0 stay on
  // the solver path even when enabled.
  bool enable_templates = false;
};

// Outcome of the template fast path for one SubmitJob call (all false when
// templates are disabled or the policy opted out). `deltas` carries the
// minted kPlace actions of an install so callers (service, simulator) can
// run their per-placement bookkeeping without a scheduling round.
struct TemplateInstallResult {
  bool eligible = false;           // templates on and fingerprint != 0
  bool hit = false;                // key matched a cached placement
  bool validation_failed = false;  // hit, but capacities rejected it
  bool installed = false;          // placements applied, solver bypassed
  uint64_t install_wall_us = 0;    // wall time of the whole fast path
  std::vector<SchedulingDelta> deltas;
};

class FirmamentScheduler {
 public:
  FirmamentScheduler(ClusterState* cluster, SchedulingPolicy* policy,
                     FirmamentSchedulerOptions options = {});

  FirmamentScheduler(const FirmamentScheduler&) = delete;
  FirmamentScheduler& operator=(const FirmamentScheduler&) = delete;

  // --- Cluster events (mirrored into the flow graph) ------------------------
  // Idempotency contract: event delivery under failures is at-least-once
  // (a fault injector, a flaky agent, or a replayed trace may deliver the
  // same event twice, or deliver it after the entity it targets is gone).
  // Stale events — RemoveMachine on a dead/unknown machine, CompleteTask on
  // a waiting/unknown/finished task, a task submission the graph already
  // tracks — are therefore *ignored* (no state change) and counted in
  // event_counters() rather than CHECK-aborting the control loop.
  //
  // Staging contract (pipelined rounds): between StartRound/StartRoundAsync
  // and ApplyRound, every event method splits. The ClusterState half applies
  // immediately — ids are minted, statistics and dirty sets update, and the
  // idempotency checks above stay exact — because the solver never reads
  // ClusterState. The flow-graph half (FlowGraphManager mutations *and* the
  // policy hooks they run, which create/remove aggregator nodes) is staged
  // and replayed by ApplyRound after placement extraction, so nothing
  // mutates the network or the journal a solve in flight is reading. The
  // replay order is arrival order; validity was already established against
  // cluster state at arrival, so a replayed mutation never turns stale.
  // ApplyRound extracts only the task nodes whose placement can differ from
  // cluster state: those whose out-arc flow the solve changed, those routed
  // through an aggregator, those whose cluster state changed since the last
  // round (mid-round ones included: a failure's evictions), and those whose
  // delta the last round dropped. Every other task node already holds the
  // placement its flow gives it. The first round, a rebuilt network
  // (integrity recovery), a round whose flow did not come from exactly one
  // write-back, and an approximate solve and the round after it extract in
  // full.
  MachineId AddMachine(RackId rack, const MachineSpec& spec);
  // Evicts running tasks (back to waiting) and removes the machine.
  // `on_removed` is the caller's post-removal notification (e.g. dropping
  // the machine's replicas from a locality store): it must run after the
  // policy's OnMachineRemoved hook has read the store, and under staging
  // that hook is deferred — passing the notification here defers it with
  // the hook instead of racing ahead of it.
  void RemoveMachine(MachineId machine, SimTime now, std::function<void()> on_removed = {});
  // Submits a job; tasks become schedulable in the next round — unless the
  // template fast path installs a cached placement immediately (enabled
  // schedulers only; see FirmamentSchedulerOptions::enable_templates).
  // `install` (optional) reports what the fast path did.
  JobId SubmitJob(JobType type, int32_t priority, std::vector<TaskDescriptor> tasks,
                  SimTime now, TemplateInstallResult* install = nullptr);
  // Marks a running task completed and removes it from the graph.
  void CompleteTask(TaskId task, SimTime now);

  // Retires a *waiting* task without running it — the federation
  // coordinator's move pass, which resubmits the job in a
  // sibling cell. Idempotent duplicate-claim backstop: if the task was
  // placed (this cell claimed it) or completed since the withdraw was
  // decided, nothing changes, ignored_task_withdrawals is bumped, and
  // false comes back so the caller aborts the move — the local claim wins.
  bool WithdrawTask(TaskId task, SimTime now);

  // --- Scheduling ---------------------------------------------------------------
  SchedulerRoundResult RunSchedulingRound(SimTime now);

  // Phase-split round for simulators (Fig. 2b): StartRound updates the graph
  // and runs the solver against the state at `now`; ApplyRound extracts the
  // placements and applies them at `apply_time` (= now + measured solver
  // runtime in the simulator). Cluster events may be applied in between
  // (their graph half stages; see above); deltas affecting since-completed
  // tasks or since-removed machines are dropped.
  SolveStats StartRound(SimTime now);
  SchedulerRoundResult ApplyRound(SimTime apply_time);

  // Pipelined variant: StartRoundAsync updates the graph on the calling
  // thread, then hands the solve to the racing solver's dispatch worker and
  // returns. The caller keeps ingesting events (which stage) while the
  // solve runs, polls RoundSolveDone(), and finishes with ApplyRound —
  // which joins the solve if it is still in flight. WaitRound() joins
  // explicitly and returns the solve stats (what StartRound returns).
  void StartRoundAsync(SimTime now);
  bool RoundSolveDone() const;
  SolveStats WaitRound();

  bool round_in_flight() const { return round_in_flight_; }
  // Events currently staged for replay at the next ApplyRound, and the
  // monotonic total ever staged.
  size_t staged_events() const { return event_stage_.staged_count(); }
  uint64_t total_staged_events() const { return event_stage_.total_staged(); }

  // --- Introspection ---------------------------------------------------------------
  ClusterState& cluster() { return *cluster_; }
  FlowGraphManager& graph_manager() { return graph_manager_; }
  RacingSolver& solver() { return solver_; }
  // Placement latency samples in seconds (submission -> placement, Fig. 14).
  const Distribution& placement_latency() const { return placement_latency_; }
  // Solver algorithm runtime samples in seconds (Fig. 3 / Fig. 7 metric).
  const Distribution& algorithm_runtime() const { return algorithm_runtime_; }
  // Stale-event counters (see the idempotency contract above).
  const SchedulerEventCounters& event_counters() const { return event_counters_; }
  // Placement-template introspection. Stats are cumulative (per-round
  // windows land in SchedulerRoundResult::solver_stats); the install
  // latency distribution samples the fast path's wall time per task in
  // seconds — the fig14 "templated" series.
  bool templates_enabled() const { return enable_templates_; }
  const PlacementTemplateStats& template_stats() const { return template_cache_.stats(); }
  size_t template_cache_size() const { return template_cache_.size(); }
  const Distribution& template_install_latency() const { return template_install_latency_; }
  void ClearMetrics();

 private:
  // A solved-but-not-yet-recorded template candidate: the job missed (or
  // failed validation) at submit time; once every task is running — i.e.
  // the solver has placed the whole job — ApplyRound records the placement
  // under the signature, with the fingerprint recomputed against the
  // topology that placement was actually made on.
  struct PendingTemplate {
    uint64_t signature = 0;
    std::vector<EquivClass> classes;
    std::vector<TaskId> tasks;
  };

  // Integrity pass + graph update: everything StartRound does before the
  // solve, shared by the sync and async variants.
  void PrepareRound(SimTime now);
  // Applies the graph half of events staged while the round was in flight;
  // returns its wall time in microseconds.
  uint64_t ReplayStagedEvents();
  // Waiting tasks that have a node in the graph (staged submissions have
  // none yet).
  size_t WaitingTaskNodes() const;
  // The template fast path for one freshly minted job (ids in task order).
  // Returns true if a cached placement was validated and installed.
  bool TryTemplateInstall(JobId job, const std::vector<TaskId>& ids, SimTime now,
                          TemplateInstallResult* install);
  // Evicts templates touching machines edited out-of-band via
  // ClusterState::mutable_machine since the last drain.
  void DrainOutOfBandTemplateEvictions();
  // Records pending templates whose jobs are now fully placed.
  void RecordPendingTemplates();

  ClusterState* cluster_;
  SchedulingPolicy* policy_;
  FlowGraphManager graph_manager_;
  RacingSolver solver_;
  IntegrityChecker integrity_checker_;
  bool check_integrity_ = false;
  bool enable_templates_ = false;
  PlacementTemplateCache template_cache_;
  std::unordered_map<JobId, PendingTemplate> pending_templates_;
  // Machines whose slots a template install consumed while a round was in
  // flight: the in-flight solve still believes those slots are free, so
  // ApplyRound re-checks capacity for deltas targeting exactly these
  // machines (and only these — the solver's own deltas go through
  // transiently oversubscribed states mid-diff, e.g. a place processed
  // before the preempt that frees its slot, and must not be dropped).
  std::set<MachineId> midround_install_machines_;
  Distribution template_install_latency_;
  Distribution placement_latency_;
  Distribution algorithm_runtime_;
  SchedulerEventCounters event_counters_;
  SolveStats pending_solve_;
  uint64_t pending_graph_update_us_ = 0;
  // Scoped extraction state: the extractor's aggregator-arc index, the
  // tasks the next extraction must revisit (cluster-state changes since the
  // last extraction, dropped deltas), the network uid the last extraction
  // left consistent with cluster state (0: none, extract in full), and the
  // network's write-back count when the current round's solve started.
  ScopedExtractor extractor_;
  std::vector<TaskId> scope_tasks_;
  uint64_t extracted_uid_ = 0;
  uint64_t round_writebacks_ = 0;
  // Repairs performed by the StartRound integrity pass, handed to the next
  // ApplyRound's result.
  std::vector<RecoveryAction> pending_recovery_;
  bool round_in_flight_ = false;
  // True between StartRoundAsync and WaitRound: the solve is (possibly)
  // still running on the solver's dispatch worker.
  bool solve_in_flight_ = false;
  EventStage event_stage_;
};

}  // namespace firmament

#endif  // SRC_CORE_SCHEDULER_H_
