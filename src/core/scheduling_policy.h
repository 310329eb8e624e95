// Scheduling policy (cost model) API v2 (§3.3, §6.3).
//
// A policy shapes the flow network: which aggregator nodes exist, which arcs
// tasks and aggregators get, and what the costs/capacities are. Firmament
// generalizes Quincy's single policy to arbitrary aggregator structures; the
// three policies used in the paper (load-spreading, Quincy, network-aware)
// are implemented against this interface.
//
// v2 is change-driven: instead of the manager pulling every task's and
// aggregator's arcs every round (O(cluster) per round — the continuous-
// rescan cost §6.3 warns about), the manager hands the policy a PolicyUpdate
// carrying typed dirty sets once per round, and the policy translates them
// into the entities whose arcs actually need recomputation. Three
// ingredients keep the per-round graph update O(|changed|):
//
//  * Dirty sets. The manager and cluster state track which tasks were
//    submitted / changed state / were removed and which machines were
//    added / removed / had statistics move since the last round. The policy
//    maps those onto dirty tasks and dirty (aggregator, machine) arc slices
//    via CollectDirty; everything unmarked keeps last round's arcs verbatim.
//
//  * Declarative unscheduled-cost ramps. Wait-time-driven unscheduled costs
//    grow on a fixed schedule (slope per bucket of waiting). The policy
//    declares the ramp once per task; the manager advances costs itself and
//    touches only tasks that cross a bucket boundary — no virtual call per
//    task per round.
//
//  * Task equivalence classes (à la Firmament's cost-model API). Tasks with
//    identical policy inputs share a class whose arcs are computed once per
//    class and cached *across rounds*; per-task extras (e.g. the running
//    task's continuation arc) stay separate in TaskSpecificArcs. The cache
//    is invalidated from deltas, never rebuilt wholesale: the manager drops
//    every class whose cached arcs reference a node that leaves the graph
//    (machine removed, aggregator drained), and the policy marks classes
//    whose arc *costs* moved without a node disappearing
//    (PolicyDirtySink::MarkEquivClass — e.g. Quincy when a machine removal
//    drops block replicas that feed surviving machines' transfer costs).
//    Consequently EquivClassArcs must be a pure function of the class's
//    declared inputs and live topology — in particular it must NOT depend on
//    `now` or on any statistic the policy does not invalidate on. Nor may
//    it create aggregators (look them up with FindAggregator): a cached
//    entry outlives the call that computed it, so node lifetimes belong to
//    the lifecycle hooks.

#ifndef SRC_CORE_SCHEDULING_POLICY_H_
#define SRC_CORE_SCHEDULING_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/types.h"
#include "src/flow/graph.h"

namespace firmament {

class FlowGraphManager;

// Desired outgoing arc of a task or aggregator node. `rank` distinguishes
// parallel arcs to the same destination: a policy models convex per-unit
// costs (e.g. load-spreading, where each extra task on a machine costs
// more) as unit-capacity parallel arcs with increasing cost.
struct ArcSpec {
  NodeId dst = kInvalidNodeId;
  int64_t capacity = 1;
  int64_t cost = 0;
  int32_t rank = 0;
};

// The round's typed dirty sets (all vectors sorted ascending, deduplicated).
// `full` marks a forced full refresh: every task and aggregator is treated
// as dirty regardless of the sets below.
struct PolicyUpdate {
  SimTime now = 0;
  bool full = false;
  std::vector<TaskId> tasks_submitted;      // task nodes added since last round
  std::vector<TaskId> tasks_state_changed;  // placed / evicted / migrated
  std::vector<TaskId> tasks_removed;        // completed; nodes already gone
  std::vector<MachineId> machines_added;
  std::vector<MachineId> machines_removed;        // descriptors remain, alive=false
  std::vector<MachineId> machines_stats_changed;  // load / bandwidth moved
};

// Opaque equivalence-class key: tasks mapping to the same key must want
// identical EquivClassArcs (policies hash exactly the inputs those arcs
// depend on). The manager computes class arcs once per class and caches
// them across rounds (see the invalidation contract above).
using EquivClass = uint64_t;

// Collector the manager passes to CollectDirty: the policy marks the
// entities whose arcs must be recomputed this round. Unmarked entities keep
// their arcs untouched, which is what makes the round O(|changed|).
class PolicyDirtySink {
 public:
  virtual ~PolicyDirtySink() = default;
  // Recompute the task's arcs (class + task-specific + unscheduled cost).
  virtual void MarkTask(TaskId task) = 0;
  virtual void MarkAllTasks() = 0;
  // Recompute every outgoing arc of the aggregator (AggregatorArcs).
  virtual void MarkAggregator(NodeId aggregator) = 0;
  // Recompute only the aggregator's arcs towards `machine`
  // (AggregatorMachineArcs); other destinations keep their arcs.
  virtual void MarkAggregatorMachine(NodeId aggregator, MachineId machine) = 0;
  virtual void MarkAllAggregators() = 0;
  // Invalidate the class's entry in the cross-round equivalence-class arc
  // cache: the next dirty task of the class recomputes EquivClassArcs
  // instead of reusing the cached specs. Marking a class does NOT mark its
  // tasks — a policy whose class arcs changed must mark the affected tasks
  // too, or their graph arcs keep the previous values.
  virtual void MarkEquivClass(EquivClass ec) = 0;
  virtual void MarkAllEquivClasses() = 0;
};

// Declarative unscheduled-cost schedule: a task waiting W microseconds pays
//   cost(W) = base_cost + cost_per_bucket * floor(W / bucket_width).
// W accumulates total_wait plus the current waiting stretch; running tasks'
// wait is frozen, so their unscheduled cost is constant between state
// changes. The manager advances the cost when a task crosses a bucket
// boundary — the policy is never called per task per round for this.
struct UnscheduledRamp {
  int64_t base_cost = 0;
  int64_t cost_per_bucket = 0;
  SimTime bucket_width = kMicrosPerSecond;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  SchedulingPolicy(const SchedulingPolicy&) = delete;
  SchedulingPolicy& operator=(const SchedulingPolicy&) = delete;

  virtual std::string name() const = 0;

  // Called when the manager is constructed; the policy creates its static
  // aggregator nodes here (e.g. the cluster aggregator X). MUST be
  // re-entrant: a recovery rebuild (FlowGraphManager::RebuildFromCluster)
  // calls it again against a fresh, empty graph, so any graph-derived
  // bookkeeping (node ids, per-machine/per-class counts, pending marks)
  // must be reset here — it is re-learned from the replayed
  // OnMachineAdded/OnTaskAdded hooks that follow.
  virtual void Initialize(FlowGraphManager* manager) = 0;

  // --- Lifecycle hooks ------------------------------------------------------
  // Topology hooks; policies maintain rack/request aggregators here. A
  // policy whose aggregators drain (rack emptied, request class emptied)
  // removes them here or in OnTaskRemoved via the manager services.
  virtual void OnMachineAdded(MachineId machine) { (void)machine; }
  virtual void OnMachineRemoved(MachineId machine) { (void)machine; }
  // Task lifecycle; called while the descriptor is still valid. Policies
  // keep per-class bookkeeping (e.g. live tasks per request aggregator)
  // here instead of recounting every round.
  virtual void OnTaskAdded(const TaskDescriptor& task) { (void)task; }
  virtual void OnTaskRemoved(const TaskDescriptor& task) { (void)task; }

  // --- Per-round protocol (§6.3, change-driven) -----------------------------
  // Called at the start of every round before any arc queries; policies
  // snapshot round-level statistics here.
  virtual void BeginRound(SimTime now) { (void)now; }

  // Translates the round's dirty sets into dirty entities. Tasks in
  // `tasks_submitted` / `tasks_state_changed` are implicitly dirty — the
  // policy only marks *additional* tasks (e.g. all tasks after a machine
  // removal changed the preference-arc candidate set) and the aggregators /
  // (aggregator, machine) slices whose inputs moved.
  virtual void CollectDirty(const PolicyUpdate& update, PolicyDirtySink* sink) = 0;

  // The task's unscheduled-cost schedule (arc to the job's unscheduled
  // aggregator). Queried when the task is added and whenever it is dirty;
  // between queries the manager advances the ramp itself.
  virtual UnscheduledRamp UnscheduledCostRamp(const TaskDescriptor& task) = 0;

  // --- Task arcs, shared per equivalence class ------------------------------
  // Key of the task's equivalence class: a hash of exactly the inputs
  // EquivClassArcs reads (job, locality profile, request size, ...).
  virtual EquivClass TaskEquivClass(const TaskDescriptor& task) = 0;

  // Desired arcs shared by every task of the class, computed from a
  // representative member. Must not depend on per-task state that differs
  // within a class (machine, wait time); that belongs in TaskSpecificArcs.
  // Cached across rounds: the result is reused verbatim until the class is
  // invalidated (node removal, or the policy's own MarkEquivClass), so it
  // must not read `now` or any input the policy does not invalidate on.
  virtual void EquivClassArcs(const TaskDescriptor& representative, SimTime now,
                              std::vector<ArcSpec>* out) = 0;

  // Neighborhood fingerprint for placement templates (the decision cache one
  // level above the class arc cache). The returned hash must cover every
  // cluster-side input that EquivClassArcs / TaskSpecificArcs of the task's
  // class read *beyond* capacity (the template install validates free slots
  // itself): typically the set of alive machines and any aggregator
  // structure the arcs route through. Two submissions with equal
  // TaskEquivClass signatures AND equal fingerprints must want identical
  // flow subgraphs, so a prior solve's placement can be re-installed
  // directly. Return 0 to opt the policy out of templates (the default);
  // policies maintaining the hash incrementally reset it in Initialize and
  // re-learn it from the replayed OnMachineAdded hooks, like any other
  // graph-derived bookkeeping. Called from the serial submit path — it may
  // read policy state but must not mutate it.
  virtual uint64_t TemplateFingerprint(const TaskDescriptor& representative) {
    (void)representative;
    return 0;
  }

  // Per-task arcs on top of the class arcs. For running tasks this typically
  // includes a cheap continuation arc to the current machine, which is what
  // makes preemption a deliberate cost trade-off. On a (dst, rank) collision
  // the task-specific arc wins over the class arc.
  virtual void TaskSpecificArcs(const TaskDescriptor& task, SimTime now,
                                std::vector<ArcSpec>* out) {
    (void)task;
    (void)now;
    (void)out;
  }

  // --- Aggregator arcs -------------------------------------------------------
  // Every desired outgoing arc of an aggregator node; used when the
  // aggregator is created or marked fully dirty.
  virtual void AggregatorArcs(NodeId aggregator, std::vector<ArcSpec>* out) = 0;

  // Only the aggregator's arcs towards `machine`; used for
  // MarkAggregatorMachine so a handful of dirty machines never force a
  // cluster-wide fan-out recompute. Policies that never mark
  // (aggregator, machine) pairs can keep the default.
  virtual void AggregatorMachineArcs(NodeId aggregator, MachineId machine,
                                     std::vector<ArcSpec>* out) {
    (void)aggregator;
    (void)machine;
    (void)out;
    // A policy that marks (aggregator, machine) slices dirty must override
    // this; reaching the default is a contract violation.
    CHECK(false);
  }

 protected:
  SchedulingPolicy() = default;
};

}  // namespace firmament

#endif  // SRC_CORE_SCHEDULING_POLICY_H_
