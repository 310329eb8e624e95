// Maintains the flow network that mirrors cluster and workload state (§3.2,
// §6.3).
//
// All cluster events reduce to incremental graph changes (§5.2): task
// submissions add source nodes, completions remove them, machine failures
// remove machine nodes, and policy cost updates mutate arcs. The manager
// performs minimal diffs so the change log stays small and incremental
// solvers can warm-start.
//
// The per-round update is change-driven (policy API v2): cluster events are
// buffered into typed dirty sets, the policy translates them into dirty
// tasks and dirty aggregator arc slices (SchedulingPolicy::CollectDirty),
// and only those entities have their arcs recomputed — tasks through a
// *cross-round* per-equivalence-class arc cache so identical tasks cost one
// policy call per class while the class stays populated, not per round.
// Cache entries are invalidated from deltas: the manager drops every class
// whose cached arcs reference a node leaving the graph (the dst -> cached
// specs reverse index below), the policy marks classes whose arc costs moved
// without a node disappearing (PolicyDirtySink::MarkEquivClass), and an
// entry is evicted with its class's last live member — an unpopulated
// class has no task left to carry an invalidation mark, so its inputs
// could drift unobserved until an identical resubmission hit stale arcs. Time-varying unscheduled costs advance
// through the policies' declarative ramps: a bucket-ordered heap pokes only
// the arcs of tasks that crossed a bucket boundary. Everything else keeps
// last round's arcs verbatim, making the graph-update pass O(|changed|)
// instead of O(cluster).

#ifndef SRC_CORE_FLOW_GRAPH_MANAGER_H_
#define SRC_CORE_FLOW_GRAPH_MANAGER_H_

#include <functional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/scheduling_policy.h"
#include "src/core/types.h"
#include "src/flow/graph.h"

namespace firmament {

struct FlowGraphManagerOptions {
  // §5.3.2 efficient task removal: on task completion, walk the task's unit
  // of flow to the sink and drain it so feasibility is preserved and
  // incremental cost scaling repairs less (Fig. 12b ablates this).
  bool task_removal_drain = true;
};

// How UpdateRound refreshes the graph. kDelta (the default) consumes the
// dirty sets and touches only changed entities; kFull recomputes every
// task's and aggregator's arcs from current state — the legacy O(cluster)
// path, kept for equivalence tests and as the bench reference the delta
// path is gated against.
enum class RefreshMode : uint8_t { kDelta, kFull };

// Counters for the last UpdateRound call; consumed by tests (the Quincy
// machine-removal dirty-count assertion) and the fig11 bursty-submit bench.
struct UpdateRoundStats {
  size_t tasks_refreshed = 0;       // RefreshTask calls this round
  size_t class_cache_hits = 0;      // class arcs served from the cache
  size_t class_cache_misses = 0;    // EquivClassArcs policy calls
};

class FlowGraphManager {
 public:
  FlowGraphManager(ClusterState* cluster, SchedulingPolicy* policy,
                   FlowGraphManagerOptions options = {});

  FlowGraphManager(const FlowGraphManager&) = delete;
  FlowGraphManager& operator=(const FlowGraphManager&) = delete;

  // --- Cluster lifecycle events -------------------------------------------
  // Idempotent: an event whose precondition fails (machine/task already
  // mapped, or not mapped at all) returns false and leaves the graph
  // untouched, so replayed or raced cluster events cannot corrupt the
  // bookkeeping. Fresh events return true.
  bool AddMachine(MachineId machine);
  bool RemoveMachine(MachineId machine);
  bool AddTask(TaskId task, SimTime now);
  bool RemoveTask(TaskId task);

  // --- Per-round update (§6.3) ----------------------------------------------
  // Refreshes statistics-dependent arcs, unscheduled costs, and machine
  // capacities for the round's dirty entities (kDelta) or for everything
  // (kFull). Must be called before every solver run. kDelta drains and
  // clears the ClusterState dirty sets; kFull leaves them untouched so a
  // reference manager sharing the cluster never steals the primary's
  // change signals.
  void UpdateRound(SimTime now, RefreshMode mode = RefreshMode::kDelta);

  // --- Accessors -------------------------------------------------------------
  FlowNetwork* network() { return &network_; }
  const FlowNetwork& network() const { return network_; }
  NodeId sink() const { return sink_; }
  NodeId NodeForMachine(MachineId machine) const;
  MachineId MachineForNode(NodeId node) const;
  NodeId NodeForTask(TaskId task) const;
  TaskId TaskForNode(NodeId node) const;
  bool HasTask(TaskId task) const { return task_info_.count(task) != 0; }
  size_t num_task_nodes() const { return task_info_.size(); }
  // Calls fn(TaskId) for every task with a graph node, in no fixed order.
  template <typename Fn>
  void ForEachTask(Fn&& fn) const {
    for (const auto& [task, info] : task_info_) {
      fn(task);
    }
  }
  // Aggregator key for a node ("" if the node is no aggregator) and the
  // unscheduled aggregator's job (kInvalidJobId otherwise); used by tests
  // to compare graphs structurally across managers.
  std::string AggregatorKeyForNode(NodeId node) const;
  JobId JobForUnscheduledNode(NodeId node) const;
  // Counters covering the window from the end of the previous UpdateRound
  // through the end of the last one (so invalidations triggered by cluster
  // events between rounds are attributed to the round that absorbs them).
  const UpdateRoundStats& last_update_stats() const { return last_update_stats_; }
  size_t class_cache_size() const { return ec_cache_.size(); }

  // --- Class-invalidation listeners (placement templates) -----------------
  // The scheduler's placement-template cache keys whole cached placements on
  // equivalence classes; it must hear about *semantic* class invalidations —
  // policy MarkEquivClass marks and node-removal purges — so templates built
  // on stale class arcs are evicted. Refcount evictions (last live member of
  // a class completed) deliberately do NOT fire: a recurring job's class
  // drops to zero members between runs, and that is exactly the moment a
  // template must survive. The wholesale-clear listener fires when the
  // entire class cache drops (full refresh, MarkAllTasks/MarkAllEquivClasses,
  // recovery rebuild) — anything cached on class identity is then suspect.
  void set_on_class_invalidated(std::function<void(EquivClass)> listener) {
    on_class_invalidated_ = std::move(listener);
  }
  void set_on_class_cache_cleared(std::function<void()> listener) {
    on_class_cache_cleared_ = std::move(listener);
  }

  // --- Services for policies ---------------------------------------------------
  // Verifies internal consistency between the bookkeeping maps and the flow
  // network: every mapped node exists with the right kind, every tracked arc
  // is valid with the recorded endpoints, and the sink supply equals the
  // negated task-node count. Aborts (CHECK) on violation; returns the number
  // of entities verified. Intended for tests and debug builds.
  size_t ValidateIntegrity() const;
  // Non-aborting variant: appends a human-readable line per violation to
  // `violations` (when non-null) instead of CHECK-failing, and returns the
  // number of entities verified. This is what the cross-layer
  // IntegrityChecker runs every round — a dirty result triggers recovery
  // (RebuildFromCluster) rather than an abort.
  size_t CheckIntegrity(std::vector<std::string>* violations) const;

  // --- Recovery -------------------------------------------------------------
  // Detect-and-rebuild escape hatch: discards the entire flow network,
  // bookkeeping, persistent class cache, and ramp heap, then replays the
  // cluster's current state (alive machines in id order, live tasks in id
  // order) and runs a full refresh — producing a graph byte-identical to a
  // from-scratch manager's. The fresh FlowNetwork carries a new uid, so
  // every solver view detects the swap and rebuilds instead of patching
  // against a stale journal. Policies are re-Initialized (they must reset
  // graph-derived state; see the re-entrancy contract in
  // scheduling_policy.h).
  void RebuildFromCluster(SimTime now);

  // Returns a stable aggregator node for `key` ("cluster", "rack:3",
  // "ra:400"), creating it on first use.
  NodeId GetOrCreateAggregator(const std::string& key);
  // Pure lookup variant (kInvalidNodeId if absent). This is the only
  // aggregator accessor the arc compute hooks (EquivClassArcs,
  // AggregatorArcs, ...) may call: node lifetimes belong to the policy's
  // lifecycle hooks (scheduling_policy.h).
  NodeId FindAggregator(const std::string& key) const;
  // Removes an aggregator and its arcs (e.g. rack drained of machines).
  void RemoveAggregator(const std::string& key);
  bool HasAggregator(const std::string& key) const { return aggregators_.count(key) != 0; }

 private:
  // Outgoing policy arcs keyed by (destination, parallel-arc rank), as a
  // flat list sorted by key. A task holds tens of them; an aggregator fans
  // out to a whole rack or the cluster and also takes machine-granular
  // slice updates (RefreshAggregatorSlices).
  using ArcKey = std::pair<NodeId, int32_t>;
  using ArcList = std::vector<std::pair<ArcKey, ArcId>>;

  struct TaskInfo {
    NodeId node = kInvalidNodeId;
    ArcId unscheduled_arc = kInvalidArcId;
    ArcList arcs;  // sorted by key
    // Cached unscheduled-cost ramp (policy API v2) and the heap-entry
    // generation that invalidates stale crossing events.
    UnscheduledRamp ramp;
    uint32_t ramp_gen = 0;
    // Equivalence class the task's arcs were last built from; feeds the
    // class refcounts so a class's cache entry is evicted with its last
    // live member (see ec_refcount_).
    EquivClass ec = 0;
    bool ec_known = false;
  };
  struct JobInfo {
    NodeId unscheduled_node = kInvalidNodeId;
    ArcId to_sink = kInvalidArcId;
    int64_t live_tasks = 0;
  };
  struct AggregatorInfo {
    NodeId node = kInvalidNodeId;
    std::string key;
    ArcList arcs;  // sorted by key
  };
  // A cached class's shared arc specs, and the slot of each spec's entry
  // in ec_dst_index_[spec.dst].
  struct ClassEntry {
    std::vector<ArcSpec> arcs;
    std::vector<uint32_t> index_pos;
  };
  // One cached spec in the dst index: its class, the class's cache entry
  // and the spec's index in entry->arcs.
  struct ClassSpecRef {
    ClassEntry* entry;
    EquivClass ec;
    uint32_t spec;
  };

  // Marked (aggregator, machine) slices, ordered by aggregator.
  using MachineMarks = std::set<std::pair<NodeId, MachineId>>;
  // The PolicyDirtySink handed to SchedulingPolicy::CollectDirty; collects
  // ordered dirty marks for one round.
  struct DirtyMarks : public PolicyDirtySink {
    void MarkTask(TaskId task) override { tasks.insert(task); }
    void MarkAllTasks() override { all_tasks = true; }
    void MarkAggregator(NodeId aggregator) override { aggregators.insert(aggregator); }
    void MarkAggregatorMachine(NodeId aggregator, MachineId machine) override {
      aggregator_machines.insert({aggregator, machine});
    }
    void MarkAllAggregators() override { all_aggregators = true; }
    void MarkEquivClass(EquivClass ec) override { equiv_classes.insert(ec); }
    void MarkAllEquivClasses() override { all_equiv_classes = true; }
    void Clear() {
      tasks.clear();
      aggregators.clear();
      aggregator_machines.clear();
      equiv_classes.clear();
      all_tasks = false;
      all_aggregators = false;
      all_equiv_classes = false;
    }

    std::set<TaskId> tasks;
    std::set<NodeId> aggregators;
    MachineMarks aggregator_machines;
    std::set<EquivClass> equiv_classes;
    bool all_tasks = false;
    bool all_aggregators = false;
    bool all_equiv_classes = false;
  };

  // Replaces `current` arcs from `src` with `desired`, reusing arcs whose
  // key is unchanged (cost/capacity updates instead of re-adds). Graph calls
  // come in `desired` order (the first of duplicate keys wins), then
  // removals of the unused arcs in key order.
  void DiffArcs(NodeId src, const std::vector<ArcSpec>& desired, ArcList* current);
  // Recomputes one task's arcs (class cache + task-specific) and its
  // unscheduled-cost ramp at `now`, applying them to the graph in place.
  void RefreshTask(TaskId task_id, SimTime now);
  // Recomputes one aggregator's full arc set.
  void RefreshAggregator(AggregatorInfo* info);
  // Recomputes one aggregator's arcs towards each machine in [first, last)
  // (marks of this aggregator), diffing each machine's slice with DiffArcs
  // and leaving arcs towards other destinations untouched.
  void RefreshAggregatorSlices(AggregatorInfo* info, MachineMarks::const_iterator first,
                               MachineMarks::const_iterator last);

  // Unscheduled cost of `task` under `info`'s ramp at `now`.
  static int64_t RampCost(const UnscheduledRamp& ramp, const TaskDescriptor& task, SimTime now);
  // (Re-)registers the task's next bucket-crossing event; bumps ramp_gen so
  // stale heap entries are dropped on pop.
  void ScheduleRampCrossing(TaskId task_id, TaskInfo* info, const TaskDescriptor& task,
                            SimTime now);
  // Pops due crossings and pokes the affected unscheduled arcs; entries
  // whose generation is stale (task refreshed or removed since the push)
  // are dropped.
  void AdvanceRamps(SimTime now);
  // Walks one unit of the task's flow to the sink and drains it (§5.3.2).
  void DrainTaskFlow(NodeId task_node);
  // Purges references to a node that is about to be removed from the maps
  // of tasks/aggregators that have arcs to it, and invalidates every cached
  // equivalence class whose arcs reference it (the node id may be recycled;
  // a stale cached ArcSpec would re-target the recycled node).
  void PurgeArcsTo(NodeId node);
  // The run of (dst, rank) entries pointing at `dst` in a sorted arc list,
  // and its removal.
  static std::pair<ArcList::iterator, ArcList::iterator> ArcsTo(ArcList* arcs, NodeId dst);
  static void EraseArcsTo(ArcList* arcs, NodeId dst);
  // Erases one class from the cross-round cache (and the dst index).
  void InvalidateClass(EquivClass ec);
  // Erases every class whose cached arcs reference `dst`.
  void InvalidateClassesReferencing(NodeId dst);
  // Drops the whole cache (full refreshes and MarkAllTasks/-EquivClasses).
  void ClearClassCache();
  // Registers a freshly computed class entry in the dst index.
  void IndexClassArcs(EquivClass ec, ClassEntry* entry);
  // Drops one live-member reference; evicts the cache entry at zero.
  void ReleaseClassRef(EquivClass ec);

  ClusterState* cluster_;
  SchedulingPolicy* policy_;
  FlowGraphManagerOptions options_;
  FlowNetwork network_;
  NodeId sink_ = kInvalidNodeId;

  std::unordered_map<MachineId, NodeId> machine_to_node_;
  std::unordered_map<TaskId, TaskInfo> task_info_;
  // NodeId-indexed reverse tables (kInvalidMachineId / kInvalidTaskId where
  // the node is no machine / task node, grown on demand): extraction probes
  // them for every resolved node each round, so they are flat arrays rather
  // than hash maps.
  std::vector<MachineId> node_to_machine_;
  std::vector<TaskId> node_to_task_;
  std::unordered_map<JobId, JobInfo> job_info_;
  std::unordered_map<NodeId, JobId> node_to_job_;
  std::unordered_map<MachineId, ArcId> machine_sink_arc_;
  std::unordered_map<std::string, AggregatorInfo> aggregators_;
  std::unordered_map<NodeId, std::string> node_to_aggregator_;

  // --- Dirty-set plumbing (policy API v2) ----------------------------------
  // Ordered event buffers accumulated between rounds; UpdateRound converts
  // them into the PolicyUpdate's typed dirty sets.
  std::set<TaskId> pending_tasks_submitted_;
  std::set<TaskId> pending_tasks_removed_;
  std::set<MachineId> pending_machines_added_;
  std::set<MachineId> pending_machines_removed_;
  DirtyMarks marks_;
  PolicyUpdate update_;  // reused across rounds

  // Cross-round equivalence-class arc cache: class key -> shared arc specs,
  // reused verbatim until invalidated. ec_dst_index_ is the reverse index
  // node removals invalidate through: NodeId -> one ClassSpecRef per cached
  // spec targeting the node. Each entry records where its specs sit in
  // those lists (index_pos), so evicting a class is one swap-remove per
  // spec with no hashing — the pos_in_src/pos_in_dst trick of FlowNetwork
  // adjacency. ClassSpecRef points at its ClassEntry, which is safe because
  // unordered_map values never move.
  std::unordered_map<EquivClass, ClassEntry> ec_cache_;
  std::vector<std::vector<ClassSpecRef>> ec_dst_index_;
  // Live tasks per class (from TaskInfo::ec). When the count hits zero the
  // class's cache entry is evicted: an unpopulated class has no task left
  // to carry an invalidation mark, so its inputs could silently drift
  // (e.g. a machine removal dropping replicas that feed its costs) and a
  // later identical resubmission would hit the stale entry. Eviction makes
  // the first member of a repopulated class always recompute.
  std::unordered_map<EquivClass, uint32_t> ec_refcount_;
  UpdateRoundStats update_stats_;       // accumulating window
  UpdateRoundStats last_update_stats_;  // snapshot at UpdateRound end

  // Fired on semantic class invalidations / wholesale cache clears (see the
  // public setters); empty when no template layer is listening.
  std::function<void(EquivClass)> on_class_invalidated_;
  std::function<void()> on_class_cache_cleared_;

  // Min-heap of (crossing time, task, ramp generation): the next moment each
  // waiting task's unscheduled cost steps to the next bucket.
  using RampEntry = std::tuple<SimTime, TaskId, uint32_t>;
  std::priority_queue<RampEntry, std::vector<RampEntry>, std::greater<RampEntry>> ramp_heap_;

  std::vector<ArcSpec> scratch_specs_;
  // DiffArcs' spec order and per-spec arcs.
  std::vector<uint32_t> scratch_order_;
  std::vector<ArcId> scratch_arc_of_;
  // RefreshAggregatorSlices: one slice, the new slices back to back, where
  // each goes, and the merged list.
  struct SliceSplice {
    NodeId dst;
    size_t old_first, old_last;          // the old slice in the arc list
    size_t resized_first, resized_last;  // the new slice in scratch_resized_
  };
  ArcList scratch_slice_;
  ArcList scratch_resized_;
  std::vector<SliceSplice> scratch_splices_;
  ArcList scratch_merged_;
};

}  // namespace firmament

#endif  // SRC_CORE_FLOW_GRAPH_MANAGER_H_
