// Quincy's locality-oriented scheduling policy (§3.3, Fig. 6b; Quincy
// [22, §4.2]).
//
// Topology: tasks get (i) preference arcs to machines/racks holding enough
// of their input data, (ii) a fallback arc to the cluster aggregator X
// priced at the worst-case transfer cost, and (iii) an arc to the job's
// unscheduled aggregator whose cost grows with wait time. X fans out to rack
// aggregators, racks to machines. Running tasks keep a free continuation arc
// to their machine, making preemption an explicit cost trade-off between
// wasted work and better placements.
//
// The preference threshold (fraction of input data that must be local to
// earn an arc) is the Fig. 15 knob: a lower threshold adds arcs, improves
// achievable locality, and stresses the solver.
//
// v2 delta contract: preference and fallback arcs depend only on the task's
// input profile (size + block placement) and cluster topology, so the
// equivalence class hashes the input profile — tasks reading the same
// blocks share one arc computation, cached across rounds. Machine
// statistics never dirty anything here (costs are data-transfer prices, not
// load); only topology changes fan out. A machine removal dirties exactly
// the tasks whose preference arcs can move — those reading a block
// replicated on the removed machine (DataLocalityInterface::BlocksOnMachine,
// collected at removal and matched against the live tasks once at the next
// round) — plus their equivalence classes; locality sources without that
// reverse replica index fall back to the old dirty-everything behaviour.

#ifndef SRC_CORE_QUINCY_POLICY_H_
#define SRC_CORE_QUINCY_POLICY_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/data_locality.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/scheduling_policy.h"

namespace firmament {

struct QuincyPolicyParams {
  // Fraction of a task's input that must reside on a machine (in a rack) for
  // the task to receive a preference arc (Fig. 15: 14% default, 2% extreme).
  double machine_preference_threshold = 0.14;
  double rack_preference_threshold = 0.14;
  // Quincy capped preference arcs at ~10 per task.
  int max_machine_preference_arcs = 10;
  int max_rack_preference_arcs = 4;
  // Transfer cost rates (cost units per GB fetched).
  int64_t cost_per_gb_cross_rack = 100;
  int64_t cost_per_gb_in_rack = 25;
  // Unscheduled cost: base + omega * wait_seconds, scaled by job priority
  // so service jobs outrank batch jobs (§4.2).
  int64_t base_unscheduled_cost = 2'000;
  int64_t wait_cost_per_second = 200;
};

class QuincyPolicy : public SchedulingPolicy {
 public:
  // `locality` may be null: tasks then schedule via the cluster aggregator
  // only (no preference arcs).
  QuincyPolicy(const ClusterState* cluster, const DataLocalityInterface* locality,
               QuincyPolicyParams params = {});

  std::string name() const override { return "quincy"; }
  void Initialize(FlowGraphManager* manager) override;
  void OnMachineAdded(MachineId machine) override;
  void OnMachineRemoved(MachineId machine) override;
  uint64_t TemplateFingerprint(const TaskDescriptor& representative) override;
  void OnTaskAdded(const TaskDescriptor& task) override;
  void OnTaskRemoved(const TaskDescriptor& task) override;
  void CollectDirty(const PolicyUpdate& update, PolicyDirtySink* sink) override;
  UnscheduledRamp UnscheduledCostRamp(const TaskDescriptor& task) override;
  EquivClass TaskEquivClass(const TaskDescriptor& task) override;
  void EquivClassArcs(const TaskDescriptor& representative, SimTime now,
                      std::vector<ArcSpec>* out) override;
  void TaskSpecificArcs(const TaskDescriptor& task, SimTime now,
                        std::vector<ArcSpec>* out) override;
  void AggregatorArcs(NodeId aggregator, std::vector<ArcSpec>* out) override;

  // Transfer cost of running `task` on `machine` given current locality
  // (gamma in Quincy's cost model); exposed for tests and benches.
  int64_t MachineTransferCost(const TaskDescriptor& task, MachineId machine) const;
  // Worst-case transfer cost within `rack` (rho).
  int64_t RackTransferCost(const TaskDescriptor& task, RackId rack) const;
  // Worst-case transfer cost anywhere in the cluster (alpha).
  int64_t ClusterTransferCost(const TaskDescriptor& task) const;

 private:
  static std::string RackKey(RackId rack) { return "rack:" + std::to_string(rack); }
  // Transfer costs from byte counts (MachineTransferCost, RackTransferCost).
  int64_t MachineCostForBytes(const TaskDescriptor& task, int64_t on_machine,
                              int64_t in_rack) const;
  int64_t RackCostForBytes(const TaskDescriptor& task, int64_t in_rack) const;
  // Whether `task` reads a block listed by a removal this round made while
  // the task was in the graph.
  bool AffectedByRemovals(const TaskDescriptor& task) const;
  void ClearPendingRemovals();

  const ClusterState* cluster_;
  const DataLocalityInterface* locality_;
  QuincyPolicyParams params_;
  FlowGraphManager* manager_ = nullptr;
  NodeId cluster_agg_ = kInvalidNodeId;
  // Slot count each machine's aggregator arcs were last built from;
  // detects out-of-band spec edits arriving as stats-dirty marks.
  std::unordered_map<MachineId, int32_t> slots_seen_;
  // Machine removals since the last round, resolved once in CollectDirty.
  // A removal must dirty exactly the tasks in the graph when it happened
  // that read one of the machine's blocks, so each removal gets a sequence
  // number: removed_blocks_ maps a block to the latest removal listing it
  // (collected while the locality source still lists the replicas), and
  // late_tasks_ records, for a task added after some removals, how many it
  // missed. A task leaving the graph before the round is matched on the
  // spot into pending_affected_tasks_.
  uint32_t removals_ = 0;
  std::unordered_map<uint64_t, uint32_t> removed_blocks_;
  std::unordered_map<TaskId, uint32_t> late_tasks_;
  std::set<TaskId> pending_affected_tasks_;
  // Fallback: the locality source cannot enumerate a machine's blocks, so
  // the next round must dirty every task (legacy behaviour).
  bool pending_dirty_all_ = false;
  std::vector<uint64_t> scratch_blocks_;
  LocalityProfile profile_;  // EquivClassArcs scratch
  // Template fingerprint: XOR of per-(machine, rack) hashes over the alive
  // set — preference/fallback arcs route through machines and their rack
  // aggregators, so any topology change must move the fingerprint. The
  // membership set keeps recovery-replayed hooks idempotent.
  std::set<MachineId> fp_machines_;
  uint64_t fp_hash_ = 0;
};

}  // namespace firmament

#endif  // SRC_CORE_QUINCY_POLICY_H_
