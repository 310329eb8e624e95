// Network-aware scheduling policy (§3.3, Fig. 6c).
//
// Tasks with the same (bucketed) bandwidth request connect to a request
// aggregator (RA) for that bucket; each RA has one arc per machine with
// sufficient spare bandwidth, with capacity for as many tasks as fit and
// cost equal to the request plus the machine's current bandwidth use —
// incentivizing balanced utilization. Arcs adapt dynamically as observed
// bandwidth changes, which is what lets Firmament avoid overcommitting
// network links and win the Fig. 19 tail.
//
// v2 delta contract: the request bucket IS the task equivalence class; RA
// live-task refcounts are maintained by the task lifecycle hooks instead of
// being recounted every round, an RA whose class empties is drained from
// the graph, and a machine's bandwidth change dirties only each RA's arc
// slice towards that machine.
//
// Cross-round class cache: a class's only arc targets its RA node at
// constant cost, so the sole invalidation source is the RA node being
// drained and later recreated under a fresh NodeId — which the manager's
// node-removal invalidation (dst -> cached specs reverse index) covers without
// any MarkEquivClass calls from this policy.

#ifndef SRC_CORE_NETWORK_AWARE_POLICY_H_
#define SRC_CORE_NETWORK_AWARE_POLICY_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "src/core/flow_graph_manager.h"
#include "src/core/scheduling_policy.h"

namespace firmament {

struct NetworkAwareParams {
  int64_t base_unscheduled_cost = 50'000;
  int64_t wait_cost_per_second = 10'000;
  // Bandwidth requests are bucketed to this granularity to bound the number
  // of request aggregators.
  int64_t request_bucket_mbps = 50;
};

class NetworkAwarePolicy : public SchedulingPolicy {
 public:
  NetworkAwarePolicy(const ClusterState* cluster, NetworkAwareParams params = {})
      : cluster_(cluster), params_(params) {}

  std::string name() const override { return "network_aware"; }
  void Initialize(FlowGraphManager* manager) override;
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
  void AggregatorMachineArcs(NodeId aggregator, MachineId machine,
                             std::vector<ArcSpec>* out) override;

  int64_t BucketFor(int64_t request_mbps) const;

 private:
  static std::string RequestKey(int64_t bucket_mbps) {
    return "ra:" + std::to_string(bucket_mbps);
  }

  const ClusterState* cluster_;
  NetworkAwareParams params_;
  FlowGraphManager* manager_ = nullptr;
  // RA node -> bandwidth bucket; live task count per bucket (maintained by
  // the lifecycle hooks, ordered for deterministic iteration); buckets whose
  // population hit zero or appeared since the last round.
  std::unordered_map<NodeId, int64_t> aggregator_bucket_;
  std::map<int64_t, int64_t> bucket_live_tasks_;
  std::set<int64_t> pending_buckets_;
};

}  // namespace firmament

#endif  // SRC_CORE_NETWORK_AWARE_POLICY_H_
