#include "src/core/network_aware_policy.h"

#include <algorithm>

namespace firmament {

void NetworkAwarePolicy::Initialize(FlowGraphManager* manager) {
  manager_ = manager;
  // Re-entrant (recovery rebuilds re-Initialize against a fresh graph): RA
  // bookkeeping resets here and is re-learned from the replayed OnTaskAdded
  // hooks, which recreate the request aggregators.
  aggregator_bucket_.clear();
  bucket_live_tasks_.clear();
  pending_buckets_.clear();
}

int64_t NetworkAwarePolicy::BucketFor(int64_t request_mbps) const {
  if (request_mbps <= 0) {
    return 0;
  }
  // Round up so a bucket never understates its tasks' requests.
  int64_t bucket = params_.request_bucket_mbps;
  return (request_mbps + bucket - 1) / bucket * bucket;
}

void NetworkAwarePolicy::OnTaskAdded(const TaskDescriptor& task) {
  int64_t bucket = BucketFor(task.bandwidth_request_mbps);
  if (++bucket_live_tasks_[bucket] == 1) {
    // First live task of the class: materialize its request aggregator now
    // so class arcs can target it, and give it arcs at the next round.
    NodeId ra = manager_->GetOrCreateAggregator(RequestKey(bucket));
    aggregator_bucket_[ra] = bucket;
    pending_buckets_.insert(bucket);
  }
}

void NetworkAwarePolicy::OnTaskRemoved(const TaskDescriptor& task) {
  int64_t bucket = BucketFor(task.bandwidth_request_mbps);
  auto it = bucket_live_tasks_.find(bucket);
  if (it == bucket_live_tasks_.end()) {
    return;
  }
  if (--it->second == 0) {
    bucket_live_tasks_.erase(it);
    pending_buckets_.insert(bucket);
  }
}

void NetworkAwarePolicy::CollectDirty(const PolicyUpdate& update, PolicyDirtySink* sink) {
  // Resolve bucket population transitions first: a drained RA leaves the
  // graph, a (re)populated one needs its full fan-out. Transitions are
  // resolved here rather than in the hooks so a bucket that empties and
  // refills between rounds nets out.
  for (int64_t bucket : pending_buckets_) {
    std::string key = RequestKey(bucket);
    bool live = bucket_live_tasks_.count(bucket) != 0;
    bool exists = manager_->HasAggregator(key);
    if (!live && exists) {
      NodeId ra = manager_->GetOrCreateAggregator(key);
      aggregator_bucket_.erase(ra);
      manager_->RemoveAggregator(key);
    } else if (live && !update.full) {
      NodeId ra = manager_->GetOrCreateAggregator(key);
      aggregator_bucket_[ra] = bucket;
      sink->MarkAggregator(ra);
    }
  }
  pending_buckets_.clear();
  if (update.full) {
    return;
  }
  // A machine's spare bandwidth or free slots moving reprices every RA's
  // arcs towards that machine — and only those slices.
  auto mark_machine = [&](MachineId machine) {
    for (const auto& [ra, bucket] : aggregator_bucket_) {
      sink->MarkAggregatorMachine(ra, machine);
    }
  };
  for (MachineId machine : update.machines_added) {
    mark_machine(machine);
  }
  for (MachineId machine : update.machines_stats_changed) {
    mark_machine(machine);
  }
}

UnscheduledRamp NetworkAwarePolicy::UnscheduledCostRamp(const TaskDescriptor& task) {
  int64_t priority_factor = 1 + cluster_->job(task.job).priority;
  UnscheduledRamp ramp;
  ramp.base_cost = params_.base_unscheduled_cost * priority_factor;
  ramp.cost_per_bucket = params_.wait_cost_per_second * priority_factor;
  ramp.bucket_width = kMicrosPerSecond;
  return ramp;
}

EquivClass NetworkAwarePolicy::TaskEquivClass(const TaskDescriptor& task) {
  // The request bucket is the class: same bucket, same single arc to the RA.
  return static_cast<EquivClass>(BucketFor(task.bandwidth_request_mbps));
}

void NetworkAwarePolicy::EquivClassArcs(const TaskDescriptor& representative, SimTime now,
                                        std::vector<ArcSpec>* out) {
  (void)now;
  int64_t bucket = BucketFor(representative.bandwidth_request_mbps);
  // The representative is live, so its RA exists (OnTaskAdded created it
  // and registered it in aggregator_bucket_). Pure lookup only: class arcs
  // are cached across rounds, so this hook must not create aggregators or
  // touch the bucket map.
  NodeId ra = manager_->FindAggregator(RequestKey(bucket));
  DCHECK_NE(ra, kInvalidNodeId);
  out->push_back({ra, 1, 0, 0});
}

void NetworkAwarePolicy::TaskSpecificArcs(const TaskDescriptor& task, SimTime now,
                                          std::vector<ArcSpec>* out) {
  (void)now;
  if (task.state == TaskState::kRunning) {
    NodeId machine_node = manager_->NodeForMachine(task.machine);
    if (machine_node != kInvalidNodeId) {
      // Continuation costs -1 (strictly preferred over equal-cost moves);
      // the task's reservation is already part of the machine's used
      // bandwidth.
      out->push_back({machine_node, 1, -1, 0});
    }
  }
}

void NetworkAwarePolicy::AggregatorMachineArcs(NodeId aggregator, MachineId machine,
                                               std::vector<ArcSpec>* out) {
  auto bucket_it = aggregator_bucket_.find(aggregator);
  if (bucket_it == aggregator_bucket_.end()) {
    return;
  }
  int64_t request = bucket_it->second;
  const MachineDescriptor& descriptor = cluster_->machine(machine);
  if (!descriptor.alive || descriptor.FreeSlots() <= 0) {
    return;
  }
  int64_t spare = descriptor.SpareBandwidthMbps();
  if (spare < request) {
    return;
  }
  NodeId node = manager_->NodeForMachine(machine);
  if (node == kInvalidNodeId) {
    return;
  }
  // "One arc for each task that fits" (Fig. 6c): unit-capacity parallel
  // arcs, the i-th priced as if the previous i-1 were already placed, so
  // balanced utilization is strictly optimal.
  int64_t fit = request > 0 ? spare / request : descriptor.FreeSlots();
  fit = std::min<int64_t>(fit, descriptor.FreeSlots());
  int64_t used = descriptor.used_bandwidth_mbps + descriptor.background_bandwidth_mbps;
  for (int64_t i = 0; i < fit; ++i) {
    out->push_back({node, 1, request + used + i * request, static_cast<int32_t>(i)});
  }
}

void NetworkAwarePolicy::AggregatorArcs(NodeId aggregator, std::vector<ArcSpec>* out) {
  auto bucket_it = aggregator_bucket_.find(aggregator);
  if (bucket_it == aggregator_bucket_.end()) {
    return;
  }
  if (bucket_live_tasks_.count(bucket_it->second) == 0) {
    return;  // no live tasks in this class: the RA is about to drain
  }
  for (const MachineDescriptor& machine : cluster_->machines()) {
    if (machine.alive) {
      AggregatorMachineArcs(aggregator, machine.id, out);
    }
  }
}

}  // namespace firmament
