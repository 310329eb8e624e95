#include "src/core/quincy_policy.h"

#include <algorithm>

#include "src/base/check.h"

namespace firmament {

namespace {

constexpr int64_t kBytesPerGb = 1'000'000'000;

int64_t CostForBytes(int64_t bytes, int64_t cost_per_gb) {
  // Rounded up so that any remote byte costs at least one unit; keeps small
  // inputs from looking free.
  return (bytes * cost_per_gb + kBytesPerGb - 1) / kBytesPerGb;
}

inline uint64_t FnvMix(uint64_t hash, uint64_t value) {
  constexpr uint64_t kFnvPrime = 1099511628211ull;
  return (hash ^ value) * kFnvPrime;
}

uint64_t MachineNeighborhoodHash(MachineId machine, RackId rack) {
  constexpr uint64_t kFnvOffset = 1469598103934665603ull;
  return FnvMix(FnvMix(kFnvOffset, machine + 1), rack + 1);
}

}  // namespace

QuincyPolicy::QuincyPolicy(const ClusterState* cluster, const DataLocalityInterface* locality,
                           QuincyPolicyParams params)
    : cluster_(cluster), locality_(locality), params_(params) {}

void QuincyPolicy::Initialize(FlowGraphManager* manager) {
  manager_ = manager;
  cluster_agg_ = manager_->GetOrCreateAggregator("cluster");
  // Re-entrant (recovery rebuilds re-Initialize against a fresh graph):
  // graph-derived bookkeeping resets here and is re-learned from the
  // replayed OnMachineAdded/OnTaskAdded hooks.
  slots_seen_.clear();
  ClearPendingRemovals();
  // Reseed the template fingerprint from the current alive set; the
  // membership set keeps the replayed OnMachineAdded hooks idempotent.
  fp_machines_.clear();
  fp_hash_ = 0;
  for (const MachineDescriptor& machine : cluster_->machines()) {
    if (machine.alive && fp_machines_.insert(machine.id).second) {
      fp_hash_ ^= MachineNeighborhoodHash(machine.id, cluster_->RackOf(machine.id));
    }
  }
}

void QuincyPolicy::OnMachineAdded(MachineId machine) {
  // Rack aggregators must exist before the round's arc refresh so both the
  // cluster aggregator and task preference arcs can target them.
  manager_->GetOrCreateAggregator(RackKey(cluster_->RackOf(machine)));
  slots_seen_[machine] = cluster_->machine(machine).spec.slots;
  if (fp_machines_.insert(machine).second) {
    fp_hash_ ^= MachineNeighborhoodHash(machine, cluster_->RackOf(machine));
  }
}

void QuincyPolicy::OnMachineRemoved(MachineId machine) {
  // Drain the rack aggregator with its last machine so no empty-rack node
  // lingers in the graph. The check holds in both hook orders: on the
  // synchronous event path the cluster still lists the machine in its rack
  // (the manager is notified before the cluster mutation), while under
  // staged replay (pipelined rounds) the cluster half already applied and
  // in_rack simply no longer contains the machine.
  RackId rack = cluster_->RackOf(machine);
  const std::vector<MachineId>& in_rack = cluster_->MachinesInRack(rack);
  bool drained = in_rack.empty() || (in_rack.size() == 1 && in_rack[0] == machine);
  if (drained && manager_->HasAggregator(RackKey(rack))) {
    manager_->RemoveAggregator(RackKey(rack));
  }
  slots_seen_.erase(machine);
  if (fp_machines_.erase(machine) > 0) {
    fp_hash_ ^= MachineNeighborhoodHash(machine, rack);
  }
  // The tasks whose preference/transfer costs this removal can move are
  // exactly those reading a block replicated on the machine (their
  // BytesOnMachine / BytesInRack inputs change when the replicas drop).
  // Collect the blocks now, while the locality source still lists the
  // machine's replicas; CollectDirty matches them against the live tasks
  // and turns the hits into task + class marks. Tasks without blocks here
  // keep arcs and costs verbatim.
  if (locality_ != nullptr) {
    scratch_blocks_.clear();
    if (locality_->BlocksOnMachine(machine, &scratch_blocks_)) {
      ++removals_;
      for (uint64_t block : scratch_blocks_) {
        removed_blocks_[block] = removals_;
      }
    } else {
      pending_dirty_all_ = true;
    }
  }
}

uint64_t QuincyPolicy::TemplateFingerprint(const TaskDescriptor& representative) {
  (void)representative;
  // Preference arcs are derived from static block placement plus the alive
  // machine/rack topology; replica loss only ever arrives via machine
  // removal, so the (machine, rack) set hash covers every topology input
  // EquivClassArcs reads. 0 (no machines) keeps templates off.
  return fp_machines_.empty() ? 0 : FnvMix(1469598103934665603ull, fp_hash_);
}

void QuincyPolicy::OnTaskAdded(const TaskDescriptor& task) {
  // The removals so far this round cannot affect the task; record how many
  // there were.
  if (removals_ > 0) {
    late_tasks_[task.id] = removals_;
  }
}

void QuincyPolicy::OnTaskRemoved(const TaskDescriptor& task) {
  if (removals_ == 0) {
    return;
  }
  // Leaving before CollectDirty's scan: match against the removals it was
  // present for now. CollectDirty still filters on the descriptor.
  if (AffectedByRemovals(task)) {
    pending_affected_tasks_.insert(task.id);
  }
  late_tasks_.erase(task.id);
}

void QuincyPolicy::ClearPendingRemovals() {
  removals_ = 0;
  removed_blocks_.clear();
  late_tasks_.clear();
  pending_affected_tasks_.clear();
  pending_dirty_all_ = false;
}

bool QuincyPolicy::AffectedByRemovals(const TaskDescriptor& task) const {
  auto late = late_tasks_.find(task.id);
  const uint32_t since = late == late_tasks_.end() ? 0 : late->second;
  for (uint64_t block : task.input_blocks) {
    auto it = removed_blocks_.find(block);
    if (it != removed_blocks_.end() && it->second > since) {
      return true;
    }
  }
  return false;
}

void QuincyPolicy::CollectDirty(const PolicyUpdate& update, PolicyDirtySink* sink) {
  if (update.full) {
    // The full refresh recomputes every task and drops the class cache;
    // pending removal marks are subsumed.
    ClearPendingRemovals();
    return;
  }
  // Machine *load* never feeds Quincy's costs (they are data-transfer
  // prices), so routine stats churn requires nothing — but a stats-dirty
  // mark can also carry an out-of-band spec edit (mutable_machine), and
  // slot counts are exactly what the aggregator capacities are built from.
  // Compare against the last slots each aggregator saw so only genuine
  // spec changes pay for a recompute.
  bool topology_changed = !update.machines_added.empty() || !update.machines_removed.empty();
  bool slots_changed = false;
  for (MachineId machine : update.machines_stats_changed) {
    int32_t slots = cluster_->machine(machine).spec.slots;
    auto it = slots_seen_.find(machine);
    if (it != slots_seen_.end() && it->second != slots) {
      it->second = slots;
      slots_changed = true;
      sink->MarkAggregator(manager_->GetOrCreateAggregator(RackKey(cluster_->RackOf(machine))));
    }
  }
  if (!topology_changed && !slots_changed) {
    return;
  }
  // The cluster aggregator's rack capacities and the affected racks'
  // fan-out change; a removal may additionally shift which machines/racks
  // clear a task's preference threshold — conservatively recompute all
  // task arcs then.
  sink->MarkAggregator(cluster_agg_);
  for (MachineId machine : update.machines_added) {
    // Re-snapshot: a spec edit between AddMachine and this round is folded
    // into the machines_added recompute below.
    slots_seen_[machine] = cluster_->machine(machine).spec.slots;
    sink->MarkAggregator(manager_->GetOrCreateAggregator(RackKey(cluster_->RackOf(machine))));
  }
  for (MachineId machine : update.machines_removed) {
    std::string key = RackKey(cluster_->RackOf(machine));
    if (manager_->HasAggregator(key)) {
      sink->MarkAggregator(manager_->GetOrCreateAggregator(key));
    }
  }
  if (!update.machines_removed.empty()) {
    if (pending_dirty_all_) {
      // Locality source without a reverse replica index: any task's costs
      // may have moved, so fall back to the legacy wide invalidation.
      sink->MarkAllTasks();
      sink->MarkAllEquivClasses();
    } else {
      // Targeted invalidation: only tasks reading a block that lost a
      // replica on a removed machine see different preference candidates
      // or transfer costs. One pass over the graph's tasks finds them
      // (skipping, per task, the removals made before it was added). Their
      // class entries are stale too (all tasks of a class share the same
      // blocks, so marking the affected tasks covers each marked class's
      // whole membership). Classes whose cached arcs pointed at the
      // removed machine's node were already dropped by the manager's
      // node-removal invalidation; this adds the ones whose costs moved
      // without an arc to the machine itself.
      if (removals_ > 0) {
        manager_->ForEachTask([this](TaskId id) {
          const TaskDescriptor* task = cluster_->FindTask(id);
          if (task == nullptr) {
            return;
          }
          if (AffectedByRemovals(*task)) {
            pending_affected_tasks_.insert(id);
          }
        });
      }
      for (TaskId task : pending_affected_tasks_) {
        if (!cluster_->HasTask(task)) {
          continue;  // completed since the removal
        }
        sink->MarkTask(task);
        sink->MarkEquivClass(TaskEquivClass(cluster_->task(task)));
      }
    }
  }
  ClearPendingRemovals();
}

UnscheduledRamp QuincyPolicy::UnscheduledCostRamp(const TaskDescriptor& task) {
  int64_t priority_factor = 1 + cluster_->job(task.job).priority;
  UnscheduledRamp ramp;
  ramp.base_cost = params_.base_unscheduled_cost * priority_factor;
  ramp.cost_per_bucket = params_.wait_cost_per_second * priority_factor;
  ramp.bucket_width = kMicrosPerSecond;
  return ramp;
}

EquivClass QuincyPolicy::TaskEquivClass(const TaskDescriptor& task) {
  // Hash exactly the inputs EquivClassArcs reads: the input profile. Tasks
  // reading the same blocks (or no input at all) share one class.
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  hash = FnvMix(hash, static_cast<uint64_t>(task.input_size_bytes));
  if (locality_ != nullptr) {
    for (uint64_t block : task.input_blocks) {
      hash = FnvMix(hash, block);
    }
  }
  return hash;
}

int64_t QuincyPolicy::MachineTransferCost(const TaskDescriptor& task, MachineId machine) const {
  if (locality_ == nullptr || task.input_size_bytes == 0) {
    return 0;
  }
  return MachineCostForBytes(task, locality_->BytesOnMachine(task, machine),
                             locality_->BytesInRack(task, cluster_->RackOf(machine)));
}

int64_t QuincyPolicy::MachineCostForBytes(const TaskDescriptor& task, int64_t on_machine,
                                          int64_t in_rack) const {
  int64_t rack_remote = in_rack - on_machine;
  int64_t cluster_remote = task.input_size_bytes - in_rack;
  return CostForBytes(rack_remote, params_.cost_per_gb_in_rack) +
         CostForBytes(cluster_remote, params_.cost_per_gb_cross_rack);
}

int64_t QuincyPolicy::RackTransferCost(const TaskDescriptor& task, RackId rack) const {
  if (locality_ == nullptr || task.input_size_bytes == 0) {
    return 0;
  }
  return RackCostForBytes(task, locality_->BytesInRack(task, rack));
}

int64_t QuincyPolicy::RackCostForBytes(const TaskDescriptor& task, int64_t in_rack) const {
  // Worst case within the rack: none of the rack-resident bytes are on the
  // chosen machine.
  int64_t cluster_remote = task.input_size_bytes - in_rack;
  return CostForBytes(in_rack, params_.cost_per_gb_in_rack) +
         CostForBytes(cluster_remote, params_.cost_per_gb_cross_rack);
}

int64_t QuincyPolicy::ClusterTransferCost(const TaskDescriptor& task) const {
  // Worst case anywhere: the whole input crosses racks.
  return CostForBytes(task.input_size_bytes, params_.cost_per_gb_cross_rack);
}

void QuincyPolicy::TaskSpecificArcs(const TaskDescriptor& task, SimTime now,
                                    std::vector<ArcSpec>* out) {
  (void)now;
  if (task.state == TaskState::kRunning) {
    // Continuation arc: input already fetched, so running on is free — and
    // strictly preferred (-1) over equally-priced alternatives so that ties
    // never cause gratuitous migrations. Flow routed elsewhere implies
    // preemption or migration worth paying for.
    NodeId machine_node = manager_->NodeForMachine(task.machine);
    if (machine_node != kInvalidNodeId) {
      out->push_back({machine_node, 1, -1, 0});
    }
  }
}

void QuincyPolicy::EquivClassArcs(const TaskDescriptor& representative, SimTime now,
                                  std::vector<ArcSpec>* out) {
  (void)now;
  const TaskDescriptor& task = representative;
  // Fallback via the cluster aggregator at worst-case cost.
  out->push_back({cluster_agg_, 1, ClusterTransferCost(task), 0});

  if (locality_ == nullptr || task.input_size_bytes == 0) {
    return;
  }

  // Every byte count below comes from one pass over the task's blocks.
  locality_->ProfileInput(task, *cluster_, &profile_);
  auto bytes_in_rack = [this](RackId rack) {
    auto it = std::partition_point(profile_.racks.begin(), profile_.racks.end(),
                                   [rack](const auto& entry) { return entry.first < rack; });
    return it != profile_.racks.end() && it->first == rack ? it->second : 0;
  };

  // Machine preference arcs: machines holding >= threshold of the input.
  std::vector<ArcSpec> machine_arcs;
  std::vector<std::pair<int64_t, RackId>> rack_costs;  // deduped below
  std::vector<RackId> candidate_racks;
  for (const auto& [machine, on_machine] : profile_.machines) {
    if (!cluster_->machine(machine).alive) {
      continue;
    }
    RackId rack = cluster_->RackOf(machine);
    double fraction =
        static_cast<double>(on_machine) / static_cast<double>(task.input_size_bytes);
    if (fraction >= params_.machine_preference_threshold) {
      NodeId node = manager_->NodeForMachine(machine);
      if (node != kInvalidNodeId) {
        machine_arcs.push_back(
            {node, 1, MachineCostForBytes(task, on_machine, bytes_in_rack(rack)), 0});
      }
    }
    if (std::find(candidate_racks.begin(), candidate_racks.end(), rack) ==
        candidate_racks.end()) {
      candidate_racks.push_back(rack);
    }
  }
  std::sort(machine_arcs.begin(), machine_arcs.end(),
            [](const ArcSpec& a, const ArcSpec& b) { return a.cost < b.cost; });
  if (machine_arcs.size() > static_cast<size_t>(params_.max_machine_preference_arcs)) {
    machine_arcs.resize(static_cast<size_t>(params_.max_machine_preference_arcs));
  }
  out->insert(out->end(), machine_arcs.begin(), machine_arcs.end());

  // Rack preference arcs: racks holding >= threshold of the input.
  for (RackId rack : candidate_racks) {
    const int64_t in_rack = bytes_in_rack(rack);
    double fraction = static_cast<double>(in_rack) / static_cast<double>(task.input_size_bytes);
    if (fraction >= params_.rack_preference_threshold) {
      rack_costs.push_back({RackCostForBytes(task, in_rack), rack});
    }
  }
  std::sort(rack_costs.begin(), rack_costs.end());
  if (rack_costs.size() > static_cast<size_t>(params_.max_rack_preference_arcs)) {
    rack_costs.resize(static_cast<size_t>(params_.max_rack_preference_arcs));
  }
  for (const auto& [cost, rack] : rack_costs) {
    // Pure lookup: class arcs are cached across rounds, so this hook must
    // not create graph nodes (scheduling_policy.h).
    NodeId rack_node = manager_->FindAggregator(RackKey(rack));
    if (rack_node != kInvalidNodeId) {
      out->push_back({rack_node, 1, cost, 0});
    }
  }
}

void QuincyPolicy::AggregatorArcs(NodeId aggregator, std::vector<ArcSpec>* out) {
  // Aggregator lookups stay pure (FindAggregator), never creating: node
  // lifetimes belong to the lifecycle hooks. A non-empty rack always
  // has its aggregator — OnMachineAdded creates it before any arc refresh
  // and OnMachineRemoved drains it only with the last machine.
  if (aggregator == cluster_agg_) {
    // X fans out to every non-empty rack; costs are on task arcs (Quincy
    // prices the worst case on the task -> X arc).
    for (RackId rack = 0; rack < cluster_->num_racks(); ++rack) {
      const std::vector<MachineId>& machines = cluster_->MachinesInRack(rack);
      if (machines.empty()) {
        continue;
      }
      int64_t slots = 0;
      for (MachineId machine : machines) {
        slots += cluster_->machine(machine).spec.slots;
      }
      NodeId rack_node = manager_->FindAggregator(RackKey(rack));
      DCHECK_NE(rack_node, kInvalidNodeId);
      out->push_back({rack_node, slots, 0, 0});
    }
    return;
  }
  // Rack aggregator: fan out to the rack's machines.
  for (RackId rack = 0; rack < cluster_->num_racks(); ++rack) {
    if (manager_->FindAggregator(RackKey(rack)) != aggregator) {
      continue;
    }
    for (MachineId machine : cluster_->MachinesInRack(rack)) {
      if (!cluster_->machine(machine).alive) {
        continue;
      }
      NodeId node = manager_->NodeForMachine(machine);
      if (node != kInvalidNodeId) {
        out->push_back({node, cluster_->machine(machine).spec.slots, 0, 0});
      }
    }
    return;
  }
}

}  // namespace firmament
