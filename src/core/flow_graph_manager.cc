#include "src/core/flow_graph_manager.h"

#include <algorithm>
#include <numeric>

#include "src/base/check.h"

namespace firmament {

namespace {

// Records `value` for `node` in a NodeId-indexed table, growing it with
// `invalid` fill as needed.
template <typename T>
void SetNodeSlot(std::vector<T>* table, NodeId node, T value, T invalid) {
  if (node >= table->size()) {
    table->resize(node + 1, invalid);
  }
  (*table)[node] = value;
}

}  // namespace

FlowGraphManager::FlowGraphManager(ClusterState* cluster, SchedulingPolicy* policy,
                                   FlowGraphManagerOptions options)
    : cluster_(cluster), policy_(policy), options_(options) {
  network_.EnableChangeRecording(true);
  sink_ = network_.AddNode(0, NodeKind::kSink);
  policy_->Initialize(this);
}

NodeId FlowGraphManager::NodeForMachine(MachineId machine) const {
  auto it = machine_to_node_.find(machine);
  return it == machine_to_node_.end() ? kInvalidNodeId : it->second;
}

MachineId FlowGraphManager::MachineForNode(NodeId node) const {
  return node < node_to_machine_.size() ? node_to_machine_[node] : kInvalidMachineId;
}

NodeId FlowGraphManager::NodeForTask(TaskId task) const {
  auto it = task_info_.find(task);
  return it == task_info_.end() ? kInvalidNodeId : it->second.node;
}

TaskId FlowGraphManager::TaskForNode(NodeId node) const {
  return node < node_to_task_.size() ? node_to_task_[node] : kInvalidTaskId;
}

std::string FlowGraphManager::AggregatorKeyForNode(NodeId node) const {
  auto it = node_to_aggregator_.find(node);
  return it == node_to_aggregator_.end() ? std::string() : it->second;
}

JobId FlowGraphManager::JobForUnscheduledNode(NodeId node) const {
  auto it = node_to_job_.find(node);
  return it == node_to_job_.end() ? kInvalidJobId : it->second;
}

NodeId FlowGraphManager::FindAggregator(const std::string& key) const {
  auto it = aggregators_.find(key);
  return it == aggregators_.end() ? kInvalidNodeId : it->second.node;
}

NodeId FlowGraphManager::GetOrCreateAggregator(const std::string& key) {
  auto it = aggregators_.find(key);
  if (it != aggregators_.end()) {
    return it->second.node;
  }
  AggregatorInfo info;
  info.node = network_.AddNode(0, NodeKind::kAggregator);
  info.key = key;
  node_to_aggregator_.emplace(info.node, key);
  NodeId node = info.node;
  aggregators_.emplace(key, std::move(info));
  return node;
}

void FlowGraphManager::RemoveAggregator(const std::string& key) {
  auto it = aggregators_.find(key);
  CHECK(it != aggregators_.end());
  NodeId node = it->second.node;
  PurgeArcsTo(node);
  node_to_aggregator_.erase(node);
  aggregators_.erase(it);
  network_.RemoveNode(node);
}

bool FlowGraphManager::AddMachine(MachineId machine) {
  if (machine_to_node_.count(machine) != 0) {
    return false;  // already mapped: duplicate add event
  }
  NodeId node = network_.AddNode(0, NodeKind::kMachine);
  machine_to_node_.emplace(machine, node);
  SetNodeSlot(&node_to_machine_, node, machine, kInvalidMachineId);
  ArcId to_sink = network_.AddArc(node, sink_, cluster_->machine(machine).spec.slots, 0);
  machine_sink_arc_.emplace(machine, to_sink);
  pending_machines_added_.insert(machine);
  policy_->OnMachineAdded(machine);
  return true;
}

bool FlowGraphManager::RemoveMachine(MachineId machine) {
  auto it = machine_to_node_.find(machine);
  if (it == machine_to_node_.end()) {
    return false;  // never mapped or already removed: duplicate event
  }
  NodeId node = it->second;
  policy_->OnMachineRemoved(machine);
  PurgeArcsTo(node);
  network_.RemoveNode(node);
  node_to_machine_[node] = kInvalidMachineId;
  machine_to_node_.erase(it);
  machine_sink_arc_.erase(machine);
  pending_machines_added_.erase(machine);
  pending_machines_removed_.insert(machine);
  return true;
}

void FlowGraphManager::InvalidateClass(EquivClass ec) {
  auto it = ec_cache_.find(ec);
  if (it == ec_cache_.end()) {
    return;
  }
  ClassEntry& entry = it->second;
  for (size_t i = 0; i < entry.arcs.size(); ++i) {
    // Swap-remove the spec's slot; the entry moved into it learns its new
    // position.
    std::vector<ClassSpecRef>& refs = ec_dst_index_[entry.arcs[i].dst];
    const uint32_t pos = entry.index_pos[i];
    refs[pos] = refs.back();
    refs[pos].entry->index_pos[refs[pos].spec] = pos;
    refs.pop_back();
  }
  ec_cache_.erase(it);
}

void FlowGraphManager::InvalidateClassesReferencing(NodeId dst) {
  if (dst >= ec_dst_index_.size()) {
    return;
  }
  // Each InvalidateClass drops all of the class's slots, this list's too.
  std::vector<ClassSpecRef>& refs = ec_dst_index_[dst];
  while (!refs.empty()) {
    const EquivClass ec = refs.back().ec;
    InvalidateClass(ec);
    // Node removal is a semantic invalidation: cached placements built on
    // the class's arcs are stale too (unlike refcount eviction, which fires
    // precisely when a recurring job's template must survive).
    if (on_class_invalidated_) {
      on_class_invalidated_(ec);
    }
  }
}

void FlowGraphManager::ClearClassCache() {
  for (const auto& [ec, entry] : ec_cache_) {
    for (const ArcSpec& spec : entry.arcs) {
      ec_dst_index_[spec.dst].clear();
    }
  }
  ec_cache_.clear();
  if (on_class_cache_cleared_) {
    on_class_cache_cleared_();
  }
}

void FlowGraphManager::IndexClassArcs(EquivClass ec, ClassEntry* entry) {
  entry->index_pos.resize(entry->arcs.size());
  for (size_t i = 0; i < entry->arcs.size(); ++i) {
    const NodeId dst = entry->arcs[i].dst;
    if (dst >= ec_dst_index_.size()) {
      ec_dst_index_.resize(dst + 1);
    }
    entry->index_pos[i] = static_cast<uint32_t>(ec_dst_index_[dst].size());
    ec_dst_index_[dst].push_back({entry, ec, static_cast<uint32_t>(i)});
  }
}

void FlowGraphManager::ReleaseClassRef(EquivClass ec) {
  auto it = ec_refcount_.find(ec);
  if (it == ec_refcount_.end()) {
    return;
  }
  if (--it->second == 0) {
    ec_refcount_.erase(it);
    // No live member remains to carry an invalidation mark for this class;
    // evict the entry so a repopulated class always recomputes against
    // current inputs (also what bounds the cache to live classes).
    InvalidateClass(ec);
  }
}

void FlowGraphManager::PurgeArcsTo(NodeId node) {
  // Cached class entries referencing the node are stale the moment it goes
  // (the id may be recycled); drop them before touching the graph.
  InvalidateClassesReferencing(node);
  // Incident arcs disappear with the node; drop the bookkeeping entries of
  // tasks and aggregators pointing at it so their ids are never reused
  // against recycled arc slots.
  for (ArcRef ref : network_.Adjacency(node)) {
    if (!FlowNetwork::RefIsReverse(ref)) {
      continue;  // outgoing arc (e.g. machine -> sink); no holder to purge
    }
    NodeId src = network_.Src(FlowNetwork::RefArc(ref));
    TaskId task = TaskForNode(src);
    if (task != kInvalidTaskId) {
      EraseArcsTo(&task_info_[task].arcs, node);
      continue;
    }
    auto agg_it = node_to_aggregator_.find(src);
    if (agg_it != node_to_aggregator_.end()) {
      EraseArcsTo(&aggregators_[agg_it->second].arcs, node);
    }
  }
}

std::pair<FlowGraphManager::ArcList::iterator, FlowGraphManager::ArcList::iterator>
FlowGraphManager::ArcsTo(ArcList* arcs, NodeId dst) {
  auto first = std::partition_point(arcs->begin(), arcs->end(),
                                    [dst](const auto& entry) { return entry.first.first < dst; });
  auto last = std::partition_point(first, arcs->end(),
                                   [dst](const auto& entry) { return entry.first.first == dst; });
  return {first, last};
}

void FlowGraphManager::EraseArcsTo(ArcList* arcs, NodeId dst) {
  auto [first, last] = ArcsTo(arcs, dst);
  arcs->erase(first, last);
}

int64_t FlowGraphManager::RampCost(const UnscheduledRamp& ramp, const TaskDescriptor& task,
                                   SimTime now) {
  SimTime wait = task.total_wait;
  if (task.state == TaskState::kWaiting && now > task.submit_time) {
    wait += now - task.submit_time;
  }
  int64_t buckets =
      ramp.bucket_width > 0 ? static_cast<int64_t>(wait / ramp.bucket_width) : 0;
  return ramp.base_cost + ramp.cost_per_bucket * buckets;
}

void FlowGraphManager::ScheduleRampCrossing(TaskId task_id, TaskInfo* info,
                                            const TaskDescriptor& task, SimTime now) {
  // Any previously scheduled crossing is stale from here on.
  ++info->ramp_gen;
  if (task.state != TaskState::kWaiting || info->ramp.cost_per_bucket == 0 ||
      info->ramp.bucket_width == 0) {
    return;  // frozen wait (running) or flat ramp: the cost never moves
  }
  // wait(t) = total_wait + (t - submit_time); the next crossing is the
  // earliest t > now where floor(wait(t) / bucket) increments.
  SimTime bucket = info->ramp.bucket_width;
  SimTime wait_now = task.total_wait + (now > task.submit_time ? now - task.submit_time : 0);
  SimTime next_wait = (wait_now / bucket + 1) * bucket;
  SimTime crossing = task.submit_time + (next_wait - task.total_wait);
  ramp_heap_.push(RampEntry{crossing, task_id, info->ramp_gen});
}

void FlowGraphManager::AdvanceRamps(SimTime now) {
  while (!ramp_heap_.empty() && std::get<0>(ramp_heap_.top()) <= now) {
    const RampEntry top = ramp_heap_.top();
    ramp_heap_.pop();
    TaskId task_id = std::get<1>(top);
    auto it = task_info_.find(task_id);
    if (it == task_info_.end() || it->second.ramp_gen != std::get<2>(top)) {
      continue;  // task removed or re-registered since this entry was pushed
    }
    const TaskDescriptor& task = cluster_->task(task_id);
    network_.SetArcCost(it->second.unscheduled_arc, RampCost(it->second.ramp, task, now));
    ScheduleRampCrossing(task_id, &it->second, task, now);
  }
}

bool FlowGraphManager::AddTask(TaskId task_id, SimTime now) {
  if (task_info_.count(task_id) != 0) {
    return false;  // already mapped: duplicate submission
  }
  const TaskDescriptor& task = cluster_->task(task_id);
  TaskInfo info;
  info.node = network_.AddNode(1, NodeKind::kTask);
  SetNodeSlot(&node_to_task_, info.node, task_id, kInvalidTaskId);

  JobInfo& job = job_info_[task.job];
  if (job.unscheduled_node == kInvalidNodeId) {
    job.unscheduled_node = network_.AddNode(0, NodeKind::kUnscheduled);
    job.to_sink = network_.AddArc(job.unscheduled_node, sink_, 0, 0);
    node_to_job_.emplace(job.unscheduled_node, task.job);
  }
  job.live_tasks += 1;
  network_.SetArcCapacity(job.to_sink, job.live_tasks);
  info.ramp = policy_->UnscheduledCostRamp(task);
  info.unscheduled_arc =
      network_.AddArc(info.node, job.unscheduled_node, 1, RampCost(info.ramp, task, now));
  auto [it, inserted] = task_info_.emplace(task_id, std::move(info));
  CHECK(inserted);
  ScheduleRampCrossing(task_id, &it->second, task, now);
  network_.SetNodeSupply(sink_, network_.Supply(sink_) - 1);
  pending_tasks_submitted_.insert(task_id);
  policy_->OnTaskAdded(task);
  return true;
}

bool FlowGraphManager::RemoveTask(TaskId task_id) {
  auto it = task_info_.find(task_id);
  if (it == task_info_.end()) {
    return false;  // never mapped or already removed: duplicate event
  }
  // The descriptor is still valid here; policies settle per-class
  // bookkeeping (e.g. request-aggregator refcounts) in the hook.
  policy_->OnTaskRemoved(cluster_->task(task_id));
  NodeId node = it->second.node;
  if (options_.task_removal_drain) {
    DrainTaskFlow(node);
  }
  JobId job_id = cluster_->task(task_id).job;
  if (it->second.ec_known) {
    ReleaseClassRef(it->second.ec);
  }
  // Policies never target task or unscheduled nodes from class arcs, but the
  // invalidation contract is "any removed node drops referencing classes" —
  // these lookups are O(1) no-ops in practice.
  InvalidateClassesReferencing(node);
  network_.RemoveNode(node);
  node_to_task_[node] = kInvalidTaskId;
  task_info_.erase(it);
  network_.SetNodeSupply(sink_, network_.Supply(sink_) + 1);

  JobInfo& job = job_info_[job_id];
  job.live_tasks -= 1;
  if (job.live_tasks == 0) {
    node_to_job_.erase(job.unscheduled_node);
    InvalidateClassesReferencing(job.unscheduled_node);
    network_.RemoveNode(job.unscheduled_node);
    job_info_.erase(job_id);
  } else {
    network_.SetArcCapacity(job.to_sink, job.live_tasks);
  }
  pending_tasks_submitted_.erase(task_id);
  pending_tasks_removed_.insert(task_id);
  return true;
}

void FlowGraphManager::DrainTaskFlow(NodeId task_node) {
  // Walk the task's unit of flow to the sink, decrementing as we go, so the
  // removal leaves no stranded excess at intermediate machine/aggregator
  // nodes (§5.3.2). Without this, removal breaks feasibility and the
  // incremental solver must repair it the hard way.
  NodeId current = task_node;
  while (current != sink_) {
    ArcId next = kInvalidArcId;
    for (ArcRef ref : network_.Adjacency(current)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      if (network_.Flow(arc) > 0) {
        next = arc;
        break;
      }
    }
    if (next == kInvalidArcId) {
      return;  // task was not routed (no solver run since submission)
    }
    network_.SetFlow(next, network_.Flow(next) - 1);
    current = network_.Dst(next);
  }
}

void FlowGraphManager::DiffArcs(NodeId src, const std::vector<ArcSpec>& desired,
                                ArcList* current) {
  // Pair every spec with the current arc of its key in one merge over key
  // order: `order` sorts the spec indices by (key, index), so the first of
  // duplicate keys comes first and wins. That keeps the per-spec work at
  // O(log n) for an aggregator's cluster-wide list as well.
  const auto key_of = [&desired](uint32_t i) { return ArcKey{desired[i].dst, desired[i].rank}; };
  std::vector<uint32_t>& order = scratch_order_;
  order.resize(desired.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&key_of](uint32_t a, uint32_t b) {
    return std::pair(key_of(a), a) < std::pair(key_of(b), b);
  });
  // Per spec: the arc it reuses (kInvalidArcId: a new key), or
  // kDuplicateArc to skip it. A reused arc's slot in `current` is cleared.
  constexpr ArcId kDuplicateArc = kInvalidArcId - 1;
  std::vector<ArcId>& arc_of = scratch_arc_of_;
  arc_of.assign(desired.size(), kInvalidArcId);
  auto cur = current->begin();
  for (size_t k = 0; k < order.size(); ++k) {
    const ArcKey key = key_of(order[k]);
    if (k > 0 && key_of(order[k - 1]) == key) {
      arc_of[order[k]] = kDuplicateArc;
      continue;
    }
    while (cur != current->end() && cur->first < key) {
      ++cur;
    }
    if (cur != current->end() && cur->first == key) {
      arc_of[order[k]] = cur->second;
      cur->second = kInvalidArcId;
    }
  }
  // Graph calls in `desired` order, then removals of the unused arcs in key
  // order.
  for (size_t i = 0; i < desired.size(); ++i) {
    const ArcSpec& spec = desired[i];
    if (arc_of[i] == kDuplicateArc) {
      continue;
    }
    if (arc_of[i] == kInvalidArcId) {
      arc_of[i] = network_.AddArc(src, spec.dst, spec.capacity, spec.cost);
    } else {
      network_.SetArcCost(arc_of[i], spec.cost);
      network_.SetArcCapacity(arc_of[i], spec.capacity);
    }
  }
  for (const auto& [key, arc] : *current) {
    if (arc != kInvalidArcId) {
      network_.RemoveArc(arc);
    }
  }
  current->clear();
  for (uint32_t i : order) {
    if (arc_of[i] != kDuplicateArc) {
      current->push_back({key_of(i), arc_of[i]});
    }
  }
}

void FlowGraphManager::RefreshAggregatorSlices(AggregatorInfo* info,
                                               MachineMarks::const_iterator first,
                                               MachineMarks::const_iterator last) {
  // Each marked machine's (dst, *) slice is diffed alone, in mark order, so
  // arcs towards other destinations are not touched. The new slices are
  // spliced in by one merge at the end: a round's machine-granular updates
  // cost one pass over the list rather than a shift per resized slice.
  ArcList& arcs = info->arcs;
  ArcList& resized = scratch_resized_;  // new slice contents, back to back
  resized.clear();
  std::vector<SliceSplice>& splices = scratch_splices_;
  splices.clear();
  for (auto it = first; it != last; ++it) {
    auto node_it = machine_to_node_.find(it->second);
    if (node_it == machine_to_node_.end()) {
      continue;  // machine removed since marking
    }
    const NodeId dst = node_it->second;
    scratch_specs_.clear();
    policy_->AggregatorMachineArcs(info->node, it->second, &scratch_specs_);
    for (const ArcSpec& spec : scratch_specs_) {
      DCHECK_EQ(spec.dst, dst);
    }
    auto [lo, hi] = ArcsTo(&arcs, dst);
    ArcList& slice = scratch_slice_;
    slice.assign(lo, hi);
    DiffArcs(info->node, scratch_specs_, &slice);
    const size_t resized_first = resized.size();
    resized.insert(resized.end(), slice.begin(), slice.end());
    splices.push_back({dst, static_cast<size_t>(lo - arcs.begin()),
                       static_cast<size_t>(hi - arcs.begin()), resized_first, resized.size()});
  }
  if (splices.empty()) {
    return;
  }
  // A slice is the run of one destination in a list sorted by destination,
  // so destination order is list order.
  std::sort(splices.begin(), splices.end(),
            [](const SliceSplice& a, const SliceSplice& b) { return a.dst < b.dst; });
  ArcList& merged = scratch_merged_;
  merged.clear();
  size_t pos = 0;
  for (const SliceSplice& splice : splices) {
    merged.insert(merged.end(), arcs.begin() + pos, arcs.begin() + splice.old_first);
    merged.insert(merged.end(), resized.begin() + splice.resized_first,
                  resized.begin() + splice.resized_last);
    pos = splice.old_last;
  }
  merged.insert(merged.end(), arcs.begin() + pos, arcs.end());
  arcs.swap(merged);
}

size_t FlowGraphManager::ValidateIntegrity() const {
  std::vector<std::string> violations;
  size_t verified = CheckIntegrity(&violations);
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "FlowGraphManager integrity violation: %s\n", violation.c_str());
  }
  CHECK(violations.empty());
  return verified;
}

size_t FlowGraphManager::CheckIntegrity(std::vector<std::string>* violations) const {
  size_t verified = 0;
  // Collects instead of aborting so the IntegrityChecker can decide whether
  // the state is recoverable (rebuild from the cluster) or impossible.
  auto fail = [violations](std::string what) {
    if (violations != nullptr) {
      violations->push_back(std::move(what));
    }
  };
  auto expect = [&fail](bool ok, const char* what) {
    if (!ok) {
      fail(what);
    }
    return ok;
  };
  // Every arc list lookup is a binary search over unique, sorted keys.
  auto keys_increase = [](const ArcList& arcs) {
    return std::adjacent_find(arcs.begin(), arcs.end(), [](const auto& a, const auto& b) {
             return !(a.first < b.first);
           }) == arcs.end();
  };

  expect(network_.IsValidNode(sink_) && network_.Kind(sink_) == NodeKind::kSink,
         "sink node invalid or wrong kind");
  for (const auto& [machine, node] : machine_to_node_) {
    const std::string who = "machine " + std::to_string(machine);
    if (!expect(network_.IsValidNode(node) && network_.Kind(node) == NodeKind::kMachine,
                (who + ": node invalid or wrong kind").c_str())) {
      continue;
    }
    expect(MachineForNode(node) == machine, (who + ": node->machine map mismatch").c_str());
    auto arc_it = machine_sink_arc_.find(machine);
    if (expect(arc_it != machine_sink_arc_.end(), (who + ": sink arc missing").c_str())) {
      ArcId to_sink = arc_it->second;
      expect(network_.IsValidArc(to_sink) && network_.Src(to_sink) == node &&
                 network_.Dst(to_sink) == sink_,
             (who + ": sink arc invalid or mis-wired").c_str());
    }
    ++verified;
  }
  // The reverse tables are NodeId-indexed: beyond the forward checks, no
  // slot may stay valid for an entity that is gone.
  auto valid_slots = [](const auto& table, auto invalid) {
    return table.size() - static_cast<size_t>(std::count(table.begin(), table.end(), invalid));
  };
  expect(valid_slots(node_to_machine_, kInvalidMachineId) == machine_to_node_.size(),
         "node->machine map carries extra entries");
  int64_t task_nodes = 0;
  for (const auto& [task, info] : task_info_) {
    const std::string who = "task " + std::to_string(task);
    if (!expect(network_.IsValidNode(info.node) && network_.Kind(info.node) == NodeKind::kTask,
                (who + ": node invalid or wrong kind").c_str())) {
      continue;
    }
    expect(network_.Supply(info.node) == 1, (who + ": supply != 1").c_str());
    expect(TaskForNode(info.node) == task, (who + ": node->task map mismatch").c_str());
    expect(network_.IsValidArc(info.unscheduled_arc) &&
               network_.Src(info.unscheduled_arc) == info.node,
           (who + ": unscheduled arc invalid or mis-wired").c_str());
    for (const auto& [key, arc] : info.arcs) {
      expect(network_.IsValidArc(arc) && network_.Src(arc) == info.node &&
                 network_.Dst(arc) == key.first,
             (who + ": tracked arc invalid or mis-wired").c_str());
    }
    expect(keys_increase(info.arcs), (who + ": arc keys out of order").c_str());
    ++task_nodes;
    ++verified;
  }
  expect(network_.Supply(sink_) == -task_nodes, "sink supply != -task_nodes");
  expect(valid_slots(node_to_task_, kInvalidTaskId) == task_info_.size(),
         "node->task map carries extra entries");
  for (const auto& [key, info] : aggregators_) {
    const std::string who = "aggregator " + key;
    if (!expect(network_.IsValidNode(info.node), (who + ": node invalid").c_str())) {
      continue;
    }
    auto rev = node_to_aggregator_.find(info.node);
    expect(rev != node_to_aggregator_.end() && rev->second == key,
           (who + ": node->aggregator map mismatch").c_str());
    for (const auto& [arc_key, arc] : info.arcs) {
      expect(network_.IsValidArc(arc) && network_.Src(arc) == info.node &&
                 network_.Dst(arc) == arc_key.first,
             (who + ": tracked arc invalid or mis-wired").c_str());
    }
    expect(keys_increase(info.arcs), (who + ": arc keys out of order").c_str());
    ++verified;
  }
  for (const auto& [job, info] : job_info_) {
    const std::string who = "job " + std::to_string(job);
    if (!expect(network_.IsValidNode(info.unscheduled_node) &&
                    network_.Kind(info.unscheduled_node) == NodeKind::kUnscheduled,
                (who + ": unscheduled node invalid or wrong kind").c_str())) {
      continue;
    }
    auto rev = node_to_job_.find(info.unscheduled_node);
    expect(rev != node_to_job_.end() && rev->second == job,
           (who + ": node->job map mismatch").c_str());
    expect(network_.IsValidArc(info.to_sink) &&
               network_.Capacity(info.to_sink) == info.live_tasks,
           (who + ": unscheduled->sink arc capacity != live_tasks").c_str());
    ++verified;
  }
  // Cross-round class cache: every cached spec must target a live node and
  // sit at its recorded slot of the dst index (else a node removal could
  // not invalidate it), and the index must hold nothing else — no slot of
  // an evicted entry. Both together make the index and the cached specs a
  // one-to-one match.
  size_t cached_specs = 0;
  for (const auto& [ec, entry] : ec_cache_) {
    const std::string who = "class " + std::to_string(ec);
    // Entries exist only while the class has live members (the refcounts
    // evict at zero, so an unpopulated class can never serve stale arcs).
    expect(ec_refcount_.count(ec) != 0, (who + ": cached without live members").c_str());
    if (!expect(entry.index_pos.size() == entry.arcs.size(),
                (who + ": index positions != cached specs").c_str())) {
      continue;
    }
    for (size_t i = 0; i < entry.arcs.size(); ++i) {
      const NodeId dst = entry.arcs[i].dst;
      const uint32_t pos = entry.index_pos[i];
      expect(network_.IsValidNode(dst), (who + ": cached spec targets dead node").c_str());
      const bool indexed = dst < ec_dst_index_.size() && pos < ec_dst_index_[dst].size() &&
                           ec_dst_index_[dst][pos].entry == &entry &&
                           ec_dst_index_[dst][pos].ec == ec && ec_dst_index_[dst][pos].spec == i;
      expect(indexed, (who + ": cached spec not at its recorded dst index slot").c_str());
    }
    cached_specs += entry.arcs.size();
    ++verified;
  }
  size_t index_entries = 0;
  for (const std::vector<ClassSpecRef>& refs : ec_dst_index_) {
    index_entries += refs.size();
  }
  expect(index_entries == cached_specs, "dst index entries != cached class specs");
  return verified;
}

void FlowGraphManager::RebuildFromCluster(SimTime now) {
  // Drop everything graph-derived. Move-assigning a fresh FlowNetwork gives
  // network_ a new uid, so every solver's persistent view detects the swap
  // on its next Prepare() and rebuilds instead of patching a stale journal.
  network_ = FlowNetwork();
  network_.EnableChangeRecording(true);
  machine_to_node_.clear();
  node_to_machine_.clear();
  task_info_.clear();
  node_to_task_.clear();
  job_info_.clear();
  node_to_job_.clear();
  machine_sink_arc_.clear();
  aggregators_.clear();
  node_to_aggregator_.clear();
  pending_tasks_submitted_.clear();
  pending_tasks_removed_.clear();
  pending_machines_added_.clear();
  pending_machines_removed_.clear();
  marks_.Clear();
  ec_cache_.clear();
  ec_dst_index_.clear();
  ec_refcount_.clear();
  ramp_heap_ = {};
  update_stats_ = UpdateRoundStats{};

  sink_ = network_.AddNode(0, NodeKind::kSink);
  // Policies reset their graph-derived bookkeeping here (re-entrancy
  // contract, scheduling_policy.h) and re-learn it from the replay hooks.
  policy_->Initialize(this);
  // Replay in id order — the same order a from-scratch manager would see —
  // so the rebuilt graph is byte-identical to a reference rebuild.
  for (const MachineDescriptor& machine : cluster_->machines()) {
    if (machine.alive) {
      AddMachine(machine.id);
    }
  }
  for (TaskId task : cluster_->LiveTasks()) {
    AddTask(task, now);
  }
  UpdateRound(now, RefreshMode::kFull);
}

void FlowGraphManager::RefreshTask(TaskId task_id, SimTime now) {
  auto it = task_info_.find(task_id);
  if (it == task_info_.end()) {
    return;  // removed after being marked dirty
  }
  TaskInfo& info = it->second;
  const TaskDescriptor& task = cluster_->task(task_id);
  ++update_stats_.tasks_refreshed;
  // Task-specific arcs first: on a (dst, rank) collision the specific arc
  // (e.g. a running task's continuation arc to a machine that is also a
  // preference destination) must win over the shared class arc.
  scratch_specs_.clear();
  policy_->TaskSpecificArcs(task, now, &scratch_specs_);
  const EquivClass ec = policy_->TaskEquivClass(task);
  info.ramp = policy_->UnscheduledCostRamp(task);
  if (!info.ec_known) {
    info.ec = ec;
    info.ec_known = true;
    ++ec_refcount_[ec];
  } else if (info.ec != ec) {
    ReleaseClassRef(info.ec);
    info.ec = ec;
    ++ec_refcount_[ec];
  }
  auto [cache_it, inserted] = ec_cache_.try_emplace(ec);
  ClassEntry& entry = cache_it->second;
  if (inserted) {
    policy_->EquivClassArcs(task, now, &entry.arcs);
    IndexClassArcs(ec, &entry);
    ++update_stats_.class_cache_misses;
  } else {
    ++update_stats_.class_cache_hits;
  }
  scratch_specs_.insert(scratch_specs_.end(), entry.arcs.begin(), entry.arcs.end());
  DiffArcs(info.node, scratch_specs_, &info.arcs);

  network_.SetArcCost(info.unscheduled_arc, RampCost(info.ramp, task, now));
  ScheduleRampCrossing(task_id, &info, task, now);
}

void FlowGraphManager::RefreshAggregator(AggregatorInfo* info) {
  scratch_specs_.clear();
  policy_->AggregatorArcs(info->node, &scratch_specs_);
  DiffArcs(info->node, scratch_specs_, &info->arcs);
}

void FlowGraphManager::UpdateRound(SimTime now, RefreshMode mode) {
  const bool full = mode == RefreshMode::kFull;
  policy_->BeginRound(now);

  // Assemble the round's typed dirty sets from the event buffers and the
  // cluster's dirty marks. kFull leaves the cluster's marks in place (a
  // reference manager sharing the cluster must not steal the primary's
  // change signals) and instead redoes the legacy first pass (§6.3).
  update_.now = now;
  update_.full = full;
  update_.tasks_submitted.assign(pending_tasks_submitted_.begin(), pending_tasks_submitted_.end());
  update_.tasks_removed.assign(pending_tasks_removed_.begin(), pending_tasks_removed_.end());
  update_.machines_added.assign(pending_machines_added_.begin(), pending_machines_added_.end());
  update_.machines_removed.assign(pending_machines_removed_.begin(),
                                  pending_machines_removed_.end());
  update_.tasks_state_changed.clear();
  update_.machines_stats_changed.clear();
  if (full) {
    cluster_->RefreshStatistics();
  } else {
    for (TaskId task : cluster_->dirty_tasks()) {
      if (task_info_.count(task) != 0 && pending_tasks_submitted_.count(task) == 0) {
        update_.tasks_state_changed.push_back(task);
      }
    }
    for (MachineId machine : cluster_->dirty_machines()) {
      if (machine_to_node_.count(machine) != 0 &&
          pending_machines_added_.count(machine) == 0) {
        update_.machines_stats_changed.push_back(machine);
      }
    }
    cluster_->ClearDirty();
  }

  marks_.Clear();
  policy_->CollectDirty(update_, &marks_);

  // Machine -> sink capacities: spec changes arrive as stats-dirty marks
  // (mutable_machine), so only touched machines are visited.
  if (full) {
    for (auto& [machine, arc] : machine_sink_arc_) {
      network_.SetArcCapacity(arc, cluster_->machine(machine).spec.slots);
    }
  } else {
    for (MachineId machine : update_.machines_added) {
      network_.SetArcCapacity(machine_sink_arc_.at(machine),
                              cluster_->machine(machine).spec.slots);
    }
    for (MachineId machine : update_.machines_stats_changed) {
      network_.SetArcCapacity(machine_sink_arc_.at(machine),
                              cluster_->machine(machine).spec.slots);
    }
  }

  // Task arcs for the round's dirty tasks, shared per equivalence class.
  // The cache persists across rounds; only invalidated entries recompute.
  // A full refresh drops it wholesale so every class is recomputed from
  // current state, and MarkAllTasks — the policies' wide-invalidation
  // escape hatch — does the same since it signals "anything may have
  // changed".
  if (full || marks_.all_tasks || marks_.all_equiv_classes) {
    ClearClassCache();
  } else {
    for (EquivClass ec : marks_.equiv_classes) {
      InvalidateClass(ec);
      // A MarkEquivClass mark means the class's arc *costs* moved, whether
      // or not the arc cache currently holds an entry — templates keyed on
      // the class are stale either way.
      if (on_class_invalidated_) {
        on_class_invalidated_(ec);
      }
    }
  }
  std::vector<TaskId> refresh_list;
  if (full || marks_.all_tasks) {
    // Rare wide invalidation (first round, forced refresh, machine removal):
    // one ordered pass over everything.
    refresh_list.reserve(task_info_.size());
    for (const auto& [task_id, info] : task_info_) {
      refresh_list.push_back(task_id);
    }
    std::sort(refresh_list.begin(), refresh_list.end());
  } else {
    // Ordered dirty sets keep iteration deterministic without the legacy
    // O(n log n) full task-id re-sort.
    std::set<TaskId> dirty_tasks;
    dirty_tasks.insert(update_.tasks_submitted.begin(), update_.tasks_submitted.end());
    dirty_tasks.insert(update_.tasks_state_changed.begin(), update_.tasks_state_changed.end());
    for (TaskId task_id : marks_.tasks) {
      if (task_info_.count(task_id) != 0) {
        dirty_tasks.insert(task_id);
      }
    }
    refresh_list.assign(dirty_tasks.begin(), dirty_tasks.end());
  }
  for (TaskId task_id : refresh_list) {
    RefreshTask(task_id, now);
  }

  // Advance the unscheduled-cost ramps: only tasks whose wait crossed a
  // bucket boundary since the last round get their arc cost poked.
  AdvanceRamps(now);

  // Aggregator arcs: full recomputes for marked aggregators, per-machine
  // slices for marked (aggregator, machine) pairs.
  if (full || marks_.all_aggregators) {
    std::vector<std::string> keys;
    keys.reserve(aggregators_.size());
    for (const auto& [key, info] : aggregators_) {
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      RefreshAggregator(&aggregators_[key]);
    }
  } else {
    for (NodeId agg : marks_.aggregators) {
      if (node_to_aggregator_.count(agg) != 0) {  // else drained since marked
        RefreshAggregator(&aggregators_[node_to_aggregator_.at(agg)]);
      }
    }
    // The marks are ordered by aggregator: one slice refresh per aggregator.
    const MachineMarks& marked = marks_.aggregator_machines;
    for (auto first = marked.begin(); first != marked.end();) {
      const NodeId agg = first->first;
      auto last = std::find_if(first, marked.end(),
                               [agg](const auto& mark) { return mark.first != agg; });
      // Skipped when the full recompute above already covers the slices, or
      // when the aggregator drained since marking.
      if (marks_.aggregators.count(agg) == 0 && node_to_aggregator_.count(agg) != 0) {
        RefreshAggregatorSlices(&aggregators_[node_to_aggregator_.at(agg)], first, last);
      }
      first = last;
    }
  }

  pending_tasks_submitted_.clear();
  pending_tasks_removed_.clear();
  pending_machines_added_.clear();
  pending_machines_removed_.clear();
  last_update_stats_ = update_stats_;
  update_stats_ = UpdateRoundStats{};
}

}  // namespace firmament
