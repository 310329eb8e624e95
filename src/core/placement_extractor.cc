#include "src/core/placement_extractor.h"

#include <algorithm>
#include <cstddef>

#include "src/base/check.h"

namespace firmament {

ExtractionResult ExtractPlacements(const FlowGraphManager& manager) {
  const FlowNetwork& net = manager.network();
  const NodeId sink = manager.sink();
  const NodeId capacity = net.NodeCapacity();
  ExtractionResult result;
  result.placements.reserve(manager.num_task_nodes());

  // Node v's destinations — machine ids (kInvalidMachineId = unscheduled)
  // that its outgoing flow ultimately reaches — occupy the slice
  // dests[begin[v], begin[v] + outflow(v)) of one flat buffer; filled[v] of
  // them have arrived so far. pending[v] is the outgoing flow for which v
  // has not yet received destinations.
  std::vector<size_t> begin(capacity, 0);
  std::vector<size_t> filled(capacity, 0);
  std::vector<int64_t> pending(capacity, 0);

  // Pass 1: outflow (held in pending for now) and flow straight into the
  // sink (held in filled) per node.
  for (NodeId node : net.ValidNodes()) {
    if (node == sink) {
      continue;
    }
    int64_t outflow = 0;
    int64_t to_sink = 0;
    for (ArcRef ref : net.Adjacency(node)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      outflow += flow;
      if (net.Dst(arc) == sink) {
        to_sink += flow;
      }
    }
    pending[node] = outflow;
    filled[node] = static_cast<size_t>(to_sink);
  }
  size_t total = 0;
  for (NodeId node = 0; node < capacity; ++node) {
    begin[node] = total;
    total += static_cast<size_t>(pending[node]);
  }
  std::vector<MachineId> dests(total);

  // Flow into the sink resolves immediately: a machine delivers its own
  // identity, an unscheduled aggregator delivers "unplaced".
  std::vector<NodeId> resolved;
  resolved.reserve(net.NumNodes());
  for (NodeId node : net.ValidNodes()) {
    if (node == sink) {
      continue;
    }
    const int64_t outflow = pending[node];
    if (filled[node] > 0) {
      MachineId self = net.Kind(node) == NodeKind::kMachine ? manager.MachineForNode(node)
                                                            : kInvalidMachineId;
      std::fill_n(dests.begin() + static_cast<ptrdiff_t>(begin[node]), filled[node], self);
    }
    pending[node] = outflow - static_cast<int64_t>(filled[node]);
    if (outflow > 0 && pending[node] == 0) {
      resolved.push_back(node);
    }
  }

  // Propagate destinations backwards along incoming flow (Listing 1). Each
  // node resolves at most once, so `resolved` doubles as the FIFO queue.
  for (size_t head = 0; head < resolved.size(); ++head) {
    const NodeId node = resolved[head];
    const MachineId* node_dests = dests.data() + begin[node];
    const size_t count = filled[node];
    TaskId task = manager.TaskForNode(node);
    if (task != kInvalidTaskId) {
      CHECK_GT(count, 0u);
      result.placements.emplace_back(task, node_dests[count - 1]);
      continue;
    }
    size_t cursor = 0;
    for (ArcRef ref : net.Adjacency(node)) {
      if (!FlowNetwork::RefIsReverse(ref)) {
        continue;  // outgoing
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      NodeId src = net.Src(arc);
      // Move `flow` destinations to the incoming arc's source (Listing 1
      // lines 12-15). For an optimal flow the lists always suffice; for
      // approximate, infeasible pseudoflows (§5.1) nodes with unrouted
      // excess simply deliver fewer destinations, leaving their upstream
      // tasks unplaced.
      size_t moved = std::min(static_cast<size_t>(flow), count - cursor);
      DCHECK_LE(static_cast<int64_t>(moved), pending[src]);
      std::copy_n(node_dests + cursor, moved,
                  dests.begin() + static_cast<ptrdiff_t>(begin[src] + filled[src]));
      cursor += moved;
      filled[src] += moved;
      pending[src] -= static_cast<int64_t>(moved);
      if (pending[src] == 0) {
        resolved.push_back(src);
      }
    }
  }
  return result;
}

namespace {

bool IsAggregator(const FlowNetwork& net, NodeId node) {
  return net.Kind(node) == NodeKind::kAggregator;
}

}  // namespace

ExtractionResult ScopedExtractor::ExtractAll(const FlowGraphManager& manager) {
  ExtractionResult result = ExtractPlacements(manager);
  std::sort(result.placements.begin(), result.placements.end());
  const FlowNetwork& net = manager.network();
  for (ArcId arc : agg_arcs_) {
    indexed_[arc] = 0;
  }
  agg_arcs_.clear();
  for (ArcId arc = 0; arc < net.ArcCapacityBound(); ++arc) {
    Index(net, arc);
  }
  return result;
}

void ScopedExtractor::Index(const FlowNetwork& net, ArcId arc) {
  if (arc >= indexed_.size()) {
    indexed_.resize(std::max<size_t>(net.ArcCapacityBound(), arc + 1), 0);
  }
  if (indexed_[arc] != 0 || !net.IsValidArc(arc) || net.Flow(arc) <= 0 ||
      (!IsAggregator(net, net.Src(arc)) && !IsAggregator(net, net.Dst(arc)))) {
    return;
  }
  indexed_[arc] = 1;
  agg_arcs_.push_back(arc);
}

bool ScopedExtractor::ExtractScoped(const FlowGraphManager& manager,
                                    const std::vector<TaskId>& seeds, ExtractionResult* out) {
  const FlowNetwork& net = manager.network();
  std::vector<NodeId> nodes;
  nodes.reserve(net.flow_changed_arcs().size() + seeds.size());
  for (ArcId arc : net.flow_changed_arcs()) {
    Index(net, arc);
    if (net.IsValidArc(arc) && net.Kind(net.Src(arc)) == NodeKind::kTask) {
      nodes.push_back(net.Src(arc));
    }
  }
  for (TaskId task : seeds) {
    NodeId node = manager.NodeForTask(task);
    if (node != kInvalidNodeId) {
      nodes.push_back(node);
    }
  }
  std::vector<std::pair<NodeId, MachineId>> routed;
  if (!WalkAggregators(manager, &routed)) {
    return false;
  }
  out->placements.clear();
  for (const auto& [node, machine] : routed) {
    out->placements.emplace_back(manager.TaskForNode(node), machine);
  }
  // The rest resolve from their one unit of outflow: a machine delivers its
  // id, an unscheduled aggregator "unplaced"; aggregator-routed tasks came
  // from the walk above.
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (NodeId node : nodes) {
    for (ArcRef ref : net.Adjacency(node)) {
      ArcId arc = FlowNetwork::RefArc(ref);
      if (FlowNetwork::RefIsReverse(ref) || net.Flow(arc) <= 0) {
        continue;
      }
      const NodeId dst = net.Dst(arc);
      if (!IsAggregator(net, dst)) {
        out->placements.emplace_back(manager.TaskForNode(node),
                                     net.Kind(dst) == NodeKind::kMachine
                                         ? manager.MachineForNode(dst)
                                         : kInvalidMachineId);
      }
      break;
    }
  }
  std::sort(out->placements.begin(), out->placements.end());
  return true;
}

bool ScopedExtractor::WalkAggregators(const FlowGraphManager& manager,
                                      std::vector<std::pair<NodeId, MachineId>>* routed) {
  const FlowNetwork& net = manager.network();
  size_t kept = 0;
  for (ArcId arc : agg_arcs_) {
    if (net.IsValidArc(arc) && net.Flow(arc) > 0 &&
        (IsAggregator(net, net.Src(arc)) || IsAggregator(net, net.Dst(arc)))) {
      agg_arcs_[kept++] = arc;
    } else {
      indexed_[arc] = 0;
    }
  }
  agg_arcs_.resize(kept);
  if (agg_arcs_.empty()) {
    return true;
  }

  // One entry per aggregator and per machine an aggregator feeds. `in`
  // holds the node's indexed in-arcs; `pending` the outflow it has not yet
  // received destinations for (aggregators only: a machine delivers its
  // own id at once).
  struct Entry {
    NodeId node;
    bool machine;
    int64_t pending = 0;
    std::vector<MachineId> dests;
    std::vector<ArcId> in;
  };
  std::vector<Entry> entries;
  walk_slot_.resize(net.NodeCapacity(), kNone);
  auto slot = [&](NodeId node) {
    if (walk_slot_[node] == kNone) {
      walk_slot_[node] = static_cast<uint32_t>(entries.size());
      entries.push_back({node, net.Kind(node) == NodeKind::kMachine, 0, {}, {}});
    }
    return walk_slot_[node];
  };
  bool modeled = true;
  for (ArcId arc : agg_arcs_) {
    const NodeId src = net.Src(arc);
    const NodeId dst = net.Dst(arc);
    const int64_t flow = net.Flow(arc);
    if (IsAggregator(net, dst)) {
      const NodeKind kind = net.Kind(src);
      modeled = modeled && (kind == NodeKind::kTask || kind == NodeKind::kAggregator);
      entries[slot(dst)].in.push_back(arc);
    }
    if (IsAggregator(net, src)) {
      const NodeKind kind = net.Kind(dst);
      const uint32_t from = slot(src);
      if (kind == NodeKind::kSink) {
        // Flow straight into the sink delivers "unplaced" before anything
        // propagates, as in the full pass.
        entries[from].dests.insert(entries[from].dests.end(), static_cast<size_t>(flow),
                                   kInvalidMachineId);
      } else if (kind == NodeKind::kMachine || kind == NodeKind::kAggregator) {
        entries[from].pending += flow;
        if (kind == NodeKind::kMachine) {
          entries[slot(dst)].in.push_back(arc);
        }
      } else {
        modeled = false;
      }
    }
  }

  std::vector<uint32_t> queue;
  if (modeled) {
    for (uint32_t e = 0; e < entries.size(); ++e) {
      Entry& entry = entries[e];
      std::sort(entry.in.begin(), entry.in.end(),
                [&net](ArcId a, ArcId b) { return net.PosInDst(a) < net.PosInDst(b); });
      if (entry.machine || (entry.pending == 0 && !entry.dests.empty())) {
        queue.push_back(e);
      }
    }
    std::sort(queue.begin(), queue.end(), [&](uint32_t a, uint32_t b) {
      return net.ValidListPos(entries[a].node) < net.ValidListPos(entries[b].node);
    });
  }
  auto received = [&](uint32_t to, size_t count) {
    entries[to].pending -= static_cast<int64_t>(count);
    if (entries[to].pending == 0) {
      queue.push_back(to);
    }
  };
  // Listing 1's FIFO; `entries` no longer grows, so references stay valid.
  for (size_t head = 0; head < queue.size(); ++head) {
    const Entry& entry = entries[queue[head]];
    if (entry.machine) {
      const MachineId self = manager.MachineForNode(entry.node);
      for (ArcId arc : entry.in) {
        const uint32_t to = walk_slot_[net.Src(arc)];
        const size_t count = static_cast<size_t>(net.Flow(arc));
        entries[to].dests.insert(entries[to].dests.end(), count, self);
        received(to, count);
      }
      continue;
    }
    size_t cursor = 0;
    for (ArcId arc : entry.in) {
      const size_t moved =
          std::min(static_cast<size_t>(net.Flow(arc)), entry.dests.size() - cursor);
      const NodeId src = net.Src(arc);
      if (net.Kind(src) == NodeKind::kTask) {
        if (moved > 0) {
          routed->emplace_back(src, entry.dests[cursor + moved - 1]);
        }
      } else {
        const uint32_t to = walk_slot_[src];
        const auto first = entry.dests.begin() + static_cast<ptrdiff_t>(cursor);
        entries[to].dests.insert(entries[to].dests.end(), first,
                                 first + static_cast<ptrdiff_t>(moved));
        received(to, moved);
      }
      cursor += moved;
    }
  }
  // Every aggregator resolved exactly once (a machine, once queued, is done).
  const bool resolved = modeled && queue.size() == entries.size();
  for (const Entry& entry : entries) {
    walk_slot_[entry.node] = kNone;
  }
  return resolved;
}

}  // namespace firmament
