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

}  // namespace firmament
