#include "src/flow/graph.h"

#include <atomic>
#include <cstdio>

namespace firmament {

uint64_t FlowNetwork::NextUid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

FlowNetwork::FlowNetwork(const FlowNetwork& other)
    : nodes_(other.nodes_),
      arcs_(other.arcs_),
      flow_(other.flow_),
      valid_nodes_(other.valid_nodes_),
      free_nodes_(other.free_nodes_),
      free_arcs_(other.free_arcs_),
      changes_(other.changes_),
      flow_changed_arcs_(other.flow_changed_arcs_),
      flow_writebacks_(other.flow_writebacks_),
      num_valid_arcs_(other.num_valid_arcs_),
      uid_(NextUid()),
      version_(other.version_),
      journal_base_version_(other.journal_base_version_),
      record_changes_(other.record_changes_) {}

FlowNetwork& FlowNetwork::operator=(const FlowNetwork& other) {
  if (this == &other) {
    return *this;
  }
  nodes_ = other.nodes_;
  arcs_ = other.arcs_;
  flow_ = other.flow_;
  valid_nodes_ = other.valid_nodes_;
  free_nodes_ = other.free_nodes_;
  free_arcs_ = other.free_arcs_;
  changes_ = other.changes_;
  flow_changed_arcs_ = other.flow_changed_arcs_;
  flow_writebacks_ = other.flow_writebacks_;
  num_valid_arcs_ = other.num_valid_arcs_;
  uid_ = NextUid();
  version_ = other.version_;
  journal_base_version_ = other.journal_base_version_;
  record_changes_ = other.record_changes_;
  return *this;
}

NodeId FlowNetwork::AddNode(int64_t supply, NodeKind kind) {
  NodeId id;
  if (!free_nodes_.empty()) {
    id = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
  }
  NodeInternal& n = nodes_[id];
  n.supply = supply;
  n.kind = kind;
  n.valid = true;
  n.adjacency.clear();
  n.valid_list_pos = static_cast<uint32_t>(valid_nodes_.size());
  valid_nodes_.push_back(id);
  Record({GraphChange::Kind::kAddNode, id, 0, supply});
  return id;
}

void FlowNetwork::RemoveNode(NodeId node) {
  CHECK(IsValidNode(node));
  // Remove all incident arcs first. Copy the refs since RemoveArc mutates
  // the adjacency list.
  std::vector<ArcRef> incident = nodes_[node].adjacency;
  for (ArcRef ref : incident) {
    ArcId arc = RefArc(ref);
    if (arcs_[arc].valid) {
      RemoveArc(arc);
    }
  }
  NodeInternal& n = nodes_[node];
  CHECK(n.adjacency.empty());
  n.valid = false;
  // Swap-remove from the valid list.
  uint32_t pos = n.valid_list_pos;
  NodeId moved = valid_nodes_.back();
  valid_nodes_[pos] = moved;
  nodes_[moved].valid_list_pos = pos;
  valid_nodes_.pop_back();
  free_nodes_.push_back(node);
  Record({GraphChange::Kind::kRemoveNode, node, n.supply, 0});
}

ArcId FlowNetwork::AddArc(NodeId src, NodeId dst, int64_t capacity, int64_t cost) {
  CHECK(IsValidNode(src));
  CHECK(IsValidNode(dst));
  CHECK_NE(src, dst);
  CHECK_GE(capacity, 0);
  ArcId id;
  if (!free_arcs_.empty()) {
    id = free_arcs_.back();
    free_arcs_.pop_back();
  } else {
    id = static_cast<ArcId>(arcs_.size());
    arcs_.emplace_back();
    flow_.push_back(0);
  }
  ArcInternal& a = arcs_[id];
  a.src = src;
  a.dst = dst;
  a.capacity = capacity;
  a.cost = cost;
  a.valid = true;
  flow_[id] = 0;
  a.pos_in_src = static_cast<uint32_t>(nodes_[src].adjacency.size());
  nodes_[src].adjacency.push_back(MakeRef(id, /*reverse=*/false));
  a.pos_in_dst = static_cast<uint32_t>(nodes_[dst].adjacency.size());
  nodes_[dst].adjacency.push_back(MakeRef(id, /*reverse=*/true));
  ++num_valid_arcs_;
  Record({GraphChange::Kind::kAddArc, id, 0, cost});
  return id;
}

void FlowNetwork::RemoveAdjacencyEntry(NodeId node, uint32_t pos) {
  std::vector<ArcRef>& adj = nodes_[node].adjacency;
  DCHECK_LT(pos, adj.size());
  ArcRef moved = adj.back();
  adj[pos] = moved;
  adj.pop_back();
  if (pos < adj.size()) {
    // Fix the moved entry's stored position.
    ArcInternal& moved_arc = arcs_[RefArc(moved)];
    if (RefIsReverse(moved)) {
      moved_arc.pos_in_dst = pos;
    } else {
      moved_arc.pos_in_src = pos;
    }
  }
}

void FlowNetwork::RemoveArc(ArcId arc) {
  CHECK(IsValidArc(arc));
  ArcInternal& a = arcs_[arc];
  RemoveAdjacencyEntry(a.src, a.pos_in_src);
  RemoveAdjacencyEntry(a.dst, a.pos_in_dst);
  a.valid = false;
  flow_[arc] = 0;
  free_arcs_.push_back(arc);
  --num_valid_arcs_;
  Record({GraphChange::Kind::kRemoveArc, arc, a.cost, 0});
}

void FlowNetwork::SetArcCapacity(ArcId arc, int64_t capacity) {
  CHECK(IsValidArc(arc));
  CHECK_GE(capacity, 0);
  int64_t old = arcs_[arc].capacity;
  if (old == capacity) {
    return;
  }
  arcs_[arc].capacity = capacity;
  Record({GraphChange::Kind::kArcCapacity, arc, old, capacity});
}

void FlowNetwork::SetArcCost(ArcId arc, int64_t cost) {
  CHECK(IsValidArc(arc));
  int64_t old = arcs_[arc].cost;
  if (old == cost) {
    return;
  }
  arcs_[arc].cost = cost;
  Record({GraphChange::Kind::kArcCost, arc, old, cost});
}

void FlowNetwork::SetNodeSupply(NodeId node, int64_t supply) {
  CHECK(IsValidNode(node));
  int64_t old = nodes_[node].supply;
  if (old == supply) {
    return;
  }
  nodes_[node].supply = supply;
  Record({GraphChange::Kind::kNodeSupply, node, old, supply});
}

void FlowNetwork::ClearFlow() {
  for (size_t i = 0; i < flow_.size(); ++i) {
    flow_[i] = 0;
  }
}

int64_t FlowNetwork::Excess(NodeId node) const {
  CHECK(IsValidNode(node));
  int64_t excess = nodes_[node].supply;
  for (ArcRef ref : nodes_[node].adjacency) {
    ArcId arc = RefArc(ref);
    if (RefIsReverse(ref)) {
      excess += flow_[arc];  // incoming
    } else {
      excess -= flow_[arc];  // outgoing
    }
  }
  return excess;
}

int64_t FlowNetwork::TotalCost() const {
  int64_t total = 0;
  for (ArcId arc = 0; arc < arcs_.size(); ++arc) {
    if (arcs_[arc].valid) {
      total += arcs_[arc].cost * flow_[arc];
    }
  }
  return total;
}

int64_t FlowNetwork::TotalPositiveSupply() const {
  int64_t total = 0;
  for (NodeId node : valid_nodes_) {
    if (nodes_[node].supply > 0) {
      total += nodes_[node].supply;
    }
  }
  return total;
}

std::string FlowNetwork::DebugString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "FlowNetwork{nodes=%zu arcs=%zu supply=%lld}", NumNodes(),
                NumArcs(), static_cast<long long>(TotalPositiveSupply()));
  return buf;
}

}  // namespace firmament
