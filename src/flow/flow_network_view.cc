#include "src/flow/flow_network_view.h"

#include <algorithm>

namespace firmament {

void FlowNetworkView::Rebuild(const FlowNetwork& net) {
  orig_node_capacity_ = net.NodeCapacity();

  // Dense node numbering in increasing original-id order: scheduling graphs
  // allocate sink / aggregators / machines / tasks in cohorts, so sorting
  // keeps same-kind nodes adjacent in the dense space.
  orig_node_ = net.ValidNodes();
  std::sort(orig_node_.begin(), orig_node_.end());
  const uint32_t n = static_cast<uint32_t>(orig_node_.size());
  dense_node_.assign(orig_node_capacity_, kInvalidDense);
  supply_.resize(n);
  kind_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    NodeId orig = orig_node_[v];
    dense_node_[orig] = v;
    supply_[v] = net.Supply(orig);
    kind_[v] = net.Kind(orig);
  }

  // Dense arcs in increasing original-id order. Sized up front and written
  // by index: push_back's per-element growth check defeats vectorization of
  // this, the hottest rebuild loop.
  const ArcId arc_bound = net.ArcCapacityBound();
  const uint32_t m = static_cast<uint32_t>(net.NumArcs());
  orig_arc_.resize(m);
  src_.resize(m);
  dst_.resize(m);
  capacity_.resize(m);
  cost_.resize(m);
  flow_.resize(m);
  orig_arc_capacity_ = arc_bound;
  dense_arc_valid_ = false;  // materialized lazily on the first patch
  // Degree counts accumulate in first_out_ (transiently sized n + 1, the
  // classical CSR prefix layout) to avoid a scratch allocation per rebuild.
  first_out_.assign(static_cast<size_t>(n) + 1, 0);
  uint32_t k = 0;
  for (ArcId arc = 0; arc < arc_bound; ++arc) {
    if (!net.IsValidArc(arc)) {
      continue;
    }
    uint32_t s = dense_node_[net.Src(arc)];
    uint32_t d = dense_node_[net.Dst(arc)];
    DCHECK_NE(s, kInvalidDense);
    DCHECK_NE(d, kInvalidDense);
    orig_arc_[k] = arc;
    src_[k] = s;
    dst_[k] = d;
    capacity_[k] = net.Capacity(arc);
    cost_[k] = net.Cost(arc);
    flow_[k] = net.Flow(arc);
    ++k;
    ++first_out_[s + 1];
    ++first_out_[d + 1];
  }
  CHECK_EQ(k, m);

  // CSR fill: prefix-sum the degrees, then scatter the residual refs. Within
  // a node the refs land in increasing dense-arc order, which is
  // deterministic. A fresh build carries no slack (adj_end_ == adj_cap_);
  // patching grows slack by relocating slices to the arena tail.
  for (uint32_t v = 0; v < n; ++v) {
    first_out_[v + 1] += first_out_[v];
  }
  adj_end_.assign(first_out_.begin() + 1, first_out_.end());
  adj_cap_ = adj_end_;
  adj_.resize(2 * static_cast<size_t>(num_arcs()));
  std::vector<uint32_t> cursor(first_out_.begin(), first_out_.end() - 1);
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    adj_[cursor[src_[a]]++] = MakeRef(a, /*reverse=*/false);
    adj_[cursor[dst_[a]]++] = MakeRef(a, /*reverse=*/true);
  }
  first_out_.pop_back();  // back to one begin-offset per node

  live_nodes_ = n;
  live_arcs_ = m;
  churn_ = 0;
  built_ = true;
  synced_uid_ = net.uid();
  synced_version_ = net.version();
}

bool FlowNetworkView::CanPatch(const FlowNetwork& net) const {
  // The journal suffix past synced_version_ is a complete diff iff: this is
  // the same network object (uid), recording has been on the whole time
  // (base + |journal| == version — unrecorded mutations bump the version
  // without appending), and the view's sync point lies inside the journal's
  // coverage window.
  return built_ && synced_uid_ == net.uid() && net.change_recording_enabled() &&
         net.journal_base_version() + net.Changes().size() == net.version() &&
         synced_version_ >= net.journal_base_version() && synced_version_ <= net.version();
}

FlowNetworkView::PrepareResult FlowNetworkView::Prepare(const FlowNetwork& net) {
  if (!CanPatch(net)) {
    PrepareResult result = built_ ? PrepareResult::kRebuilt : PrepareResult::kBuilt;
    Rebuild(net);
    return result;
  }
  if (synced_version_ == net.version()) {
    return PrepareResult::kPatched;  // already in sync; nothing to apply
  }
  size_t offset = static_cast<size_t>(synced_version_ - net.journal_base_version());
  return ApplyRange(net, net.Changes(), offset);
}

FlowNetworkView::PrepareResult FlowNetworkView::Apply(
    const FlowNetwork& net, const std::vector<GraphChange>& changes) {
  if (!built_) {
    Rebuild(net);
    return PrepareResult::kBuilt;
  }
  return ApplyRange(net, changes, 0);
}

FlowNetworkView::PrepareResult FlowNetworkView::ApplyRange(
    const FlowNetwork& net, const std::vector<GraphChange>& changes, size_t offset) {
  // Attribute changes patch in O(1) and never beat a rebuild's per-arc
  // costs, so only *structural* churn counts towards the fallback: each
  // tombstone lengthens solver scans and each append grows the dense space,
  // so once their cumulative share passes 1/kRebuildChurnDivisor of the
  // live graph, compacting via a full rebuild is the better deal.
  uint64_t pending = 0;
  for (size_t i = offset; i < changes.size(); ++i) {
    switch (changes[i].kind) {
      case GraphChange::Kind::kAddNode:
      case GraphChange::Kind::kRemoveNode:
      case GraphChange::Kind::kAddArc:
      case GraphChange::Kind::kRemoveArc:
        ++pending;
        break;
      default:
        break;
    }
  }
  const uint64_t live = static_cast<uint64_t>(live_nodes_) + live_arcs_ + 64;
  if (pending * kRoundChurnDivisor > live ||
      (churn_ + pending) * kRebuildChurnDivisor > live) {
    Rebuild(net);
    return PrepareResult::kRebuilt;
  }
  if (!dense_arc_valid_) {
    BuildDenseArcMap();
  }
  for (size_t i = offset; i < changes.size(); ++i) {
    PatchOne(net, changes[i]);
  }
  if (orig_node_capacity_ < net.NodeCapacity()) {
    orig_node_capacity_ = net.NodeCapacity();
  }
  if (dense_node_.size() < orig_node_capacity_) {
    dense_node_.resize(orig_node_capacity_, kInvalidDense);
  }
  if (orig_arc_capacity_ < net.ArcCapacityBound()) {
    orig_arc_capacity_ = net.ArcCapacityBound();
  }
  synced_uid_ = net.uid();
  synced_version_ = net.version();
  return PrepareResult::kPatched;
}

void FlowNetworkView::BuildDenseArcMap() const {
  dense_arc_.assign(orig_arc_capacity_, kInvalidDense);
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    ArcId orig = orig_arc_[a];
    if (orig == kInvalidArcId) {
      continue;
    }
    if (dense_arc_.size() <= orig) {
      dense_arc_.resize(static_cast<size_t>(orig) + 1, kInvalidDense);
    }
    dense_arc_[orig] = a;
  }
  dense_arc_valid_ = true;
}

void FlowNetworkView::AddDenseNode(NodeId orig, int64_t supply, NodeKind kind) {
  uint32_t v = num_nodes();
  supply_.push_back(supply);
  kind_.push_back(kind);
  orig_node_.push_back(orig);
  if (dense_node_.size() <= orig) {
    dense_node_.resize(static_cast<size_t>(orig) + 1, kInvalidDense);
  }
  dense_node_[orig] = v;
  // Zero-capacity adjacency slice at the arena tail; the first incident arc
  // relocates it with real capacity.
  uint32_t pos = static_cast<uint32_t>(adj_.size());
  first_out_.push_back(pos);
  adj_end_.push_back(pos);
  adj_cap_.push_back(pos);
  ++live_nodes_;
  ++churn_;
}

void FlowNetworkView::TombstoneArc(uint32_t a) {
  // The dense slot stays (solver state sized by num_arcs() never shifts) but
  // becomes inert: zero capacity and flow mean zero residual in both
  // directions, which every solver scan skips, and zero cost keeps the
  // whole-arc sweeps (TotalCost, excess, saturation) contribution-free. The
  // adjacency refs are left in place — they are unreachable through any
  // residual > 0 check — and are compacted away at the next rebuild.
  ArcId orig = orig_arc_[a];
  if (orig != kInvalidArcId && orig < dense_arc_.size() && dense_arc_[orig] == a) {
    dense_arc_[orig] = kInvalidDense;
  }
  orig_arc_[a] = kInvalidArcId;
  capacity_[a] = 0;
  cost_[a] = 0;
  flow_[a] = 0;
  --live_arcs_;
  ++churn_;
}

void FlowNetworkView::InsertAdjRef(uint32_t v, uint32_t ref) {
  if (adj_end_[v] == adj_cap_[v]) {
    // Slice full: relocate to the arena tail with doubled capacity
    // (amortized O(1) per insertion). The abandoned slice becomes dead
    // space until the next rebuild compacts the arena.
    uint32_t deg = adj_end_[v] - first_out_[v];
    uint32_t new_cap = deg < 2 ? 4 : 2 * deg;
    uint32_t new_begin = static_cast<uint32_t>(adj_.size());
    adj_.resize(adj_.size() + new_cap);
    std::copy(adj_.begin() + first_out_[v], adj_.begin() + first_out_[v] + deg,
              adj_.begin() + new_begin);
    first_out_[v] = new_begin;
    adj_end_[v] = new_begin + deg;
    adj_cap_[v] = new_begin + new_cap;
  }
  adj_[adj_end_[v]++] = ref;
}

void FlowNetworkView::PatchOne(const FlowNetwork& net, const GraphChange& change) {
  switch (change.kind) {
    case GraphChange::Kind::kNodeSupply: {
      uint32_t v = DenseNode(change.id);
      if (v != kInvalidDense) {
        supply_[v] = change.new_value;
      }
      break;
    }
    case GraphChange::Kind::kArcCost: {
      uint32_t a = DenseArc(change.id);
      if (a != kInvalidDense) {
        cost_[a] = change.new_value;
      }
      break;
    }
    case GraphChange::Kind::kArcCapacity: {
      uint32_t a = DenseArc(change.id);
      if (a != kInvalidDense) {
        capacity_[a] = change.new_value;
      }
      break;
    }
    case GraphChange::Kind::kAddNode: {
      DCHECK_EQ(DenseNode(change.id), kInvalidDense);
      NodeKind kind = net.IsValidNode(change.id) ? net.Kind(change.id) : NodeKind::kGeneric;
      AddDenseNode(change.id, change.new_value, kind);
      break;
    }
    case GraphChange::Kind::kRemoveNode: {
      // Incident arcs were removed (and journaled) before the node, so by
      // now the slice holds only inert refs; tombstoning the node itself is
      // a supply reset plus dropping the id mapping.
      uint32_t v = DenseNode(change.id);
      if (v != kInvalidDense) {
        supply_[v] = 0;
        orig_node_[v] = kInvalidNodeId;
        dense_node_[change.id] = kInvalidDense;
        --live_nodes_;
        ++churn_;
      }
      break;
    }
    case GraphChange::Kind::kAddArc: {
      // The journal records only the arc id; structure comes from the
      // network's *current* state. Transient incarnations (added and
      // removed within the window, or an older incarnation of a recycled
      // id) may be unreconstructible — skip them: the matching kRemoveArc
      // later in the window is then a no-op, and the final incarnation's
      // own kAddArc re-adds the id against the state it actually has. When
      // an early entry is reconstructed from the final state instead, the
      // intervening kRemoveArc tombstones it before the final kAddArc runs,
      // so the live structure still converges to the network's.
      if (!net.IsValidArc(change.id)) {
        break;
      }
      uint32_t s = DenseNode(net.Src(change.id));
      uint32_t d = DenseNode(net.Dst(change.id));
      if (s == kInvalidDense || d == kInvalidDense) {
        break;
      }
      uint32_t stale = DenseArc(change.id);
      if (stale != kInvalidDense) {
        TombstoneArc(stale);
      }
      uint32_t a = num_arcs();
      src_.push_back(s);
      dst_.push_back(d);
      capacity_.push_back(net.Capacity(change.id));
      cost_.push_back(net.Cost(change.id));
      flow_.push_back(net.Flow(change.id));
      orig_arc_.push_back(change.id);
      if (dense_arc_.size() <= change.id) {
        dense_arc_.resize(static_cast<size_t>(change.id) + 1, kInvalidDense);
      }
      dense_arc_[change.id] = a;
      InsertAdjRef(s, MakeRef(a, /*reverse=*/false));
      InsertAdjRef(d, MakeRef(a, /*reverse=*/true));
      ++live_arcs_;
      ++churn_;
      break;
    }
    case GraphChange::Kind::kRemoveArc: {
      uint32_t a = DenseArc(change.id);
      if (a != kInvalidDense) {
        TombstoneArc(a);
      }
      break;
    }
  }
}

void FlowNetworkView::SyncFlowFrom(const FlowNetwork& net) {
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    ArcId orig = orig_arc_[a];
    if (orig != kInvalidArcId) {
      flow_[a] = net.Flow(orig);
    }
  }
}

void FlowNetworkView::BuildResidualStar(int64_t cost_multiplier,
                                        std::vector<ResidualEntry>* star) const {
  star->resize(2 * static_cast<size_t>(num_arcs()));
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    (*star)[MakeRef(a, false)] = {capacity_[a] - flow_[a], cost_[a] * cost_multiplier, dst_[a], a};
    (*star)[MakeRef(a, true)] = {flow_[a], -cost_[a] * cost_multiplier, src_[a], a};
  }
}

void FlowNetworkView::SyncFlowFromStar(const std::vector<ResidualEntry>& star) {
  CHECK_EQ(star.size(), 2 * static_cast<size_t>(num_arcs()));
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    flow_[a] = star[MakeRef(a, true)].residual;
  }
}

void FlowNetworkView::ComputeExcess(std::vector<int64_t>* excess) const {
  excess->assign(num_nodes(), 0);
  for (uint32_t v = 0; v < num_nodes(); ++v) {
    (*excess)[v] = supply_[v];
  }
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    (*excess)[src_[a]] -= flow_[a];
    (*excess)[dst_[a]] += flow_[a];
  }
}

int64_t FlowNetworkView::TotalCost() const {
  int64_t total = 0;
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    total += cost_[a] * flow_[a];
  }
  return total;
}

void FlowNetworkView::WriteBackFlow(FlowNetwork* net) const {
  for (uint32_t a = 0; a < num_arcs(); ++a) {
    if (orig_arc_[a] != kInvalidArcId) {
      net->SetFlow(orig_arc_[a], flow_[a]);
    }
  }
}

void FlowNetworkView::GatherPotentials(const std::vector<int64_t>& by_orig,
                                       std::vector<int64_t>* dense) const {
  dense->assign(num_nodes(), 0);
  for (uint32_t v = 0; v < num_nodes(); ++v) {
    NodeId orig = orig_node_[v];
    if (orig != kInvalidNodeId && orig < by_orig.size()) {
      (*dense)[v] = by_orig[orig];
    }
  }
}

void FlowNetworkView::ScatterPotentials(const std::vector<int64_t>& dense,
                                        std::vector<int64_t>* by_orig) const {
  CHECK_EQ(dense.size(), num_nodes());
  by_orig->assign(orig_node_capacity_, 0);
  for (uint32_t v = 0; v < num_nodes(); ++v) {
    if (orig_node_[v] != kInvalidNodeId) {
      (*by_orig)[orig_node_[v]] = dense[v];
    }
  }
}

}  // namespace firmament
