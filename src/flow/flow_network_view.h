// Compact solve-time view of a FlowNetwork (CSR / forward-star layout),
// maintained *incrementally* across scheduling rounds (§5.2, Fig. 11).
//
// The mutable FlowNetwork is optimized for O(1) incremental edits: stable
// ids with free-list recycling, per-node std::vector adjacency, and
// validity flags. That layout is exactly wrong for the solver hot loops,
// which scan every arc many times per solve: validity branches pollute the
// branch predictor, id holes waste cache lines, and vector<ArcRef>
// adjacency chases one heap allocation per node.
//
// FlowNetworkView packs the network into dense arrays:
//  * Dense node renumbering: valid nodes occupy [0, num_nodes()), so
//    node-indexed solver state is contiguous and branch-free.
//  * Struct-of-arrays arc storage: src / dst / capacity / cost / flow live
//    in separate contiguous vectors, so loops that only touch one or two
//    attributes (e.g. the reduced-cost scan) stream at full cache-line
//    utilization.
//  * Blocked adjacency: the residual refs incident to node v occupy the
//    slice adj()[first_out(v) .. adj_end(v)) of one flat arena. A freshly
//    built view is plain CSR (slices are contiguous and gap-free); patched
//    views may carry per-node slack and relocated slices.
//  * Writeback map: OrigArc(a) gives the original ArcId, so the solved
//    flow can be installed back into the FlowNetwork.
//
// Incremental maintenance (the §6.2 "only a tiny delta changes per round"
// contract): instead of rebuilding in O(n + m) each Solve(), a persistent
// view is patched from the FlowNetwork's GraphChange journal in
// O(|changes|) via Apply()/Prepare():
//  * Supply / cost / capacity changes overwrite the dense entry in place.
//  * Removed nodes and arcs become *tombstones*: the dense slot stays (so
//    solver state sized by num_nodes()/num_arcs() never shifts) but is made
//    inert — zero supply, zero capacity, zero flow — which every solver
//    already skips via its residual > 0 checks. Tombstoned ids map to
//    kInvalidDense and are excluded from writeback and potential
//    translation.
//  * Added nodes and arcs append dense slots; adjacency insertions use the
//    per-node slack and relocate a node's slice to the arena tail (capacity
//    doubling, amortized O(1)) when it is full.
//  * Version/uid bookkeeping on FlowNetwork tells Prepare() whether the
//    journal suffix is a complete diff against the view's last-synced
//    state; if not — or when cumulative churn (tombstones + appends)
//    passes kRebuildChurnDivisor — it falls back to a full rebuild, which
//    also compacts the arena. The taken path is reported so SolveStats can
//    expose it.
//
// Residual arcs use the same (arc << 1) | is_reverse encoding as
// FlowNetwork::ArcRef, but over dense arc indices.
//
// Warm-start contract: solvers retain potentials keyed by *original*
// NodeId, which survive arbitrary renumbering between rounds.
// GatherPotentials / ScatterPotentials translate between that stable keying
// and the view's dense indices at the solve boundary.

#ifndef SRC_FLOW_FLOW_NETWORK_VIEW_H_
#define SRC_FLOW_FLOW_NETWORK_VIEW_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/flow/graph.h"

namespace firmament {

class FlowNetworkView {
 public:
  // How Prepare()/Apply() brought the view up to date.
  enum class PrepareResult : uint8_t {
    kBuilt,    // first build of this view
    kPatched,  // journal delta applied in place
    kRebuilt,  // fallback: stale bookkeeping or churn over threshold
  };

  // An empty view; call Prepare() (or Apply()/Rebuild()) before use.
  FlowNetworkView() = default;
  // Snapshots the current structure, costs, capacities, and flow of `net`.
  explicit FlowNetworkView(const FlowNetwork& net) { Rebuild(net); }

  // Brings the view in sync with `net`, patching from the un-consumed
  // suffix of the network's change journal when the version bookkeeping
  // proves the suffix is a complete diff, and rebuilding otherwise. Does
  // NOT touch the flow of unchanged arcs — callers that warm-start from the
  // network's flow must follow up with SyncFlowFrom().
  PrepareResult Prepare(const FlowNetwork& net);

  // Patches the view in place from an explicit change list, in
  // O(|changes| + degree of affected nodes); falls back to Rebuild() when
  // cumulative churn passes the threshold. `changes` must be exactly the
  // mutations applied to `net` since this view was last in sync (callers
  // normally use Prepare(), which derives that suffix itself).
  PrepareResult Apply(const FlowNetwork& net, const std::vector<GraphChange>& changes);

  // Full O(n + m) rebuild: compacts tombstones and adjacency slack.
  void Rebuild(const FlowNetwork& net);

  // Drops the view; the next Prepare() rebuilds.
  void Invalidate() { built_ = false; }
  bool built() const { return built_; }

  // Dense id space sizes, *including* tombstoned slots.
  uint32_t num_nodes() const { return static_cast<uint32_t>(supply_.size()); }
  uint32_t num_arcs() const { return static_cast<uint32_t>(src_.size()); }
  // Live (non-tombstoned) entities; equal to net.NumNodes()/NumArcs() when
  // the view is in sync.
  uint32_t num_live_nodes() const { return live_nodes_; }
  uint32_t num_live_arcs() const { return live_arcs_; }

  // --- Node accessors (dense index in [0, num_nodes())) -------------------
  int64_t Supply(uint32_t v) const { return supply_[v]; }
  NodeKind Kind(uint32_t v) const { return kind_[v]; }
  bool IsLiveNode(uint32_t v) const { return orig_node_[v] != kInvalidNodeId; }

  // --- Arc accessors (dense index in [0, num_arcs())) ---------------------
  uint32_t Src(uint32_t a) const { return src_[a]; }
  uint32_t Dst(uint32_t a) const { return dst_[a]; }
  int64_t Capacity(uint32_t a) const { return capacity_[a]; }
  int64_t Cost(uint32_t a) const { return cost_[a]; }
  int64_t Flow(uint32_t a) const { return flow_[a]; }
  bool IsLiveArc(uint32_t a) const { return orig_arc_[a] != kInvalidArcId; }
  void SetFlow(uint32_t a, int64_t flow) {
    DCHECK_GE(flow, 0);
    DCHECK_LE(flow, capacity_[a]);
    flow_[a] = flow;
  }

  // --- Residual refs (dense arc << 1 | is_reverse) ------------------------
  static uint32_t MakeRef(uint32_t arc, bool reverse) {
    return (arc << 1) | static_cast<uint32_t>(reverse);
  }
  static uint32_t RefArc(uint32_t ref) { return ref >> 1; }
  static bool RefIsReverse(uint32_t ref) { return (ref & 1u) != 0; }
  static uint32_t RefReversed(uint32_t ref) { return ref ^ 1u; }

  uint32_t RefSrc(uint32_t ref) const {
    uint32_t a = RefArc(ref);
    return RefIsReverse(ref) ? dst_[a] : src_[a];
  }
  uint32_t RefDst(uint32_t ref) const {
    uint32_t a = RefArc(ref);
    return RefIsReverse(ref) ? src_[a] : dst_[a];
  }
  int64_t RefResidual(uint32_t ref) const {
    uint32_t a = RefArc(ref);
    return RefIsReverse(ref) ? flow_[a] : capacity_[a] - flow_[a];
  }
  int64_t RefCost(uint32_t ref) const {
    uint32_t a = RefArc(ref);
    return RefIsReverse(ref) ? -cost_[a] : cost_[a];
  }
  void RefPush(uint32_t ref, int64_t amount) {
    uint32_t a = RefArc(ref);
    flow_[a] += RefIsReverse(ref) ? -amount : amount;
    DCHECK_GE(flow_[a], 0);
    DCHECK_LE(flow_[a], capacity_[a]);
  }

  // --- Adjacency ----------------------------------------------------------
  // Residual refs leaving/entering v: adj()[first_out(v) .. adj_end(v)).
  // Tombstoned arcs keep their refs in the slice; they are inert (zero
  // residual in both directions), which every solver scan already skips.
  uint32_t first_out(uint32_t v) const { return first_out_[v]; }
  uint32_t adj_end(uint32_t v) const { return adj_end_[v]; }
  const uint32_t* adj() const { return adj_.data(); }
  const uint32_t* AdjBegin(uint32_t v) const { return adj_.data() + first_out_[v]; }
  const uint32_t* AdjEnd(uint32_t v) const { return adj_.data() + adj_end_[v]; }
  uint32_t Degree(uint32_t v) const { return adj_end_[v] - first_out_[v]; }

  // --- Mapping to/from the original graph ---------------------------------
  NodeId OrigNode(uint32_t v) const { return orig_node_[v]; }
  ArcId OrigArc(uint32_t a) const { return orig_arc_[a]; }
  ArcRef OrigRef(uint32_t ref) const {
    return FlowNetwork::MakeRef(orig_arc_[RefArc(ref)], RefIsReverse(ref));
  }
  // Dense index of an original node id; kInvalidDense if not in the view.
  static constexpr uint32_t kInvalidDense = 0xffffffffu;
  // Sentinel for "no dense residual ref" (parent pointers and the like).
  static constexpr uint32_t kInvalidRef = 0xffffffffu;
  uint32_t DenseNode(NodeId node) const {
    return node < dense_node_.size() ? dense_node_[node] : kInvalidDense;
  }
  uint32_t DenseArc(ArcId arc) const {
    if (!dense_arc_valid_) {
      BuildDenseArcMap();
    }
    return arc < dense_arc_.size() ? dense_arc_[arc] : kInvalidDense;
  }
  // NodeCapacity() of the source network at sync time (sizing for
  // original-id-keyed vectors).
  NodeId orig_node_capacity() const { return orig_node_capacity_; }

  // --- Flow-level helpers -------------------------------------------------
  void ClearFlow() { std::fill(flow_.begin(), flow_.end(), 0); }
  // Copies the network's current per-arc flow into the view (one pass over
  // live dense arcs). Deliberately does NOT clamp to capacity: solvers'
  // warm-start paths handle capacity-shrink overflow themselves.
  void SyncFlowFrom(const FlowNetwork& net);
  int64_t TotalCost() const;
  // excess[v] = supply(v) + inflow(v) - outflow(v), one SoA sweep.
  void ComputeExcess(std::vector<int64_t>* excess) const;
  // Installs this view's flow into the original network's arcs.
  void WriteBackFlow(FlowNetwork* net) const;

  // --- Packed residual star -------------------------------------------------
  // One entry per residual ref, sized/aligned so that both directions of an
  // arc share a single cache line. Solver hot loops probe residual, cost,
  // and head together; packing them turns up to four random SoA loads per
  // probe into one line fetch. Costs are multiplied by `cost_multiplier`
  // (cost scaling passes its scale factor; others pass 1).
  struct alignas(32) ResidualEntry {
    int64_t residual;  // remaining capacity in this direction
    int64_t cost;      // per-unit cost in this direction (negated for reverse)
    uint32_t head;     // dense node this direction leads to
    uint32_t arc;      // dense arc index (for writeback / bookkeeping)
  };
  static_assert(sizeof(ResidualEntry) == 32, "two entries per cache line");

  // Fills star[ref] for every residual ref from the current flow.
  void BuildResidualStar(int64_t cost_multiplier, std::vector<ResidualEntry>* star) const;
  // Installs the star's residuals back into this view's flow array
  // (flow(a) = star[reverse ref].residual).
  void SyncFlowFromStar(const std::vector<ResidualEntry>& star);

  // --- Warm-start potential translation ------------------------------------
  // dense[v] = by_orig[OrigNode(v)] (0 where by_orig is too short or v is a
  // tombstone).
  void GatherPotentials(const std::vector<int64_t>& by_orig,
                        std::vector<int64_t>* dense) const;
  // by_orig is resized to orig_node_capacity(), zero-filled, then
  // by_orig[OrigNode(v)] = dense[v] for live v.
  void ScatterPotentials(const std::vector<int64_t>& dense,
                         std::vector<int64_t>* by_orig) const;

 private:
  // Rebuild fallback triggers, against live size n + m:
  //  * per-round: a single delta touching more than 1/kRoundChurnDivisor of
  //    the graph is not the incremental regime — a rebuild is comparably
  //    cheap and restores the canonical (sorted, tombstone-free) layout,
  //    which solvers measurably traverse in fewer iterations;
  //  * cumulative: tombstones + appends since the last rebuild beyond
  //    1/kRebuildChurnDivisor would let dead slots drag every solver scan.
  static constexpr uint32_t kRoundChurnDivisor = 32;
  static constexpr uint32_t kRebuildChurnDivisor = 4;

  bool CanPatch(const FlowNetwork& net) const;
  PrepareResult ApplyRange(const FlowNetwork& net, const std::vector<GraphChange>& changes,
                           size_t offset);
  void PatchOne(const FlowNetwork& net, const GraphChange& change);
  // Rebuilds orig -> dense arc mapping from orig_arc_. Deferred off the
  // Rebuild() path so throwaway views (solution checker, price refine, the
  // from-scratch benches) never pay for patch support; the first patch — or
  // DenseArc() probe — materializes it.
  void BuildDenseArcMap() const;
  void AddDenseNode(NodeId orig, int64_t supply, NodeKind kind);
  void TombstoneArc(uint32_t a);
  // Appends `ref` to v's adjacency slice, relocating the slice to the arena
  // tail with doubled capacity when full.
  void InsertAdjRef(uint32_t v, uint32_t ref);

  // SoA arc storage.
  std::vector<uint32_t> src_;
  std::vector<uint32_t> dst_;
  std::vector<int64_t> capacity_;
  std::vector<int64_t> cost_;
  std::vector<int64_t> flow_;

  // Node attributes.
  std::vector<int64_t> supply_;
  std::vector<NodeKind> kind_;

  // Blocked adjacency of residual refs: node v owns arena slice
  // [first_out_[v], adj_cap_[v]), of which [first_out_[v], adj_end_[v]) is
  // occupied. Freshly built views have adj_end_ == adj_cap_ and contiguous
  // slices (plain CSR).
  std::vector<uint32_t> first_out_;
  std::vector<uint32_t> adj_end_;
  std::vector<uint32_t> adj_cap_;
  std::vector<uint32_t> adj_;

  // Renumbering maps. Tombstoned dense slots hold kInvalidNodeId /
  // kInvalidArcId; tombstoned original ids map to kInvalidDense.
  std::vector<NodeId> orig_node_;     // dense -> original
  std::vector<uint32_t> dense_node_;  // original -> dense (or kInvalidDense)
  std::vector<ArcId> orig_arc_;       // dense -> original
  // original -> dense (or kInvalidDense); built lazily, see BuildDenseArcMap.
  mutable std::vector<uint32_t> dense_arc_;
  mutable bool dense_arc_valid_ = false;
  NodeId orig_node_capacity_ = 0;
  ArcId orig_arc_capacity_ = 0;

  // Sync bookkeeping against the source network (see graph.h versioning).
  bool built_ = false;
  uint64_t synced_uid_ = 0;
  uint64_t synced_version_ = 0;

  // Structural churn since the last rebuild.
  uint32_t live_nodes_ = 0;
  uint32_t live_arcs_ = 0;
  uint32_t churn_ = 0;
};

}  // namespace firmament

#endif  // SRC_FLOW_FLOW_NETWORK_VIEW_H_
