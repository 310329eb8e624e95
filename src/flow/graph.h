// Flow network representation for flow-based scheduling (§3.2).
//
// The network is a directed graph with per-arc capacity and cost and per-node
// supply. It is mutated incrementally as cluster state changes (task
// submission/completion, machine failures, cost updates) and carries the
// current flow assignment so that incremental solvers (§5.2) can warm-start
// from the previous solution.
//
// Representation notes:
//  * Nodes and arcs have stable ids; removed ids are recycled via free lists.
//  * Each arc stores the index of its two adjacency entries so removal is
//    O(1) — aggregator nodes can have 10^5 incident arcs, so scanning
//    adjacency lists on removal would be prohibitive.
//  * Residual arcs are addressed by ArcRef = (arc_id << 1) | is_reverse.
//    Algorithms work exclusively in terms of ArcRefs.
//  * All mutations can be recorded into a change log consumed by incremental
//    solvers (supply / capacity / cost changes; §5.2 observes that all
//    cluster events reduce to these three plus structural changes).

#ifndef SRC_FLOW_GRAPH_H_
#define SRC_FLOW_GRAPH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/base/check.h"

namespace firmament {

using NodeId = uint32_t;
using ArcId = uint32_t;
using ArcRef = uint32_t;

inline constexpr NodeId kInvalidNodeId = std::numeric_limits<NodeId>::max();
inline constexpr ArcId kInvalidArcId = std::numeric_limits<ArcId>::max();

// Role of a node in the scheduling graph; kGeneric for non-scheduling uses
// (e.g. DIMACS-loaded benchmark graphs). Solvers ignore this; placement
// extraction and debug dumps use it.
enum class NodeKind : uint8_t {
  kGeneric = 0,
  kTask,
  kMachine,
  kAggregator,    // cluster (X), rack (R), or request (RA) aggregators
  kUnscheduled,   // per-job unscheduled aggregator (U_j)
  kSink,
};

// One entry in the change log (§5.2): everything a warm-started solver needs
// to decide how much of its previous state remains valid.
struct GraphChange {
  enum class Kind : uint8_t {
    kAddNode,
    kRemoveNode,
    kAddArc,
    kRemoveArc,
    kArcCapacity,
    kArcCost,
    kNodeSupply,
  };
  Kind kind;
  uint32_t id;        // NodeId or ArcId depending on kind
  int64_t old_value;  // previous cost/capacity/supply where applicable
  int64_t new_value;  // new cost/capacity/supply; for arcs, the arc cost
};

class FlowNetwork {
 public:
  FlowNetwork() = default;
  // Copies carry the full state (including the journal) but get a fresh uid;
  // see uid() below. Moves preserve identity.
  FlowNetwork(const FlowNetwork& other);
  FlowNetwork& operator=(const FlowNetwork& other);
  FlowNetwork(FlowNetwork&&) = default;
  FlowNetwork& operator=(FlowNetwork&&) = default;

  // --- Structure mutation ------------------------------------------------
  NodeId AddNode(int64_t supply, NodeKind kind = NodeKind::kGeneric);
  // Removes the node and all incident arcs.
  void RemoveNode(NodeId node);
  ArcId AddArc(NodeId src, NodeId dst, int64_t capacity, int64_t cost);
  void RemoveArc(ArcId arc);
  void SetArcCapacity(ArcId arc, int64_t capacity);
  void SetArcCost(ArcId arc, int64_t cost);
  void SetNodeSupply(NodeId node, int64_t supply);

  // --- Node accessors -----------------------------------------------------
  bool IsValidNode(NodeId node) const {
    return node < nodes_.size() && nodes_[node].valid;
  }
  int64_t Supply(NodeId node) const { return nodes_[node].supply; }
  NodeKind Kind(NodeId node) const { return nodes_[node].kind; }
  void SetKind(NodeId node, NodeKind kind) { nodes_[node].kind = kind; }
  const std::vector<ArcRef>& Adjacency(NodeId node) const { return nodes_[node].adjacency; }
  // Compact list of valid node ids (unordered; stable between mutations).
  const std::vector<NodeId>& ValidNodes() const { return valid_nodes_; }
  // Index of `node` in ValidNodes().
  uint32_t ValidListPos(NodeId node) const { return nodes_[node].valid_list_pos; }
  size_t NumNodes() const { return valid_nodes_.size(); }
  // One past the largest node id ever allocated; for sizing id-indexed state.
  NodeId NodeCapacity() const { return static_cast<NodeId>(nodes_.size()); }

  // --- Arc accessors -------------------------------------------------------
  bool IsValidArc(ArcId arc) const { return arc < arcs_.size() && arcs_[arc].valid; }
  NodeId Src(ArcId arc) const { return arcs_[arc].src; }
  NodeId Dst(ArcId arc) const { return arcs_[arc].dst; }
  int64_t Capacity(ArcId arc) const { return arcs_[arc].capacity; }
  int64_t Cost(ArcId arc) const { return arcs_[arc].cost; }
  int64_t Flow(ArcId arc) const { return flow_[arc]; }
  // Index of the arc's reverse entry in Adjacency(Dst(arc)).
  uint32_t PosInDst(ArcId arc) const { return arcs_[arc].pos_in_dst; }
  void SetFlow(ArcId arc, int64_t flow) {
    DCHECK_GE(flow, 0);
    flow_[arc] = flow;
  }
  size_t NumArcs() const { return num_valid_arcs_; }
  ArcId ArcCapacityBound() const { return static_cast<ArcId>(arcs_.size()); }

  // --- Residual arc (ArcRef) accessors -------------------------------------
  static ArcRef MakeRef(ArcId arc, bool reverse) {
    return (arc << 1) | static_cast<ArcRef>(reverse);
  }
  static ArcId RefArc(ArcRef ref) { return ref >> 1; }
  static bool RefIsReverse(ArcRef ref) { return (ref & 1u) != 0; }
  static ArcRef RefReversed(ArcRef ref) { return ref ^ 1u; }

  // Head of the residual arc (where pushing flow along `ref` leads).
  NodeId RefDst(ArcRef ref) const {
    const ArcInternal& a = arcs_[RefArc(ref)];
    return RefIsReverse(ref) ? a.src : a.dst;
  }
  NodeId RefSrc(ArcRef ref) const {
    const ArcInternal& a = arcs_[RefArc(ref)];
    return RefIsReverse(ref) ? a.dst : a.src;
  }
  // Remaining capacity in the residual direction.
  int64_t RefResidual(ArcRef ref) const {
    ArcId arc = RefArc(ref);
    return RefIsReverse(ref) ? flow_[arc] : arcs_[arc].capacity - flow_[arc];
  }
  // Cost per unit in the residual direction (negated for reverse arcs).
  int64_t RefCost(ArcRef ref) const {
    ArcId arc = RefArc(ref);
    return RefIsReverse(ref) ? -arcs_[arc].cost : arcs_[arc].cost;
  }
  // Pushes `amount` units along the residual arc.
  void RefPush(ArcRef ref, int64_t amount) {
    ArcId arc = RefArc(ref);
    flow_[arc] += RefIsReverse(ref) ? -amount : amount;
    DCHECK_GE(flow_[arc], 0);
    DCHECK_LE(flow_[arc], arcs_[arc].capacity);
  }

  // --- Flow-level operations ------------------------------------------------
  // Resets all flow to zero (used before from-scratch solves).
  void ClearFlow();
  // Adopts the flow assignment of a structurally identical network (used by
  // benchmarks to install a reference solution; the racing solver now
  // installs the winner via its view's WriteBackFlow).
  void CopyFlowFrom(const FlowNetwork& other) {
    CHECK_EQ(flow_.size(), other.flow_.size());
    flow_ = other.flow_;
  }
  // Installs a solver's solution: BeginFlowWriteBack, then WriteBackArcFlow
  // for every arc. The network counts write-backs and keeps the arcs whose
  // flow the latest one changed, so placement extraction can revisit only
  // the tasks a solve moved.
  void BeginFlowWriteBack() {
    flow_changed_arcs_.clear();
    ++flow_writebacks_;
  }
  void WriteBackArcFlow(ArcId arc, int64_t flow) {
    DCHECK_GE(flow, 0);
    if (flow_[arc] != flow) {
      flow_[arc] = flow;
      flow_changed_arcs_.push_back(arc);
    }
  }
  const std::vector<ArcId>& flow_changed_arcs() const { return flow_changed_arcs_; }
  uint64_t flow_writebacks() const { return flow_writebacks_; }
  // Node excess: supply + inflow - outflow. Zero everywhere iff feasible.
  int64_t Excess(NodeId node) const;
  // Sum of c(a) * f(a) over all arcs.
  int64_t TotalCost() const;
  // Sum of positive supplies.
  int64_t TotalPositiveSupply() const;

  // --- Change log -------------------------------------------------------------
  // Enabling recording (re)bases the journal at the current version so that
  // `journal_base_version() + Changes().size() == version()` holds from here
  // on; that invariant is what tells a persistent FlowNetworkView that the
  // journal is a complete record of every mutation since its last sync.
  void EnableChangeRecording(bool enabled) {
    record_changes_ = enabled;
    changes_.clear();
    journal_base_version_ = version_;
  }
  bool change_recording_enabled() const { return record_changes_; }
  const std::vector<GraphChange>& Changes() const { return changes_; }
  void ClearChanges() {
    changes_.clear();
    journal_base_version_ = version_;
  }

  // --- Identity / versioning ---------------------------------------------------
  // Monotonic mutation counter (structure, costs, capacities, supplies — not
  // flow). Together with `uid()` and `journal_base_version()` it lets a
  // persistent FlowNetworkView decide whether the recorded journal suffix is
  // a complete diff against its last-synced state. Copies receive a fresh
  // uid: a copy starts structurally identical but diverges independently, so
  // views synced against the original must not patch from the copy's journal.
  uint64_t uid() const { return uid_; }
  uint64_t version() const { return version_; }
  uint64_t journal_base_version() const { return journal_base_version_; }

  // Human-readable summary for debugging.
  std::string DebugString() const;

 private:
  struct NodeInternal {
    int64_t supply = 0;
    std::vector<ArcRef> adjacency;
    uint32_t valid_list_pos = 0;
    NodeKind kind = NodeKind::kGeneric;
    bool valid = false;
  };
  struct ArcInternal {
    NodeId src = kInvalidNodeId;
    NodeId dst = kInvalidNodeId;
    int64_t capacity = 0;
    int64_t cost = 0;
    // Position of this arc's forward entry in adjacency[src] and of its
    // reverse entry in adjacency[dst]; kept up to date under swap-removal.
    uint32_t pos_in_src = 0;
    uint32_t pos_in_dst = 0;
    bool valid = false;
  };

  static uint64_t NextUid();

  void RemoveAdjacencyEntry(NodeId node, uint32_t pos);
  void Record(GraphChange change) {
    ++version_;
    if (record_changes_) {
      changes_.push_back(change);
    }
  }

  std::vector<NodeInternal> nodes_;
  std::vector<ArcInternal> arcs_;
  std::vector<int64_t> flow_;
  std::vector<NodeId> valid_nodes_;
  std::vector<NodeId> free_nodes_;
  std::vector<ArcId> free_arcs_;
  std::vector<GraphChange> changes_;
  std::vector<ArcId> flow_changed_arcs_;
  uint64_t flow_writebacks_ = 0;
  size_t num_valid_arcs_ = 0;
  uint64_t uid_ = NextUid();
  uint64_t version_ = 0;
  uint64_t journal_base_version_ = 0;
  bool record_changes_ = false;
};

}  // namespace firmament

#endif  // SRC_FLOW_GRAPH_H_
