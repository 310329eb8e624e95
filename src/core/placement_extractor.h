// Task placement extraction from an optimal flow (§6.3, Listing 1).
//
// Starting from machine nodes, machine identities are propagated backwards
// along incoming flow until they reach task nodes; flow through unscheduled
// aggregators marks tasks as unplaced. Because Firmament allows arbitrary
// aggregator chains, paths can be longer than in Quincy; the algorithm
// resolves each node once its full outgoing flow has been accounted for, so
// extraction is a single pass over the flow-carrying subgraph.
//
// ExtractPlacements is that pass over the whole network: the reference
// (fig10, fig13 and the extraction tests call it) and the scheduler's
// fallback. Between two rounds, though, only a few task nodes can change
// placement, so the scheduler's apply runs ScopedExtractor instead: it
// resolves a given set of task nodes plus every task routed through an
// aggregator, and reads only the aggregator subgraph to do so.
//
// Storage is flat: every node's destination list is a slice of one buffer
// (prefix sums over the nodes' outflows) and the resolved queue is a vector
// with a head index, so a round's extraction makes no per-node allocation
// and no hash lookup.

#ifndef SRC_CORE_PLACEMENT_EXTRACTOR_H_
#define SRC_CORE_PLACEMENT_EXTRACTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/flow_graph_manager.h"
#include "src/core/types.h"

namespace firmament {

struct ExtractionResult {
  // One (task, machine) entry per resolved task node; tasks routed through
  // an unscheduled aggregator map to kInvalidMachineId. ExtractPlacements
  // lists them in resolution order — the order Listing 1's backward
  // propagation reaches the task nodes, a deterministic function of the
  // network (node ids, adjacency order and flow). ScopedExtractor lists
  // them in ascending TaskId order. Tasks upstream of unrouted excess in an
  // approximate, infeasible pseudoflow (§5.1) never resolve and are absent.
  std::vector<std::pair<TaskId, MachineId>> placements;
};

// Extracts placements from the manager's (solved) flow network.
ExtractionResult ExtractPlacements(const FlowGraphManager& manager);

// Extraction scoped to what a round can have changed.
//
// Task nodes that send their flow straight to a machine or to their
// unscheduled aggregator resolve from their own out-arcs. Tasks whose flow
// enters a rack, cluster or request aggregator get the machines the full
// pass gives them: the walk replays Listing 1 over the flow-carrying arcs
// incident to aggregators only, with the full pass's queue order (machines
// in ValidNodes order, aggregators as they resolve) and in-arc cursor
// (adjacency order). Task nodes are leaves of the backward walk, so
// skipping the others changes nothing an aggregator delivers. Machine nodes
// send flow only to the sink, so each delivers its own id on every in-arc.
//
// Cross-round state: an index of the arcs carrying flow into or out of an
// aggregator. ExtractAll rebuilds it; ExtractScoped folds in the arcs the
// latest write-back changed (FlowNetwork::flow_changed_arcs), so it is
// valid only while every flow change since the last extraction came
// through that one write-back (or left an aggregator arc at zero flow:
// arc removal, task-removal drain).
class ScopedExtractor {
 public:
  // The full pass (ExtractPlacements), in ascending TaskId order; rebuilds
  // the aggregator arc index.
  ExtractionResult ExtractAll(const FlowGraphManager& manager);

  // Resolves, over an optimal flow, every task node whose out-arc flow the
  // latest write-back changed, every task routed through an aggregator,
  // and the tasks in `seeds` (ids without a graph node are skipped), in
  // ascending TaskId order. Returns false, leaving `out` unspecified, if
  // the aggregator subgraph has a shape the walk does not model (an
  // aggregator fed by or feeding something other than tasks, aggregators,
  // machines and the sink, or one left unresolved); run ExtractAll then.
  bool ExtractScoped(const FlowGraphManager& manager, const std::vector<TaskId>& seeds,
                     ExtractionResult* out);

 private:
  // Adds `arc` to the index if it carries flow into or out of an aggregator.
  void Index(const FlowNetwork& net, ArcId arc);
  // Listing 1 over the indexed arcs: appends (task node, machine) for every
  // task whose flow enters an aggregator.
  bool WalkAggregators(const FlowGraphManager& manager,
                       std::vector<std::pair<NodeId, MachineId>>* routed);

  // Arcs that carried flow into or out of an aggregator when indexed; stale
  // entries (flow gone, arc removed or recycled) drop out at the next walk.
  std::vector<ArcId> agg_arcs_;
  std::vector<uint8_t> indexed_;  // ArcId-indexed membership of agg_arcs_
  // Walk scratch, NodeId-indexed; kNone outside a walk.
  static constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> walk_slot_;
};

}  // namespace firmament

#endif  // SRC_CORE_PLACEMENT_EXTRACTOR_H_
