// Task placement extraction from an optimal flow (§6.3, Listing 1).
//
// Starting from machine nodes, machine identities are propagated backwards
// along incoming flow until they reach task nodes; flow through unscheduled
// aggregators marks tasks as unplaced. Because Firmament allows arbitrary
// aggregator chains, paths can be longer than in Quincy; the algorithm
// resolves each node once its full outgoing flow has been accounted for, so
// extraction is a single pass over the flow-carrying subgraph.
//
// Storage is flat: every node's destination list is a slice of one buffer
// (prefix sums over the nodes' outflows) and the resolved queue is a vector
// with a head index, so a round's extraction makes no per-node allocation
// and no hash lookup.

#ifndef SRC_CORE_PLACEMENT_EXTRACTOR_H_
#define SRC_CORE_PLACEMENT_EXTRACTOR_H_

#include <utility>
#include <vector>

#include "src/core/flow_graph_manager.h"
#include "src/core/types.h"

namespace firmament {

struct ExtractionResult {
  // One (task, machine) entry per resolved task node; tasks routed through
  // an unscheduled aggregator map to kInvalidMachineId. Entries appear in
  // resolution order — the order Listing 1's backward propagation reaches
  // the task nodes — which is a deterministic function of the network
  // (node ids, adjacency order and flow); ApplyRound applies a round's
  // deltas in this order. Tasks upstream of unrouted excess in an
  // approximate, infeasible pseudoflow (§5.1) never resolve and are absent.
  std::vector<std::pair<TaskId, MachineId>> placements;
};

// Extracts placements from the manager's (solved) flow network.
ExtractionResult ExtractPlacements(const FlowGraphManager& manager);

}  // namespace firmament

#endif  // SRC_CORE_PLACEMENT_EXTRACTOR_H_
