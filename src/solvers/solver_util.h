// Shared algorithmic building blocks for the MCMF solvers.
//
// Sign conventions used throughout the solvers (Ahuja–Magnanti–Orlin):
//   reduced cost of residual arc (i -> j):  c_pi(i,j) = c(i,j) - pi(i) + pi(j)
//   optimality (reduced cost condition, §4): c_pi >= 0 on all residual arcs.
//
// The core implementations run over a FlowNetworkView (dense CSR snapshot);
// thin FlowNetwork-facing wrappers build a view internally and translate ids
// back, so callers that hold only the mutable graph keep working.

#ifndef SRC_SOLVERS_SOLVER_UTIL_H_
#define SRC_SOLVERS_SOLVER_UTIL_H_

#include <cstdint>
#include <vector>

#include "src/flow/flow_network_view.h"
#include "src/flow/graph.h"

namespace firmament {

// Reduced cost of a residual arc w.r.t. the given potentials.
inline int64_t ReducedCost(const FlowNetwork& net, const std::vector<int64_t>& potential,
                           ArcRef ref) {
  return net.RefCost(ref) - potential[net.RefSrc(ref)] + potential[net.RefDst(ref)];
}

// Dense-view variant; `potential` is keyed by dense node index.
inline int64_t ReducedCost(const FlowNetworkView& view, const std::vector<int64_t>& potential,
                           uint32_t ref) {
  return view.RefCost(ref) - potential[view.RefSrc(ref)] + potential[view.RefDst(ref)];
}

// --- View-based cores ------------------------------------------------------

// Computes dense-keyed node potentials such that every residual arc has
// non-negative reduced cost, via label-correcting (SPFA) shortest paths from
// a virtual root connected to all nodes at distance 0. Returns false if the
// residual network contains a negative-cost cycle (i.e. the flow is not
// optimal). `potential` is resized to view.num_nodes().
bool ComputeOptimalPotentials(const FlowNetworkView& view, std::vector<int64_t>* potential);

// Finds a directed negative-cost cycle in the residual network, returned as
// a sequence of dense residual refs with positive residual capacity. Empty
// if none exists (negative cycle optimality condition, §4).
std::vector<uint32_t> FindNegativeCycle(const FlowNetworkView& view);

// Bounded optimality prover: like ComputeOptimalPotentials, but gives up
// (returns false) once any node is relaxed more than `relax_bound` times
// instead of running the full negative-cycle detection. Near-optimal flows
// converge in a few passes, so this is cheap to call between cost scaling
// phases (the in-loop price refine heuristic of [17]); far-from-optimal
// flows bail quickly. A true return proves 0-optimality and yields
// dense-keyed certifying potentials.
bool TryProveOptimal(const FlowNetworkView& view, std::vector<int64_t>* potential,
                     uint32_t relax_bound);

// Price refine (§6.2): recomputes reduced node potentials for an optimal
// flow so that complementary slackness holds with small potentials. This is
// what makes relaxation -> incremental cost scaling handoffs cheap.
// Returns false (leaving `potential` untouched) if the flow is not optimal.
// The potentials are computed on the dense view and scattered to original
// NodeId keys (`potential` sized to view.orig_node_capacity()). Shortest
// distances do not depend on node numbering, and tombstoned slots carry no
// residual capacity, so a patched view in sync with a network yields
// exactly the potentials of a freshly built one.
bool PriceRefine(const FlowNetworkView& view, std::vector<int64_t>* potential);

// --- FlowNetwork-facing wrappers -------------------------------------------

// Negative cycle as original-graph ArcRefs.
std::vector<ArcRef> FindNegativeCycle(const FlowNetwork& net);

// Price refine on a throwaway view of `net`; `potential` is keyed by
// original NodeId.
bool PriceRefine(const FlowNetwork& net, std::vector<int64_t>* potential);

// Bounded prover over the mutable graph; `potential` keyed by original
// NodeId.
bool TryProveOptimal(const FlowNetwork& net, std::vector<int64_t>* potential,
                     uint32_t relax_bound);

}  // namespace firmament

#endif  // SRC_SOLVERS_SOLVER_UTIL_H_
