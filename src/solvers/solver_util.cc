#include "src/solvers/solver_util.h"

#include <algorithm>
#include <deque>

#include "src/base/check.h"

namespace firmament {

namespace {


// Label-correcting pass over the view's residual network from a virtual root
// at distance 0 to every node. On success, dist[v] is the (non-positive)
// shortest distance and parent[v] the dense ref used to reach v. Returns
// FlowNetworkView::kInvalidDense on success or a node known to lie on / be reachable from a
// negative cycle otherwise.
uint32_t SpfaFromEverywhere(const FlowNetworkView& view, std::vector<int64_t>* dist,
                            std::vector<uint32_t>* parent, uint32_t max_relaxations = 0) {
  const uint32_t n = view.num_nodes();
  dist->assign(n, 0);
  parent->assign(n, FlowNetworkView::kInvalidRef);
  std::vector<uint32_t> relax_count(n, 0);
  std::vector<bool> in_queue(n, true);
  std::deque<uint32_t> queue;
  for (uint32_t v = 0; v < n; ++v) {
    queue.push_back(v);
  }
  if (max_relaxations == 0) {
    max_relaxations = n + 1;
  }
  while (!queue.empty()) {
    uint32_t u = queue.front();
    queue.pop_front();
    in_queue[u] = false;
    const uint32_t* end = view.AdjEnd(u);
    for (const uint32_t* it = view.AdjBegin(u); it != end; ++it) {
      uint32_t ref = *it;
      if (view.RefResidual(ref) <= 0) {
        continue;
      }
      uint32_t v = view.RefDst(ref);
      int64_t nd = (*dist)[u] + view.RefCost(ref);
      if (nd < (*dist)[v]) {
        (*dist)[v] = nd;
        (*parent)[v] = ref;
        if (++relax_count[v] > max_relaxations) {
          return v;  // negative cycle
        }
        if (!in_queue[v]) {
          // SLF heuristic: put promising nodes at the front.
          if (!queue.empty() && nd < (*dist)[queue.front()]) {
            queue.push_front(v);
          } else {
            queue.push_back(v);
          }
          in_queue[v] = true;
        }
      }
    }
  }
  return FlowNetworkView::kInvalidDense;
}

}  // namespace

bool ComputeOptimalPotentials(const FlowNetworkView& view, std::vector<int64_t>* potential) {
  std::vector<int64_t> dist;
  std::vector<uint32_t> parent;
  if (SpfaFromEverywhere(view, &dist, &parent) != FlowNetworkView::kInvalidDense) {
    return false;
  }
  // With pi(v) = -dist(v): c_pi(u,v) = c + dist(u) - dist(v) >= 0 by the
  // shortest-path condition.
  potential->assign(view.num_nodes(), 0);
  for (uint32_t v = 0; v < view.num_nodes(); ++v) {
    (*potential)[v] = -dist[v];
  }
  return true;
}

bool PriceRefine(const FlowNetworkView& view, std::vector<int64_t>* potential) {
  std::vector<int64_t> dense;
  if (!ComputeOptimalPotentials(view, &dense)) {
    return false;
  }
  view.ScatterPotentials(dense, potential);
  return true;
}

std::vector<uint32_t> FindNegativeCycle(const FlowNetworkView& view) {
  std::vector<int64_t> dist;
  std::vector<uint32_t> parent;
  uint32_t witness = SpfaFromEverywhere(view, &dist, &parent);
  if (witness == FlowNetworkView::kInvalidDense) {
    return {};
  }
  // Walk parents N times to guarantee we are inside the cycle, then collect.
  uint32_t cur = witness;
  for (uint32_t i = 0; i < view.num_nodes(); ++i) {
    CHECK_NE(parent[cur], FlowNetworkView::kInvalidRef);
    cur = view.RefSrc(parent[cur]);
  }
  std::vector<uint32_t> cycle;
  uint32_t start = cur;
  do {
    uint32_t ref = parent[cur];
    CHECK_NE(ref, FlowNetworkView::kInvalidRef);
    cycle.push_back(ref);
    cur = view.RefSrc(ref);
  } while (cur != start);
  std::reverse(cycle.begin(), cycle.end());
  return cycle;
}

bool TryProveOptimal(const FlowNetworkView& view, std::vector<int64_t>* potential,
                     uint32_t relax_bound) {
  std::vector<int64_t> dist;
  std::vector<uint32_t> parent;
  if (SpfaFromEverywhere(view, &dist, &parent, relax_bound) != FlowNetworkView::kInvalidDense) {
    return false;  // inconclusive (or an actual negative cycle)
  }
  potential->assign(view.num_nodes(), 0);
  for (uint32_t v = 0; v < view.num_nodes(); ++v) {
    (*potential)[v] = -dist[v];
  }
  return true;
}

std::vector<ArcRef> FindNegativeCycle(const FlowNetwork& net) {
  FlowNetworkView view(net);
  std::vector<uint32_t> dense_cycle = FindNegativeCycle(view);
  std::vector<ArcRef> cycle;
  cycle.reserve(dense_cycle.size());
  for (uint32_t ref : dense_cycle) {
    cycle.push_back(view.OrigRef(ref));
  }
  return cycle;
}

bool PriceRefine(const FlowNetwork& net, std::vector<int64_t>* potential) {
  return PriceRefine(FlowNetworkView(net), potential);
}

bool TryProveOptimal(const FlowNetwork& net, std::vector<int64_t>* potential,
                     uint32_t relax_bound) {
  FlowNetworkView view(net);
  std::vector<int64_t> dense;
  if (!TryProveOptimal(view, &dense, relax_bound)) {
    return false;
  }
  view.ScatterPotentials(dense, potential);
  return true;
}

}  // namespace firmament
