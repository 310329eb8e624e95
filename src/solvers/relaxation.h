// Relaxation MCMF algorithm (§4, Bertsekas & Tseng [4; 5]).
//
// Maintains reduced-cost optimality at every step and works towards
// feasibility by either (1) augmenting flow from surplus nodes to deficit
// nodes along zero-reduced-cost ("balanced") paths, or (2) performing a
// dual ascent: raising the potentials of a scanned node set S when doing so
// provably increases the dual objective. Despite its worst-case complexity
// (Table 1) it is the fastest algorithm on scheduling graphs by two orders
// of magnitude (Fig. 7), because uncontested tasks are routed in a handful
// of single-node iterations.
//
// Implements the paper's arc prioritization heuristic (§5.3.1): when
// extending the scanned cut, arcs leading to nodes with demand are visited
// first (hybrid depth-first-towards-demand traversal), reducing runtime by
// ~45% on contended graphs (Fig. 12a).
//
// Each Solve() runs on a FlowNetworkView (dense CSR snapshot) and installs
// the resulting flow back into the FlowNetwork. Every solve starts from
// zero flow and zero potentials: the paper found relaxation's warm start
// often regresses (§5.2), so only the view itself persists across rounds.
// The final potentials are kept, keyed by original NodeId, for price refine
// and the cost-scaling handoff. Setup folds complementary-slackness
// clamping and excess accumulation into a single O(m) pass (previously
// ClearFlow + clamp + ComputeExcess).
//
// NOTE on the packed residual star: porting these scan loops onto the 32B
// ResidualEntry star (the layout cost scaling's refine loops run on) was
// implemented and measured SLOWER on scheduling graphs in every regime —
// uncontended solves finish in ~2 probes per arc, so the O(m) star
// materialization plus its write traffic exceeded the whole solve (~1.8x
// on from-scratch 850-machine rounds), and contended solves' scans are
// skip-heavy (most probed arcs are saturated or lead back into S), where a
// skipped probe costs a full 64B star line against ~16B of selective SoA
// loads (~35-40% on the Fig. 12a shape, at identical augmentation/ascent
// counts). An adaptive mid-solve switch lost as well: merely instantiating
// the second probe mode regressed the SoA path's codegen. The star stays
// cost scaling's tool; relaxation scans the SoA arrays, head-first so
// in-S arcs are pruned after a single load.

#ifndef SRC_SOLVERS_RELAXATION_H_
#define SRC_SOLVERS_RELAXATION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/flow/flow_network_view.h"
#include "src/solvers/mcmf_solver.h"

namespace firmament {

struct RelaxationOptions {
  // §5.3.1 arc prioritization (Fig. 12a ablates this).
  bool arc_prioritization = true;
  // If non-zero, stop after the budget with the current (typically
  // infeasible) pseudoflow; unrouted supplies correspond to unplaced tasks
  // (§5.1 approximate-solution experiment).
  uint64_t time_budget_us = 0;
};

class Relaxation : public McmfSolver {
 public:
  explicit Relaxation(RelaxationOptions options = {}) : options_(options) {}

  SolveStats SolveView(const FlowNetwork& network,
                       const std::atomic<bool>* cancel = nullptr) override;
  std::string name() const override { return "relaxation"; }

  RelaxationOptions& options() { return options_; }

  // Potentials of the last solve (unscaled, keyed by original NodeId);
  // consumed by price refine and exported to incremental cost scaling at
  // handoff (§6.2).
  const std::vector<int64_t>& potentials() const { return potential_; }

  void ResetState();

 private:
  struct FrontierEntry {
    uint32_t ref;               // dense residual ref
    int64_t recorded_residual;  // contribution counted into balance_out_
  };

  int64_t ReducedCostOf(const FlowNetworkView& view, uint32_t ref) const {
    return view.RefCost(ref) - pi_[view.RefSrc(ref)] + pi_[view.RefDst(ref)];
  }
  bool InS(uint32_t node) const { return in_s_version_[node] == scan_version_; }
  void AddToS(const FlowNetworkView& view, uint32_t node);
  void UpdateExcess(uint32_t node, int64_t delta);
  // Saturates balanced arcs leaving S and raises pi(S) by the smallest
  // positive leaving reduced cost. Returns false if the dual is unbounded
  // (infeasible primal).
  bool Ascend(FlowNetworkView* view, SolveStats* stats);
  void Augment(FlowNetworkView* view, uint32_t root, uint32_t deficit_node, SolveStats* stats);

  RelaxationOptions options_;
  // Retained potentials keyed by original NodeId (survive renumbering).
  std::vector<int64_t> potential_;

  // Per-solve dense scratch state.
  std::vector<int64_t> pi_;  // dense (view-indexed) potentials
  std::vector<int64_t> excess_;
  std::vector<uint32_t> in_s_version_;
  std::vector<uint32_t> pred_version_;
  std::vector<uint32_t> pred_;
  std::vector<uint32_t> s_nodes_;
  std::deque<FrontierEntry> frontier_;
  std::deque<uint32_t> positive_queue_;
  uint32_t scan_version_ = 0;
  int64_t e_s_ = 0;          // total excess of the scanned set S
  int64_t balance_out_ = 0;  // residual capacity of balanced arcs leaving S
  int64_t total_positive_excess_ = 0;
};

}  // namespace firmament

#endif  // SRC_SOLVERS_RELAXATION_H_
