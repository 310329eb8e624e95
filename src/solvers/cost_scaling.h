// Cost scaling MCMF algorithm (§4, [17-19]) with incremental re-optimization
// (§5.2) — the algorithm used by Quincy's cs2 solver and by Firmament as the
// fallback in the racing solver.
//
// Push/relabel refine phases maintain feasibility and ε-optimality; ε is
// divided by the α-factor after each phase until 1/n-optimality (scaled ε of
// 1) implies complementary slackness. Warm starts reuse the network's
// current flow and this instance's potentials from the previous round; the
// starting ε then only needs to cover the costliest graph change (§6.2)
// rather than the costliest arc.
//
// Each Solve() runs on a FlowNetworkView — a dense CSR/SoA snapshot of the
// network — and installs the resulting flow back into the FlowNetwork.
// Retained potentials are keyed by original NodeId, so warm starts survive
// the per-solve renumbering (§5.2, Fig. 11).
//
// Global price update (Goldberg's heuristic [17]) accelerates Refine: when
// discharging stalls (many relabels without draining the active set), a
// Dial-bucket shortest-path pass from the deficit nodes reprices every node
// at once, replacing thousands of one-ε relabels with one O(m) sweep.
// Active nodes are discharged in FIFO order.

#ifndef SRC_SOLVERS_COST_SCALING_H_
#define SRC_SOLVERS_COST_SCALING_H_

#include <cstdint>
#include <vector>

#include "src/flow/flow_network_view.h"
#include "src/solvers/mcmf_solver.h"

namespace firmament {

struct CostScalingOptions {
  // ε divisor between phases. Quincy's default is 2; the paper found α=9
  // ≈30% faster on scheduling graphs (§7.2, footnote 3).
  int64_t alpha = 2;
  // Warm-start from the network's current flow and the potentials retained
  // from the previous Solve() on this instance.
  bool incremental = false;
  // If non-zero, stop at the first phase boundary past the budget and
  // return the current feasible but possibly suboptimal flow
  // (SolveOutcome::kApproximate; used by the §5.1 experiment).
  uint64_t time_budget_us = 0;
};

class CostScaling : public McmfSolver {
 public:
  explicit CostScaling(CostScalingOptions options = {}) : options_(options) {}

  // SyncView() followed by SolveSynced().
  SolveStats SolveView(const FlowNetwork& network,
                       const std::atomic<bool>* cancel = nullptr) override;
  // The two halves of SolveView, for the race's staggered leg: SyncView()
  // brings the persistent view up to date with the network (journal patch or
  // rebuild, plus the warm-start flow sync) and returns stats carrying only
  // the view-prep fields; SolveSynced() then solves on the synced view and
  // completes those stats. The network may not change in between.
  SolveStats SyncView(const FlowNetwork& network);
  void SolveSynced(const std::atomic<bool>* cancel, SolveStats* stats);
  std::string name() const override {
    return options_.incremental ? "incremental_cost_scaling" : "cost_scaling";
  }

  CostScalingOptions& options() { return options_; }

  // Installs externally computed (unscaled) potentials, keyed by original
  // NodeId, to warm-start the next Solve() — used for the relaxation ->
  // cost scaling handoff after price refine (§6.2). Takes effect once: the
  // first solve that gets past the prologue consumes it (a solve cancelled
  // or degraded before its first refine phase leaves it pending).
  void ImportPotentials(std::vector<int64_t> unscaled_potentials);

  // Drops all retained state; the next Solve() runs from scratch even in
  // incremental mode.
  void ResetState();

 private:
  enum class RefineResult : uint8_t {
    kOk,         // flow is feasible and eps-optimal
    kCancelled,  // cancellation token fired
    kStuck,      // relabel bound exceeded: eps too small for this instance
                 // (warm starts escalate) or the instance is infeasible
    kNoPath,     // positive excess with no residual out-arc: infeasible
    kBudget,     // warm-start attempt exceeded its iteration budget
    kDeadline,   // round solve deadline expired (McmfSolver::set_deadline)
  };
  // One refine phase on the view: makes the flow feasible and eps-optimal.
  RefineResult Refine(FlowNetworkView* view, int64_t eps, SolveStats* stats,
                      const std::atomic<bool>* cancel, bool price_update_first,
                      uint64_t iteration_budget);
  // Dial-bucket shortest-path repricing from the deficit nodes (global
  // price update heuristic [17]). Raises pi_ so that every settled active
  // node regains an admissible path towards a deficit.
  void GlobalPriceUpdate(const FlowNetworkView& view, int64_t eps);

  CostScalingOptions options_;
  // Retained node potentials keyed by original NodeId, in the scaled cost
  // domain (costs multiplied by scale_). Survive renumbering between rounds.
  std::vector<int64_t> potential_;
  int64_t scale_ = 0;  // 0 = no retained state
  std::vector<int64_t> pending_import_;
  bool has_pending_import_ = false;

  // Dense (view-indexed) scratch state reused across phases. star_ holds the
  // packed residual arcs (pre-scaled costs) that every refine hot loop runs
  // on; the view's flow array is synced from it at phase boundaries.
  std::vector<FlowNetworkView::ResidualEntry> star_;
  std::vector<int64_t> pi_;
  std::vector<int64_t> excess_;
  std::vector<uint32_t> cur_arc_;
  std::vector<uint32_t> relabel_count_;
  std::vector<bool> in_queue_;
  // Global price update scratch.
  std::vector<uint32_t> dist_;
  std::vector<std::vector<uint32_t>> buckets_;
};

}  // namespace firmament

#endif  // SRC_SOLVERS_COST_SCALING_H_
