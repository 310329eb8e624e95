#include "src/solvers/cost_scaling.h"

#include <algorithm>
#include <deque>

#include "src/base/check.h"
#include "src/base/timer.h"
#include "src/solvers/solver_util.h"

namespace firmament {

namespace {

using ResidualEntry = FlowNetworkView::ResidualEntry;

// Smallest power of two strictly greater than n; used as the cost scale so
// that scaled ε = 1 implies (1/scale < 1/n)-optimality, i.e. optimality.
int64_t CostScaleFor(size_t num_nodes) {
  int64_t scale = 2;
  while (scale <= static_cast<int64_t>(num_nodes)) {
    scale <<= 1;
  }
  return scale;
}

// Largest complementary-slackness violation of (flow, potential) in the
// scaled cost domain: max over residual refs of -c_pi. Zero means the flow
// is optimal w.r.t. the potentials. Used to choose the starting ε of warm
// starts (§6.2). Star costs are already scaled.
int64_t MaxViolation(const std::vector<ResidualEntry>& star, const std::vector<int64_t>& pi,
                     int64_t material_bar = 0, uint32_t* material_count = nullptr) {
  int64_t violation = 0;
  uint32_t material = 0;
  for (size_t ref = 0; ref < star.size(); ++ref) {
    const ResidualEntry& e = star[ref];
    if (e.residual > 0) {
      int64_t c_pi = e.cost - pi[star[ref ^ 1].head] + pi[e.head];
      violation = std::max(violation, -c_pi);
      material += static_cast<uint32_t>(-c_pi > material_bar);
    }
  }
  if (material_count != nullptr) {
    *material_count = material;
  }
  return violation;
}

// Global price update trigger, tuned on Quincy-style scheduling graphs: the
// update fires when some single node has relabeled a multiple of
// kRelabelStormPeriod times (the signature of a contention storm) AND at
// least n/8 relabels have happened graph-wide since the last update (so easy
// instances, where storms never form, pay nothing).
constexpr uint32_t kRelabelStormPeriod = 32;
uint32_t GlobalUpdateThreshold(uint32_t num_nodes) { return 16 + num_nodes / 8; }

}  // namespace

void CostScaling::ImportPotentials(std::vector<int64_t> unscaled_potentials) {
  pending_import_ = std::move(unscaled_potentials);
  has_pending_import_ = true;
}

void CostScaling::ResetState() {
  potential_.clear();
  scale_ = 0;
  has_pending_import_ = false;
  view_.Invalidate();
}

SolveStats CostScaling::SolveView(const FlowNetwork& network, const std::atomic<bool>* cancel) {
  SolveStats stats = SyncView(network);
  SolveSynced(cancel, &stats);
  return stats;
}

SolveStats CostScaling::SyncView(const FlowNetwork& network) {
  WallTimer timer;
  SolveStats stats;
  stats.algorithm = name();
  stats.view_prep = view_.Prepare(network);
  if (options_.incremental && stats.view_prep == FlowNetworkView::PrepareResult::kPatched) {
    // Warm start from the network's current flow — the previous round's
    // winning solution, which the patch path does not track arc-by-arc
    // (a rebuild just snapshotted it).
    view_.SyncFlowFrom(network);
  }
  stats.view_prep_us = timer.ElapsedMicros();
  return stats;
}

void CostScaling::SolveSynced(const std::atomic<bool>* cancel, SolveStats* out) {
  WallTimer timer;
  SolveStats& stats = *out;
  FlowNetworkView& view = view_;
  // runtime_us covers the view sync too, as one SolveView() call would.
  auto elapsed_us = [&] { return stats.view_prep_us + timer.ElapsedMicros(); };
  // The prologue below is a handful of O(n + m) passes with no discharge
  // polls; under a tight solve budget a cold view build alone can eat the
  // whole allowance, and in the race the other leg may already have won.
  // Bail between passes (kCancelled, else kDegraded) rather than paying for
  // work nobody will use. State stays consistent for the next round: the
  // view is prepared (journal consumed), and the retained potentials, the
  // scale and any pending import are only committed past the last poll.
  auto bail_early = [&]() -> bool {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      stats.outcome = SolveOutcome::kCancelled;
    } else if (DeadlineExpired()) {
      stats.outcome = SolveOutcome::kDegraded;
      stats.deadline_exceeded = true;
    } else {
      return false;
    }
    stats.flow_valid = false;
    stats.runtime_us = elapsed_us();
    return true;
  };
  if (bail_early()) {
    return;
  }
  const uint32_t n = view.num_nodes();
  const int64_t scale = CostScaleFor(n);

  // Overflow guard: potentials rise by at most ~6·n·ε0 over the whole run,
  // on top of where they start.
  int64_t max_cost = 0;
  for (uint32_t a = 0; a < view.num_arcs(); ++a) {
    max_cost = std::max(max_cost, std::abs(view.Cost(a)));
  }
  const __int128 limit = static_cast<__int128>(1) << 62;
  const __int128 rise = static_cast<__int128>(max_cost) * scale * 8 * (n + 2);
  CHECK(rise < limit);
  if (has_pending_import_) {
    __int128 max_import = 0;
    for (int64_t p : pending_import_) {
      max_import = std::max(max_import, p < 0 ? -static_cast<__int128>(p) : p);
    }
    if (max_import * scale + rise >= limit) {
      // The import cannot be scaled without overflow: drop it, and the
      // retained potentials it superseded, and start cold.
      has_pending_import_ = false;
      pending_import_.clear();
      scale_ = 0;
    }
  }
  // Retained potentials (or an import from relaxation) make a warm start
  // meaningful; a first incremental call has nothing to warm-start from.
  const bool have_warm_state = scale_ != 0 || has_pending_import_;

  // --- Establish starting flow and potentials (dense domain) ---------------
  if (has_pending_import_) {
    // Relaxation -> cost scaling handoff (§6.2): potentials are unscaled,
    // keyed by original NodeId, and fit the scaled domain (checked above).
    view.GatherPotentials(pending_import_, &pi_);
    for (auto& p : pi_) {
      p *= scale;
    }
  } else if (options_.incremental && scale_ != 0) {
    view.GatherPotentials(potential_, &pi_);
    if (scale_ != scale) {
      // The scale follows the node count; rescale retained potentials. Any
      // complementary-slackness error this introduces is covered by the
      // measured starting ε below.
      for (auto& p : pi_) {
        p = static_cast<int64_t>(static_cast<__int128>(p) * scale / scale_);
      }
    }
  } else {
    pi_.assign(n, 0);
  }
  if (!options_.incremental) {
    view.ClearFlow();
  } else {
    // Clamp flow on arcs whose capacity shrank below the previous solution.
    for (uint32_t a = 0; a < view.num_arcs(); ++a) {
      if (view.Flow(a) > view.Capacity(a)) {
        view.SetFlow(a, view.Capacity(a));
      }
    }
  }
  if (bail_early()) {
    return;
  }
  // All refine-phase work runs on the packed residual star with pre-scaled
  // costs: one cache line per probed residual arc instead of scattered SoA
  // loads, and no per-probe cost multiply.
  view.BuildResidualStar(scale, &star_);
  // Excess is maintained incrementally from here on: Refine's saturation and
  // discharge adjust it arc by arc, so it is never recomputed per phase.
  excess_.assign(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    excess_[v] = view.Supply(v);
  }
  for (uint32_t a = 0; a < view.num_arcs(); ++a) {
    const ResidualEntry& fwd = star_[FlowNetworkView::MakeRef(a, false)];
    const ResidualEntry& rev = star_[FlowNetworkView::MakeRef(a, true)];
    excess_[rev.head] -= rev.residual;
    excess_[fwd.head] += rev.residual;
  }

  // --- Choose the starting ε -----------------------------------------------
  if (bail_early()) {
    return;
  }
  const int64_t max_eps = std::max<int64_t>(1, max_cost * scale);
  int64_t eps0;
  bool warm_refine = true;
  if (options_.incremental && have_warm_state) {
    // Warm start (§6.2): start from the measured violation — i.e. "ε equal
    // to the costliest arc graph change" — rather than the costliest arc in
    // the whole graph, and never above the jump-start level used from
    // scratch (partial saturation confines the repair to the violating
    // arcs, so a big violation on a few changed arcs does not justify
    // re-running the whole ladder). If the refine below turns out to need a
    // larger ε (contention around new arcs), it escalates instead of
    // failing.
    //
    // Before trusting the retained landscape, try to reprice the carried
    // flow against the *new* costs with a bounded SPFA pass: if it yields
    // complementary-slackness potentials, the old placement is still
    // optimal for everything that did not change and the refine below only
    // has to route the round's new excess. If repricing fails (the changes
    // made the old flow suboptimal — §5.2's "many graph changes force it to
    // redo work"), repairing the stale landscape costs more than a
    // jump-started cold solve, so drop straight to cold state.
    uint32_t violated = 0;
    int64_t violation = MaxViolation(star_, pi_, scale, &violated);
    std::vector<int64_t> repriced;
    if (violated <= n / 16) {
      // Few violations: the retained landscape is close; repair in place.
      eps0 = std::max<int64_t>(1, std::min(violation, scale));
    } else {
      if (bail_early()) {
        return;
      }
      if (TryProveOptimal(view, &repriced, /*relax_bound=*/8)) {
        for (uint32_t v = 0; v < n; ++v) {
          pi_[v] = repriced[v] * scale;
        }
        // The repriced landscape has ~zero violation by construction, but
        // the new excess may displace existing flow (contention chains);
        // starting ε well above 1 keeps those relabels coarse instead of
        // grinding upwards one unit at a time.
        eps0 = scale / 16;
      } else {
        pi_.assign(n, 0);
        eps0 = std::min(max_eps, scale);
        warm_refine = false;
      }
    }
  } else {
    // Jump start: ε₀ = scale means the first refine already produces a flow
    // that is 1-optimal in *unscaled* costs — with integral costs that is a
    // hair from optimal, and the in-loop optimality prover usually
    // terminates the ladder a phase or two later. Descending from the
    // classical ε₀ = C·scale instead spends log(C) phases re-routing nearly
    // every task at cost granularities no placement decision depends on.
    // If the jump undershoots (heavy contention), Refine reports kStuck and
    // the ladder escalates towards max_eps, so correctness never depends on
    // this choice.
    eps0 = std::min(max_eps, scale);
  }
  if (bail_early()) {
    return;
  }
  // Past the prologue's last poll: the warm-start inputs are now consumed.
  has_pending_import_ = false;
  pending_import_.clear();
  scale_ = scale;

  // Saves current potentials before returning. Successful paths sync the
  // view's flow from the star before reaching here; flow_valid tells the
  // Solve() wrapper (and the racing solver) whether that flow is meaningful.
  auto finish = [&](SolveStats* out) {
    view.ScatterPotentials(pi_, &potential_);
    out->flow_valid =
        out->outcome == SolveOutcome::kOptimal || out->outcome == SolveOutcome::kApproximate;
    out->runtime_us = elapsed_us();
  };

  // --- Scaling loop ----------------------------------------------------------
  // Between phases, a bounded price refine tries to *prove* the current flow
  // optimal (the in-loop heuristic of [17]); warm starts typically converge
  // after a single refine, and the proof lets us skip every remaining phase.
  int64_t eps = eps0;
  bool descending = true;  // false while escalating after a stuck refine
  // First warm refine gets an up-front global price update: graph changes
  // since the last round added nodes whose potential starts at zero, far
  // below the retained or imported landscape, and one Dial pass prices
  // them instead of thousands of unit-ε relabel climbs.
  bool price_update_first = options_.incremental && have_warm_state && warm_refine;
  // The first warm refine runs under an iteration budget: when the round's
  // changes turn out to cascade (§5.2 "many graph changes force it to redo
  // work"), repairing the stale landscape costs more than a jump-started
  // cold solve, so the attempt is abandoned and the ladder restarts from
  // zero potentials. The budget is a small multiple of what a cold solve
  // needs on these graphs.
  uint64_t warm_budget = price_update_first ? 256 + static_cast<uint64_t>(n) / 8 : 0;
  for (;;) {
    if (descending) {
      eps = std::max<int64_t>(1, eps / std::max<int64_t>(2, options_.alpha));
    }
    RefineResult result = Refine(&view, eps, &stats, cancel, price_update_first, warm_budget);
    price_update_first = false;
    if (result == RefineResult::kBudget) {
      pi_.assign(n, 0);
      eps = std::min(max_eps, scale);
      warm_budget = 0;
      descending = true;
      continue;
    }
    warm_budget = 0;
    if (result == RefineResult::kCancelled) {
      finish(&stats);
      return;
    }
    if (result == RefineResult::kDeadline) {
      // The round's solve budget expired mid-refine: the star holds a
      // partially repaired (infeasible) pseudo-flow, so no usable placement
      // exists — report kDegraded and let the scheduler keep the previous
      // round's placements (finish() leaves flow_valid false).
      stats.outcome = SolveOutcome::kDegraded;
      stats.deadline_exceeded = true;
      finish(&stats);
      return;
    }
    if (result == RefineResult::kNoPath ||
        (result == RefineResult::kStuck && eps >= max_eps)) {
      stats.outcome = SolveOutcome::kInfeasible;
      finish(&stats);
      return;
    }
    if (result == RefineResult::kStuck) {
      // ε was too small for the contention around the changed region;
      // escalate geometrically (the relabel bound only certifies
      // infeasibility once ε covers the costliest arc).
      eps = std::min(max_eps, eps * 16);
      descending = false;
      continue;
    }
    descending = true;
    ++stats.phases;
    if (options_.time_budget_us != 0 && elapsed_us() > options_.time_budget_us &&
        eps > 1) {
      stats.outcome = SolveOutcome::kApproximate;
      break;
    }
    if (eps == 1) {
      // The ladder bottomed out: the flow is optimal, but pi_ carries the
      // relabel-inflated potentials of the last refine. Store price-refined
      // (minimal) potentials instead so the next round's warm start begins
      // from a tight landscape rather than climbing this round's towers.
      view.SyncFlowFromStar(star_);
      std::vector<int64_t> refined;
      if (TryProveOptimal(view, &refined, /*relax_bound=*/64)) {
        for (uint32_t v = 0; v < n; ++v) {
          pi_[v] = refined[v] * scale;
        }
      }
      break;
    }
    view.SyncFlowFromStar(star_);
    std::vector<int64_t> proven;
    if (TryProveOptimal(view, &proven, /*relax_bound=*/4)) {
      // Adopt the certifying potentials (scaled) as warm state and stop.
      for (uint32_t v = 0; v < n; ++v) {
        pi_[v] = proven[v] * scale;
      }
      break;
    }
  }

  view.SyncFlowFromStar(star_);
  stats.total_cost = view.TotalCost();
  finish(&stats);
}

void CostScaling::GlobalPriceUpdate(const FlowNetworkView& view, int64_t eps) {
  const uint32_t n = view.num_nodes();
  const uint32_t kUnreached = n + 1;
  dist_.assign(n, kUnreached);
  if (buckets_.size() < static_cast<size_t>(n) + 2) {
    buckets_.resize(static_cast<size_t>(n) + 2);
  }
  uint32_t active_remaining = 0;
  bool any_deficit = false;
  for (uint32_t v = 0; v < n; ++v) {
    if (excess_[v] > 0) {
      ++active_remaining;
    } else if (excess_[v] < 0) {
      dist_[v] = 0;
      buckets_[0].push_back(v);
      any_deficit = true;
    }
  }
  if (active_remaining == 0 || !any_deficit) {
    buckets_[0].clear();
    return;
  }

  // Multi-source Dial pass from the deficit set over *reversed* residual
  // arcs. Arc (u -> v) has length floor(c_pi/ε) + 1 >= 0 (ε-optimality
  // guarantees c_pi >= -ε), so distances are in "relabels needed" units.
  // Stops as soon as every active node is settled.
  uint32_t max_filled = 0;
  uint32_t b_max_settled = 0;
  bool all_actives_settled = false;
  for (uint32_t b = 0; b <= n && !all_actives_settled; ++b) {
    std::vector<uint32_t>& bucket = buckets_[b];
    while (!bucket.empty()) {
      uint32_t v = bucket.back();
      bucket.pop_back();
      if (dist_[v] != b) {
        continue;  // superseded entry
      }
      b_max_settled = b;
      if (excess_[v] > 0 && --active_remaining == 0) {
        all_actives_settled = true;
        break;
      }
      // Relax residual arcs into v: the reversed refs of v's adjacency.
      const uint32_t* end = view.AdjEnd(v);
      for (const uint32_t* it = view.AdjBegin(v); it != end; ++it) {
        uint32_t out_ref = *it;                // v -> u direction
        uint32_t in_ref = out_ref ^ 1u;        // u -> v direction
        const ResidualEntry& in_entry = star_[in_ref];
        if (in_entry.residual <= 0) {
          continue;
        }
        uint32_t u = star_[out_ref].head;
        int64_t c_pi = in_entry.cost - pi_[u] + pi_[v];
        int64_t length = c_pi >= 0 ? c_pi / eps + 1 : 0;
        int64_t nd = static_cast<int64_t>(b) + length;
        if (nd <= static_cast<int64_t>(n) && nd < static_cast<int64_t>(dist_[u])) {
          dist_[u] = static_cast<uint32_t>(nd);
          buckets_[dist_[u]].push_back(u);
          max_filled = std::max(max_filled, dist_[u]);
        }
      }
    }
  }
  // Drain entries left behind by the early exit.
  for (uint32_t b = b_max_settled; b <= max_filled; ++b) {
    buckets_[b].clear();
  }

  // Reprice: pi(v) += min(dist(v), D)·ε with D = the deepest settled
  // bucket. Capping every unsettled node at the same D preserves
  // ε-optimality (d'(u) <= l(u,v) + d'(v) survives the min), while settled
  // nodes keep their exact distances, which makes every shortest-path tree
  // arc admissible — one sweep standing in for thousands of unit-ε relabels.
  // D must not exceed b_max_settled: the early exit pops the last active
  // without relaxing its in-arcs, so a predecessor of a settled-but-
  // unrelaxed node may be unlabeled; with D = b_max_settled that
  // predecessor rises exactly as far as its successor (d'(u) = D = d'(v)),
  // which keeps every such arc's reduced cost unchanged-or-better, whereas
  // D = b_max_settled + 1 could push an arc with c_pi in [-ε, 0) down to
  // -2ε and break the invariant in the final ε = 1 phase.
  const uint32_t cap = b_max_settled;
  for (uint32_t v = 0; v < n; ++v) {
    uint32_t d = std::min(dist_[v], cap);
    if (d != 0) {
      pi_[v] += static_cast<int64_t>(d) * eps;
    }
  }
}

CostScaling::RefineResult CostScaling::Refine(FlowNetworkView* view_ptr, int64_t eps,
                                              SolveStats* stats,
                                              const std::atomic<bool>* cancel,
                                              bool price_update_first,
                                              uint64_t iteration_budget) {
  FlowNetworkView& view = *view_ptr;
  const uint32_t n = view.num_nodes();
  const uint32_t m = view.num_arcs();
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    stats->outcome = SolveOutcome::kCancelled;
    return RefineResult::kCancelled;
  }
  if (DeadlineExpired()) {
    return RefineResult::kDeadline;
  }

  // Partial saturation: ε-optimality only requires c_pi >= -ε on residual
  // arcs, so only arcs violating that are flipped — an arc with
  // |c_pi| <= ε keeps its flow. The classic formulation saturates at any
  // non-zero reduced cost, which yanks almost every task placement loose at
  // each phase; thresholding at ±ε preserves the previous phase's routing
  // and leaves a fraction of the excess to repair. Excess is adjusted arc
  // by arc as flips happen.
  for (uint32_t a = 0; a < m; ++a) {
    ResidualEntry& fwd = star_[FlowNetworkView::MakeRef(a, false)];
    ResidualEntry& rev = star_[FlowNetworkView::MakeRef(a, true)];
    int64_t c_pi = fwd.cost - pi_[rev.head] + pi_[fwd.head];
    if (c_pi < -eps && fwd.residual > 0) {
      excess_[rev.head] -= fwd.residual;  // flow := capacity
      excess_[fwd.head] += fwd.residual;
      rev.residual += fwd.residual;
      fwd.residual = 0;
    } else if (c_pi > eps && rev.residual > 0) {
      excess_[rev.head] += rev.residual;  // flow := 0
      excess_[fwd.head] -= rev.residual;
      fwd.residual += rev.residual;
      rev.residual = 0;
    }
  }

  cur_arc_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    cur_arc_[v] = view.first_out(v);
  }
  relabel_count_.assign(n, 0);

  // A feasible instance needs O(alpha * n) relabels of one node per refine;
  // exceeding a generous multiple of that certifies infeasibility.
  const uint32_t relabel_bound =
      static_cast<uint32_t>((3 * static_cast<size_t>(std::max<int64_t>(2, options_.alpha)) + 6) *
                                n +
                            64);
  const uint32_t update_threshold = GlobalUpdateThreshold(n);
  const uint64_t start_iterations = stats->iterations;
  uint32_t relabels_since_update = 0;
  uint64_t pushes_since_poll = 0;
  std::deque<uint32_t> fifo;
  in_queue_.assign(n, false);
  for (uint32_t v = 0; v < n; ++v) {
    if (excess_[v] > 0) {
      fifo.push_back(v);
      in_queue_[v] = true;
    }
  }
  auto enqueue_active = [&](uint32_t v) {
    if (!in_queue_[v]) {
      fifo.push_back(v);
      in_queue_[v] = true;
    }
  };

  if (price_update_first && !fifo.empty()) {
    // The saturation pass above and this Dial pass are each O(m), with no
    // discharge poll in between; a race leg that already lost stops here.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      stats->outcome = SolveOutcome::kCancelled;
      return RefineResult::kCancelled;
    }
    GlobalPriceUpdate(view, eps);
  }

  // Fully discharges v: pushes excess along admissible arcs, relabeling when
  // the current-arc pointer runs off the end.
  const uint32_t* const adj = view.adj();
  auto discharge = [&](uint32_t v) -> RefineResult {
    while (excess_[v] > 0) {
      const uint32_t v_adj_end = view.adj_end(v);
      bool pushed_or_relabeled = false;
      while (cur_arc_[v] < v_adj_end) {
        uint32_t ref = adj[cur_arc_[v]];
        ResidualEntry& e = star_[ref];
        if (e.residual > 0) {
          int64_t c_pi = e.cost - pi_[v] + pi_[e.head];
          if (c_pi < 0) {
            uint32_t w = e.head;
            int64_t delta = std::min(excess_[v], e.residual);
            e.residual -= delta;
            star_[ref ^ 1u].residual += delta;
            excess_[v] -= delta;
            bool was_active = excess_[w] > 0;
            excess_[w] += delta;
            ++stats->iterations;
            if (!was_active && excess_[w] > 0) {
              enqueue_active(w);
            }
            if (++pushes_since_poll >= 4096) {
              pushes_since_poll = 0;
              if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
                stats->outcome = SolveOutcome::kCancelled;
                return RefineResult::kCancelled;
              }
              if (DeadlineExpired()) {
                return RefineResult::kDeadline;
              }
            }
            if (iteration_budget != 0 && stats->iterations - start_iterations > iteration_budget) {
              return RefineResult::kBudget;
            }
            pushed_or_relabeled = true;
            if (excess_[v] == 0) {
              break;
            }
            continue;  // same arc may admit more flow after other pushes
          }
        }
        ++cur_arc_[v];
      }
      if (excess_[v] == 0) {
        break;
      }
      if (cur_arc_[v] >= v_adj_end) {
        // Relabel: lower v's reduced costs enough to create an admissible
        // arc. Tracking the first min-attaining position lets the next scan
        // resume at a known-admissible arc instead of re-walking the whole
        // adjacency — on aggregator nodes with 10^4 incident arcs this is
        // the difference between O(degree) and O(degree^2) per phase.
        int64_t best = std::numeric_limits<int64_t>::max();
        const uint32_t* const begin = view.AdjBegin(v);
        const uint32_t* const end = view.AdjEnd(v);
        const uint32_t* best_pos = begin;
        for (const uint32_t* it = begin; it != end; ++it) {
          const ResidualEntry& e = star_[*it];
          if (e.residual > 0) {
            int64_t value = e.cost + pi_[e.head];
            if (value < best) {
              best = value;
              best_pos = it;
            }
          }
        }
        if (best == std::numeric_limits<int64_t>::max()) {
          return RefineResult::kNoPath;  // positive excess, no residual out-arc
        }
        pi_[v] = best + eps;
        cur_arc_[v] = view.first_out(v) + static_cast<uint32_t>(best_pos - begin);
        ++stats->iterations;
        // Weight the poll counter by the adjacency actually scanned: on
        // aggregator nodes one relabel walks 10^3-10^4 entries, so counting
        // it as a single event would let thousands of such scans run
        // between deadline polls and overshoot tight solve budgets.
        pushes_since_poll += static_cast<uint64_t>(end - begin);
        if (++pushes_since_poll >= 4096) {
          pushes_since_poll = 0;
          if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            stats->outcome = SolveOutcome::kCancelled;
            return RefineResult::kCancelled;
          }
          if (DeadlineExpired()) {
            return RefineResult::kDeadline;
          }
        }
        if (++relabel_count_[v] > relabel_bound) {
          return RefineResult::kStuck;  // eps too small, or infeasible
        }
        if (iteration_budget != 0 && stats->iterations - start_iterations > iteration_budget) {
          return RefineResult::kBudget;
        }
        pushed_or_relabeled = true;
        ++relabels_since_update;
        if (relabel_count_[v] % kRelabelStormPeriod == 0 &&
            relabels_since_update >= update_threshold) {
          // Discharging is grinding through unit-ε relabels; reprice the
          // whole graph in one pass instead. Current-arc pointers are NOT
          // reset: stale positions only delay the next push until a relabel
          // re-scans the full adjacency and repositions the pointer at the
          // new minimum — ε-optimality never depends on the pointer, and
          // skipping n resets (plus the rescans they cause) is a measured
          // win on large graphs.
          relabels_since_update = 0;
          GlobalPriceUpdate(view, eps);
        }
      }
      CHECK(pushed_or_relabeled);
    }
    return RefineResult::kOk;
  };

  while (!fifo.empty()) {
    uint32_t v = fifo.front();
    fifo.pop_front();
    in_queue_[v] = false;
    RefineResult result = discharge(v);
    if (result != RefineResult::kOk) {
      return result;
    }
  }
#ifndef NDEBUG
  // kOk certifies feasibility; a drain loop that exited early would leave
  // positive excess behind and silently return an infeasible "optimal"
  // flow.
  for (uint32_t v = 0; v < n; ++v) {
    DCHECK_LE(excess_[v], 0);
  }
#endif
  return RefineResult::kOk;
}

}  // namespace firmament
