#include "src/solvers/relaxation.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/timer.h"

namespace firmament {

void Relaxation::ResetState() {
  potential_.clear();
  view_.Invalidate();
}

void Relaxation::UpdateExcess(uint32_t node, int64_t delta) {
  int64_t old_value = excess_[node];
  int64_t new_value = old_value + delta;
  total_positive_excess_ += std::max<int64_t>(new_value, 0) - std::max<int64_t>(old_value, 0);
  excess_[node] = new_value;
  if (old_value <= 0 && new_value > 0) {
    positive_queue_.push_back(node);
  }
}

void Relaxation::AddToS(const FlowNetworkView& view, uint32_t node) {
  in_s_version_[node] = scan_version_;
  s_nodes_.push_back(node);
  e_s_ += excess_[node];
  // Append this node's balanced out-arcs to the frontier. With arc
  // prioritization (§5.3.1), arcs towards demand nodes go to the front so
  // the traversal dives towards deficits depth-first. Within the node's own
  // adjacency the ref's tail IS `node`, so the reduced cost needs no
  // RefSrc load.
  const int64_t pi_node = pi_[node];
  const uint32_t* end = view.AdjEnd(node);
  for (const uint32_t* it = view.AdjBegin(node); it != end; ++it) {
    uint32_t ref = *it;
    int64_t residual = view.RefResidual(ref);
    if (residual <= 0) {
      continue;
    }
    uint32_t head = view.RefDst(ref);
    if (view.RefCost(ref) - pi_node + pi_[head] != 0 || InS(head)) {
      continue;
    }
    balance_out_ += residual;
    if (options_.arc_prioritization && excess_[head] < 0) {
      frontier_.push_front({ref, residual});
    } else {
      frontier_.push_back({ref, residual});
    }
  }
}

bool Relaxation::Ascend(FlowNetworkView* view_ptr, SolveStats* stats) {
  FlowNetworkView& view = *view_ptr;
  // One pass over arcs leaving S: saturate balanced ones (they acquire
  // negative reduced cost after the rise, so complementary slackness forces
  // them to capacity) and find the step size theta = min positive leaving
  // reduced cost.
  int64_t theta = std::numeric_limits<int64_t>::max();
  for (uint32_t v : s_nodes_) {
    // Head-first probing: most arcs of a large scanned set lead back into
    // S, so the InS check prunes them after a single dst/src load, before
    // the flow/capacity loads the residual needs. The ref's tail is v, so
    // the reduced cost needs no RefSrc load either.
    const int64_t pi_v = pi_[v];
    const uint32_t* end = view.AdjEnd(v);
    for (const uint32_t* it = view.AdjBegin(v); it != end; ++it) {
      uint32_t ref = *it;
      uint32_t head = view.RefDst(ref);
      if (InS(head)) {
        continue;
      }
      int64_t residual = view.RefResidual(ref);
      if (residual <= 0) {
        continue;
      }
      int64_t reduced = view.RefCost(ref) - pi_v + pi_[head];
      if (reduced == 0) {
        view.RefPush(ref, residual);
        UpdateExcess(v, -residual);
        UpdateExcess(head, residual);
      } else if (reduced > 0) {
        theta = std::min(theta, reduced);
      }
    }
  }
  if (theta == std::numeric_limits<int64_t>::max()) {
    return false;  // dual unbounded: no way to route the remaining surplus
  }
  for (uint32_t v : s_nodes_) {
    pi_[v] += theta;
  }
  ++stats->phases;  // dual ascents
  return true;
}

void Relaxation::Augment(FlowNetworkView* view_ptr, uint32_t root, uint32_t deficit_node,
                         SolveStats* stats) {
  FlowNetworkView& view = *view_ptr;
  int64_t delta = std::min(excess_[root], -excess_[deficit_node]);
  for (uint32_t v = deficit_node; v != root;) {
    DCHECK(pred_version_[v] == scan_version_);
    uint32_t ref = pred_[v];
    delta = std::min(delta, view.RefResidual(ref));
    v = view.RefSrc(ref);
  }
  CHECK_GT(delta, 0);
  for (uint32_t v = deficit_node; v != root;) {
    uint32_t ref = pred_[v];
    view.RefPush(ref, delta);
    v = view.RefSrc(ref);
  }
  UpdateExcess(root, -delta);
  UpdateExcess(deficit_node, delta);
  ++stats->iterations;  // augmentations
}

SolveStats Relaxation::SolveView(const FlowNetwork& network, const std::atomic<bool>* cancel) {
  WallTimer timer;
  SolveStats stats;
  stats.algorithm = name();
  stats.view_prep = view_.Prepare(network);
  FlowNetworkView& view = view_;
  const uint32_t n = view.num_nodes();

  stats.view_prep_us = timer.ElapsedMicros();
  pi_.assign(n, 0);

  // Retained potentials are keyed by original NodeId so they survive the
  // dense renumbering; translate back on every exit.
  auto finish = [&](SolveStats* out, bool install_flow) {
    view.ScatterPotentials(pi_, &potential_);
    out->flow_valid = install_flow;
    out->runtime_us = timer.ElapsedMicros();
  };

  // One fused arc pass: establish complementary slackness w.r.t. the zero
  // starting potentials — saturate negative-cost arcs and empty the rest,
  // so no up-front ClearFlow is needed — and accumulate node excesses while
  // at it, folding what used to be three O(m) passes (ClearFlow, clamp,
  // ComputeExcess) into one.
  excess_.assign(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    excess_[v] = view.Supply(v);
  }
  for (uint32_t a = 0; a < view.num_arcs(); ++a) {
    uint32_t src = view.Src(a);
    uint32_t dst = view.Dst(a);
    int64_t flow = view.Cost(a) < 0 ? view.Capacity(a) : 0;
    view.SetFlow(a, flow);
    excess_[src] -= flow;
    excess_[dst] += flow;
  }
  total_positive_excess_ = 0;
  positive_queue_.clear();
  for (uint32_t v = 0; v < n; ++v) {
    if (excess_[v] > 0) {
      total_positive_excess_ += excess_[v];
      positive_queue_.push_back(v);
    }
  }

  in_s_version_.assign(n, 0);
  pred_version_.assign(n, 0);
  pred_.assign(n, FlowNetworkView::kInvalidRef);
  scan_version_ = 0;

  uint64_t steps_since_poll = 0;
  while (total_positive_excess_ > 0) {
    CHECK(!positive_queue_.empty());
    uint32_t s = positive_queue_.front();
    positive_queue_.pop_front();
    if (excess_[s] <= 0) {
      continue;  // stale entry
    }
    // Re-queue s; it stays a candidate until its surplus is gone. Scans
    // below may only move part of it.
    positive_queue_.push_back(s);

    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      stats.outcome = SolveOutcome::kCancelled;
      finish(&stats, /*install_flow=*/false);
      return stats;
    }
    if (DeadlineExpired()) {
      // Round solve budget expired: relaxation's intermediate pseudo-flow
      // violates conservation, so nothing usable exists — degrade.
      stats.outcome = SolveOutcome::kDegraded;
      stats.deadline_exceeded = true;
      finish(&stats, /*install_flow=*/false);
      return stats;
    }
    if (options_.time_budget_us != 0 && timer.ElapsedMicros() > options_.time_budget_us) {
      stats.outcome = SolveOutcome::kApproximate;
      finish(&stats, /*install_flow=*/true);
      return stats;
    }

    // --- One relaxation iteration: scan from s -----------------------------
    ++scan_version_;
    s_nodes_.clear();
    frontier_.clear();
    e_s_ = 0;
    balance_out_ = 0;
    AddToS(view, s);

    for (;;) {
      if (e_s_ > balance_out_) {
        // Raising pi(S) strictly increases the dual: ascend and restart.
        if (!Ascend(&view, &stats)) {
          stats.outcome = SolveOutcome::kInfeasible;
          finish(&stats, /*install_flow=*/true);
          return stats;
        }
        break;
      }
      // e_S <= balance_out implies some frontier mass remains.
      CHECK(!frontier_.empty());
      FrontierEntry entry = frontier_.front();
      frontier_.pop_front();
      balance_out_ -= entry.recorded_residual;
      // Entries can go stale: the head may have joined S, or pushes may have
      // consumed the residual.
      uint32_t head = view.RefDst(entry.ref);
      if (InS(head) || view.RefResidual(entry.ref) <= 0 ||
          ReducedCostOf(view, entry.ref) != 0) {
        continue;
      }
      pred_[head] = entry.ref;
      pred_version_[head] = scan_version_;
      if (excess_[head] < 0) {
        Augment(&view, s, head, &stats);
        break;
      }
      AddToS(view, head);
      if (++steps_since_poll >= 16384) {
        steps_since_poll = 0;
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          stats.outcome = SolveOutcome::kCancelled;
          finish(&stats, /*install_flow=*/false);
          return stats;
        }
        if (DeadlineExpired()) {
          stats.outcome = SolveOutcome::kDegraded;
          stats.deadline_exceeded = true;
          finish(&stats, /*install_flow=*/false);
          return stats;
        }
      }
    }
  }

  stats.total_cost = view.TotalCost();
  finish(&stats, /*install_flow=*/true);
  return stats;
}

}  // namespace firmament
