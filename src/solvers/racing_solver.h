// Firmament's production solver (§6): speculatively executes relaxation and
// incremental cost scaling concurrently and picks whichever finishes first.
//
// In the common case relaxation wins (§4.2); under oversubscription or large
// arriving jobs (§4.3) incremental cost scaling finishes first and bounds
// the placement latency (Fig. 16). Racing avoids a brittle choice heuristic
// (§6.1), but the second leg is not free: it competes for cores with the
// rest of the control plane, and joining it when it loses sits on the
// round's critical path. So the race is staggered. Relaxation starts at once
// on the calling thread; the cost-scaling leg syncs its view alongside, then
// waits until relaxation has run longer than the p90 of its recent solves,
// or starts at once when the round's journal signals contention (a large
// arrival or churn burst) or too few samples exist yet. If relaxation
// finishes first, the waiting leg never solves at all.
//
// State handoff (§6.2): when relaxation wins, price refine recomputes
// reduced potentials from its solution so the next incremental cost scaling
// run warm-starts cheaply (Fig. 13 shows 4x). Refine does not change the
// round's placements, so it runs after the round returns, as a job on the
// cost-scaling worker; the next round joins it before touching either view.
//
// Race isolation (§6.2 incremental contract): both algorithms race on their
// own *persistent* FlowNetworkViews of the one canonical (const) network —
// each view is patched from the round's GraphChange journal rather than the
// network being copy-constructed per algorithm per round — and the winner's
// view writes its flow back. This class is the journal's canonical
// consumer: Solve() clears the network's change log once every algorithm's
// view has synced past it, including a staggered leg that never solved.

#ifndef SRC_SOLVERS_RACING_SOLVER_H_
#define SRC_SOLVERS_RACING_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/mcmf_solver.h"
#include "src/solvers/relaxation.h"

namespace firmament {

// Which algorithm(s) the solver runs; single-algorithm modes exist for the
// paper's ablations ("Relaxation only", "Cost scaling (Quincy)").
enum class SolverMode : uint8_t {
  kRace,                // relaxation + incremental cost scaling (Firmament)
  kRelaxationOnly,      // from-scratch relaxation each round
  kCostScalingOnly,     // incremental cost scaling each round
  kCostScalingScratch,  // from-scratch cost scaling each round (Quincy)
};

struct RacingSolverOptions {
  SolverMode mode = SolverMode::kRace;
  int64_t cost_scaling_alpha = 2;
  // Per-round solve-time budget (0 = unlimited). When set, every leg polls
  // a shared SolveDeadline at its cancellation sites; once it expires the
  // round returns SolveOutcome::kDegraded — no flow is installed, the
  // scheduler keeps the previous round's placements and new tasks wait —
  // instead of stalling the control loop on an overrun solve. The returned
  // SolveStats carries deadline_exceeded and budget_slack_us (signed
  // headroom when the round resolved).
  uint64_t solve_budget_us = 0;
};

struct RoundStats {
  // Sentinel for cost_scaling_start_us: the leg synced its view but never
  // solved, because relaxation finished before any trigger fired.
  static constexpr uint64_t kNotStarted = UINT64_MAX;

  SolveStats winner;
  std::string winner_algorithm;
  // Per-algorithm stats for the round; losers report kCancelled. A
  // cost-scaling leg that never started reports 0 iterations and its view
  // sync in view_prep / view_prep_us.
  SolveStats relaxation;
  SolveStats cost_scaling;
  // kRace only (other modes leave kNotStarted): when the race released the
  // cost-scaling leg to solve, in microseconds from the race's start: 0 when a trigger released it up front (journal
  // contention or a short relaxation history), otherwise the moment
  // relaxation ran past its deadline; kNotStarted if it never solved.
  uint64_t cost_scaling_start_us = kNotStarted;
  // Time this round waited for the previous round's price refine to finish
  // before the race could start (its critical-path share; the refine
  // itself runs between rounds).
  uint64_t price_refine_us = 0;
};

class RacingSolver {
 public:
  explicit RacingSolver(RacingSolverOptions options = {});

  RacingSolver(const RacingSolver&) = delete;
  RacingSolver& operator=(const RacingSolver&) = delete;
  // Joins any in-flight async solve and price refine.
  ~RacingSolver();

  // Solves the canonical network in place: on return, the network carries
  // the winner's optimal flow and its change log is cleared. Subsequent
  // calls warm-start from the previous round's state.
  SolveStats Solve(FlowNetwork* network);

  // --- Async handoff (pipelined rounds) -----------------------------------
  // SolveAsync dispatches Solve(network) onto a persistent dispatch worker
  // and returns immediately; WaitSolve blocks for (and returns) the result.
  // At most one async solve may be in flight, and until WaitSolve returns
  // the caller must not touch the network — nor mutate anything the
  // journal-patched solver views read (graph manager, policies). The
  // dispatch worker is distinct from the race's cost-scaling worker: Solve
  // itself submits the cost-scaling leg to that worker and waits on it, so
  // running Solve *on* it would self-deadlock.
  void SolveAsync(FlowNetwork* network);
  SolveStats WaitSolve();
  // True when no async solve is still running (poll site for pipelined
  // loops deciding between further ingest and finishing the round).
  bool async_solve_done() const;

  const RoundStats& last_round() const { return last_round_; }
  const RacingSolverOptions& options() const { return options_; }

  // Runtime graceful-degradation knob: adjusts the per-round solve budget
  // between rounds (0 disables). Operators tighten it under load shedding
  // without rebuilding the scheduler stack.
  void set_solve_budget_us(uint64_t budget_us) { options_.solve_budget_us = budget_us; }

  // Drops warm state (e.g. when switching workloads in benchmarks), after
  // joining the previous round's price refine.
  void ResetState();

  // Threads ever spawned for the race's worker (cost-scaling leg and refine) — a *monotonic*
  // counter, so a regression back to per-round workers (recreating the
  // pool each Solve) shows up as a number that grows with rounds, not as a
  // constant 1. The persistent worker keeps it at 1 no matter how many
  // rounds ran; 0 before the first race. Exposed for the spawn-free
  // regression test.
  size_t worker_spawns() const { return worker_spawns_; }

 private:
  SolveStats SolveRace(FlowNetwork* network);
  // Waits for the previous round's price refine job, if one is in flight,
  // and returns the microseconds spent waiting.
  uint64_t JoinRefine();
  // How long the cost-scaling leg waits for relaxation this round, or 0 to
  // start it at once (see the thresholds in racing_solver.cc).
  uint64_t CostScalingDelayUs(const FlowNetwork& network);

  RacingSolverOptions options_;
  // Default options: arc prioritization on, from scratch each round (§6.2).
  Relaxation relaxation_;
  CostScaling cost_scaling_;
  RoundStats last_round_;
  // Persistent worker for the cost-scaling leg of the race and the price
  // refine job after it; created lazily on the first kRace round so
  // single-algorithm modes never hold a thread.
  std::unique_ptr<ThreadPool> worker_;
  size_t worker_spawns_ = 0;
  // The price refine job submitted by the last relaxation-won round. It
  // reads relaxation's view and writes cost scaling's pending import, so
  // everything that touches either joins it first (JoinRefine).
  ThreadPool::Ticket refine_ticket_;
  bool refine_in_flight_ = false;
  // Runtimes of relaxation's last completed race solves (a ring), from
  // which the cost-scaling leg's stagger deadline is derived.
  std::vector<uint64_t> relaxation_us_;
  size_t relaxation_next_ = 0;
  // Persistent dispatch worker for SolveAsync; lazy so synchronous callers
  // never hold the extra thread. async_result_ is written on the worker and
  // read after the ticket's Wait/Done, which order the accesses.
  std::unique_ptr<ThreadPool> async_worker_;
  ThreadPool::Ticket async_ticket_;
  SolveStats async_result_;
  bool async_in_flight_ = false;
};

}  // namespace firmament

#endif  // SRC_SOLVERS_RACING_SOLVER_H_
