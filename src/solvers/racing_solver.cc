#include "src/solvers/racing_solver.h"

#include <atomic>
#include <memory>

#include "src/base/check.h"
#include "src/base/timer.h"
#include "src/solvers/solver_util.h"

namespace firmament {

namespace {

CostScalingOptions MakeCostScalingOptions(const RacingSolverOptions& options) {
  CostScalingOptions cs;
  cs.alpha = options.cost_scaling_alpha;
  cs.incremental = options.mode != SolverMode::kCostScalingScratch;
  return cs;
}

}  // namespace

RacingSolver::RacingSolver(RacingSolverOptions options)
    : options_(options),
      cost_scaling_(MakeCostScalingOptions(options)) {}

void RacingSolver::ResetState() {
  CHECK(!async_in_flight_);
  relaxation_.ResetState();
  cost_scaling_.ResetState();
}

void RacingSolver::SolveAsync(FlowNetwork* network) {
  CHECK(!async_in_flight_);
  if (async_worker_ == nullptr) {
    async_worker_ = std::make_unique<ThreadPool>(1);
  }
  async_in_flight_ = true;
  async_ticket_ = async_worker_->Submit([this, network] { async_result_ = Solve(network); });
}

SolveStats RacingSolver::WaitSolve() {
  CHECK(async_in_flight_);
  async_ticket_.Wait();
  async_in_flight_ = false;
  return async_result_;
}

bool RacingSolver::async_solve_done() const {
  return !async_in_flight_ || async_ticket_.Done();
}

SolveStats RacingSolver::Solve(FlowNetwork* network) {
  last_round_ = RoundStats{};
  // One shared deadline per round: all legs poll it at their cancellation
  // sites and return kDegraded once it expires, bounding the control loop's
  // stall on an overrun solve (the first expiry flips a sticky flag, so the
  // slower leg degrades at its next poll too).
  std::unique_ptr<SolveDeadline> deadline;
  if (options_.solve_budget_us > 0) {
    deadline = std::make_unique<SolveDeadline>(options_.solve_budget_us);
    relaxation_.set_deadline(deadline.get());
    cost_scaling_.set_deadline(deadline.get());
  }
  SolveStats result;
  switch (options_.mode) {
    case SolverMode::kRelaxationOnly:
      result = relaxation_.Solve(network);
      last_round_.relaxation = result;
      break;
    case SolverMode::kCostScalingOnly:
    case SolverMode::kCostScalingScratch:
      result = cost_scaling_.Solve(network);
      last_round_.cost_scaling = result;
      break;
    case SolverMode::kRace:
      result = SolveRace(network);
      break;
  }
  if (deadline != nullptr) {
    relaxation_.set_deadline(nullptr);
    cost_scaling_.set_deadline(nullptr);
    result.deadline_exceeded = result.deadline_exceeded || deadline->Expired();
    result.budget_slack_us = deadline->SlackUs();
  }
  last_round_.winner = result;
  last_round_.winner_algorithm = result.algorithm;
  network->ClearChanges();
  return result;
}

SolveStats RacingSolver::SolveRace(FlowNetwork* network) {
  // Both algorithms race on their own persistent views of the one const
  // canonical network: each view starts from the previous round's winning
  // flow (SyncFlowFrom) with this round's journal patched in. No network
  // copies are made — the former per-round mirror copies cost two O(n + m)
  // copy-constructions and silently carried the source's change journal.
  std::atomic<bool> cancel_relax{false};
  std::atomic<bool> cancel_cs{false};
  std::atomic<int> winner{-1};  // 0 = relaxation, 1 = cost scaling

  // The cost-scaling leg runs on a persistent worker instead of a freshly
  // spawned std::thread: thread creation costs tens of microseconds of
  // kernel work on the round's critical path (comparable to a whole warm
  // solve on small clusters), a pooled wakeup costs a futex. dispatch_us
  // records the handoff latency actually paid this round.
  if (worker_ == nullptr) {
    worker_ = std::make_unique<ThreadPool>(1);
    worker_spawns_ += worker_->num_threads();
  }
  WallTimer dispatch_timer;
  std::atomic<uint64_t> dispatch_us{0};
  SolveStats cs_stats;
  ThreadPool::Ticket cs_ticket = worker_->Submit([&] {
    dispatch_us.store(dispatch_timer.ElapsedMicros(), std::memory_order_relaxed);
    cs_stats = cost_scaling_.SolveView(*network, &cancel_cs);
    if (cs_stats.outcome != SolveOutcome::kCancelled) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, 1)) {
        cancel_relax.store(true, std::memory_order_relaxed);
      }
    }
  });

  SolveStats relax_stats = relaxation_.SolveView(*network, &cancel_relax);
  if (relax_stats.outcome != SolveOutcome::kCancelled) {
    int expected = -1;
    if (winner.compare_exchange_strong(expected, 0)) {
      cancel_cs.store(true, std::memory_order_relaxed);
    }
  }
  cs_ticket.Wait();
  cs_stats.dispatch_us = dispatch_us.load(std::memory_order_relaxed);

  last_round_.relaxation = relax_stats;
  last_round_.cost_scaling = cs_stats;

  int winner_idx = winner.load();
  CHECK_NE(winner_idx, -1);
  const bool relaxation_won = winner_idx == 0;
  SolveStats result = relaxation_won ? relax_stats : cs_stats;
  // The round's handoff latency is a property of the race, not of which
  // algorithm won; surface it on the returned stats either way.
  result.dispatch_us = cs_stats.dispatch_us;
  if (result.outcome != SolveOutcome::kOptimal) {
    result.flow_valid = false;  // infeasible; no flow is installed
    return result;
  }
  (relaxation_won ? relaxation_.view() : cost_scaling_.view()).WriteBackFlow(network);

  if (relaxation_won) {
    // Hand the solution to incremental cost scaling for the next round:
    // price refine (§6.2) recomputes reduced potentials from the flow, which
    // warm-start far better than relaxation's raw, typically much larger,
    // potentials (Fig. 13).
    WallTimer refine_timer;
    std::vector<int64_t> refined;
    CHECK(PriceRefine(*network, &refined));
    cost_scaling_.ImportPotentials(std::move(refined));
    last_round_.price_refine_us = refine_timer.ElapsedMicros();
  }
  return result;
}

}  // namespace firmament
