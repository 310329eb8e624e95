#include "src/solvers/racing_solver.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "src/base/check.h"
#include "src/base/timer.h"

namespace firmament {

namespace {

// Stagger thresholds for the race's cost-scaling leg. It waits until
// relaxation has run past the kRelaxationQuantile of its last
// kRelaxationHistory completed race solves, unless fewer than
// kMinRelaxationSamples exist yet or the round's journal holds more than
// 1/kContentionJournalDivisor as many changes as the network has nodes: a
// big arrival or churn burst, the §4.3 rounds where cost scaling wins
// (Figs. 8, 9, 16), which should not sit out a deadline first.
constexpr size_t kRelaxationHistory = 64;
constexpr size_t kMinRelaxationSamples = 16;
constexpr double kRelaxationQuantile = 0.9;
constexpr size_t kContentionJournalDivisor = 10;

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

RacingSolver::~RacingSolver() {
  if (async_in_flight_) {
    async_ticket_.Wait();
  }
}

void RacingSolver::ResetState() {
  CHECK(!async_in_flight_);
  relaxation_.ResetState();
  cost_scaling_.ResetState();
}

uint64_t RacingSolver::CostScalingDelayUs(const FlowNetwork& network) {
  if (network.Changes().size() * kContentionJournalDivisor > network.NumNodes() ||
      relaxation_us_.size() < kMinRelaxationSamples) {
    return 0;
  }
  const size_t count = relaxation_us_.size();
  const size_t rank = static_cast<size_t>(kRelaxationQuantile * static_cast<double>(count));
  std::array<uint64_t, kRelaxationHistory> samples;
  std::copy(relaxation_us_.begin(), relaxation_us_.end(), samples.begin());
  std::nth_element(samples.begin(), samples.begin() + rank, samples.begin() + count);
  return samples[rank];
}

void RacingSolver::SolveAsync(FlowNetwork* network) {
  CHECK(!async_in_flight_);
  if (async_worker_ == nullptr) {
    async_worker_ = std::make_unique<WorkerThread>();
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
  // solve on small clusters), a wakeup costs a futex. dispatch_us
  // records the handoff latency actually paid this round.
  if (worker_ == nullptr) {
    worker_ = std::make_unique<WorkerThread>();
    ++worker_spawns_;
  }
  // Stagger handshake: the leg syncs its view, then sleeps until either
  // relaxation finishes (the leg never solves) or release_at passes.
  struct Handshake {
    std::mutex mutex;
    std::condition_variable cv;
    bool relaxation_done = false;
  } handshake;
  const uint64_t delay_us = CostScalingDelayUs(*network);
  WallTimer race_timer;
  const auto release_at = std::chrono::steady_clock::now() + std::chrono::microseconds(delay_us);
  std::atomic<uint64_t> dispatch_us{0};
  uint64_t cs_start_us = RoundStats::kNotStarted;
  uint64_t cs_finish_us = 0;
  SolveStats cs_stats;
  WorkerThread::Ticket cs_ticket = worker_->Submit([&] {
    dispatch_us.store(race_timer.ElapsedMicros(), std::memory_order_relaxed);
    // The view syncs even if the leg never solves: Solve() clears the
    // journal after the race, and the next round patches from there.
    cs_stats = cost_scaling_.SyncView(*network);
    if (delay_us > 0) {
      std::unique_lock<std::mutex> lock(handshake.mutex);
      handshake.cv.wait_until(lock, release_at, [&] { return handshake.relaxation_done; });
      if (handshake.relaxation_done) {
        cs_stats.outcome = SolveOutcome::kCancelled;
        cs_stats.runtime_us = cs_stats.view_prep_us;
        return;
      }
    }
    cs_start_us = delay_us > 0 ? race_timer.ElapsedMicros() : 0;
    cost_scaling_.SolveSynced(&cancel_cs, &cs_stats);
    cs_finish_us = race_timer.ElapsedMicros();
    if (cs_stats.outcome != SolveOutcome::kCancelled) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, 1)) {
        cancel_relax.store(true, std::memory_order_relaxed);
      }
    }
  });

  SolveStats relax_stats = relaxation_.SolveView(*network, &cancel_relax);
  const uint64_t relax_finish_us = race_timer.ElapsedMicros();
  if (relax_stats.outcome != SolveOutcome::kCancelled) {
    int expected = -1;
    if (winner.compare_exchange_strong(expected, 0)) {
      cancel_cs.store(true, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(handshake.mutex);
    handshake.relaxation_done = true;
  }
  handshake.cv.notify_one();
  cs_ticket.Wait();
  cs_stats.dispatch_us = dispatch_us.load(std::memory_order_relaxed);

  last_round_.relaxation = relax_stats;
  last_round_.cost_scaling = cs_stats;
  last_round_.cost_scaling_start_us = cs_start_us;
  if (relax_stats.outcome != SolveOutcome::kCancelled &&
      relax_stats.outcome != SolveOutcome::kDegraded) {
    // On the race's clock, like the deadline it feeds.
    if (relaxation_us_.size() < kRelaxationHistory) {
      relaxation_us_.push_back(relax_finish_us);
    } else {
      relaxation_us_[relaxation_next_] = relax_finish_us;
    }
    relaxation_next_ = (relaxation_next_ + 1) % kRelaxationHistory;
  }

  int winner_idx = winner.load();
  CHECK_NE(winner_idx, -1);
  const bool relaxation_won = winner_idx == 0;
  SolveStats result = relaxation_won ? relax_stats : cs_stats;
  if (!relaxation_won) {
    // A staggered leg's own runtime omits the time the round spent before
    // its release; the round paid for that too.
    result.runtime_us = cs_finish_us;
  }
  // The round's handoff latency is a property of the race, not of which
  // algorithm won; surface it on the returned stats either way.
  result.dispatch_us = cs_stats.dispatch_us;
  if (result.outcome != SolveOutcome::kOptimal) {
    result.flow_valid = false;  // infeasible; no flow is installed
    return result;
  }
  (relaxation_won ? relaxation_.view() : cost_scaling_.view()).WriteBackFlow(network);

  if (relaxation_won) {
    // Hand the solution to incremental cost scaling for the next round
    // (§6.2): relaxation's final potentials are optimal duals for the flow
    // just written back, keyed by original NodeId like cost scaling's own.
    cost_scaling_.ImportPotentials(relaxation_.potentials());
  }
  return result;
}

}  // namespace firmament
