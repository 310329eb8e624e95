// Unit, integration, and property tests for the MCMF solver suite (§4-§6).
//
// The central property: all four algorithms maintain different invariants
// (Table 2) but must agree on the optimal cost and pass the §4 optimality
// conditions on every instance.

#include <atomic>
#include <limits>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "src/flow/flow_network_view.h"
#include "src/flow/graph.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/cycle_canceling.h"
#include "src/solvers/mcmf_solver.h"
#include "src/solvers/racing_solver.h"
#include "src/solvers/relaxation.h"
#include "src/solvers/solution_checker.h"
#include "src/solvers/solver_util.h"
#include "src/solvers/successive_shortest_path.h"
#include "tests/graph_generators.h"

namespace firmament {
namespace {

std::vector<std::unique_ptr<McmfSolver>> AllSolvers() {
  std::vector<std::unique_ptr<McmfSolver>> solvers;
  solvers.push_back(std::make_unique<CycleCanceling>());
  solvers.push_back(std::make_unique<SuccessiveShortestPath>());
  solvers.push_back(std::make_unique<CostScaling>());
  solvers.push_back(std::make_unique<Relaxation>());
  return solvers;
}

// Two tasks, two single-slot machines; assignment must trade off greedy
// choices: t0 prefers m0 (1 < 3) but t1 only fits on m0 cheaply, so the
// optimum pays t0 -> m1.
FlowNetwork MakeAssignmentExample() {
  FlowNetwork net;
  NodeId sink = net.AddNode(-2, NodeKind::kSink);
  NodeId m0 = net.AddNode(0, NodeKind::kMachine);
  NodeId m1 = net.AddNode(0, NodeKind::kMachine);
  net.AddArc(m0, sink, 1, 0);
  net.AddArc(m1, sink, 1, 0);
  NodeId t0 = net.AddNode(1, NodeKind::kTask);
  NodeId t1 = net.AddNode(1, NodeKind::kTask);
  net.AddArc(t0, m0, 1, 1);
  net.AddArc(t0, m1, 1, 3);
  net.AddArc(t1, m0, 1, 1);
  net.AddArc(t1, m1, 1, 5);
  return net;
}

// Fig. 5-style network: two jobs (3 + 2 tasks), four machines with one slot
// each, per-job unscheduled aggregators. One task must stay unscheduled;
// the optimum picks the task whose unscheduled cost is lowest relative to
// its placement alternatives.
struct Fig5Network {
  FlowNetwork net;
  std::vector<NodeId> tasks;
  std::vector<NodeId> machines;
  NodeId unsched0;
  NodeId unsched1;
  NodeId sink;
};

Fig5Network MakeFig5Example() {
  Fig5Network g;
  g.sink = g.net.AddNode(-5, NodeKind::kSink);
  for (int m = 0; m < 4; ++m) {
    g.machines.push_back(g.net.AddNode(0, NodeKind::kMachine));
    g.net.AddArc(g.machines.back(), g.sink, 1, 0);
  }
  g.unsched0 = g.net.AddNode(0, NodeKind::kUnscheduled);
  g.unsched1 = g.net.AddNode(0, NodeKind::kUnscheduled);
  g.net.AddArc(g.unsched0, g.sink, 3, 0);
  g.net.AddArc(g.unsched1, g.sink, 2, 0);
  // Job 0: three tasks, unscheduled cost 5 each.
  // Job 1: two tasks, unscheduled cost 7 each.
  int64_t unsched_cost[5] = {5, 5, 5, 7, 7};
  // Placement preference costs (kInvalid = no arc), loosely following the
  // arc labels in Fig. 5.
  int64_t pref[5][4] = {
      {2, 6, -1, -1},   // T0,0
      {-1, 12, -1, -1},  // T0,1: only an expensive option => stays unscheduled
      {-1, 3, 4, -1},   // T0,2
      {-1, -1, 1, 2},   // T1,0
      {-1, -1, -1, 2},  // T1,1
  };
  for (int t = 0; t < 5; ++t) {
    NodeId task = g.net.AddNode(1, NodeKind::kTask);
    g.tasks.push_back(task);
    g.net.AddArc(task, t < 3 ? g.unsched0 : g.unsched1, 1, unsched_cost[t]);
    for (int m = 0; m < 4; ++m) {
      if (pref[t][m] >= 0) {
        g.net.AddArc(task, g.machines[m], 1, pref[t][m]);
      }
    }
  }
  return g;
}

TEST(SolverBasicsTest, AssignmentExampleOptimalCost) {
  for (auto& solver : AllSolvers()) {
    FlowNetwork net = MakeAssignmentExample();
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    EXPECT_EQ(stats.total_cost, 4) << solver->name();
    EXPECT_TRUE(CheckOptimality(net).ok()) << solver->name();
  }
}

TEST(SolverBasicsTest, Fig5ExampleLeavesOneTaskUnscheduled) {
  for (auto& solver : AllSolvers()) {
    Fig5Network g = MakeFig5Example();
    SolveStats stats = solver->Solve(&g.net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    // Optimum: T0,0->M0 (2), T0,1 unscheduled (5), T0,2->M1 (3),
    // T1,0->M2 (1), T1,1->M3 (2): total 13.
    EXPECT_EQ(stats.total_cost, 13) << solver->name();
    // Exactly one unit of flow through job 0's unscheduled aggregator.
    EXPECT_EQ(g.net.Excess(g.unsched0), 0);
    int64_t unsched_flow = 0;
    for (ArcRef ref : g.net.Adjacency(g.unsched0)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        unsched_flow += g.net.Flow(FlowNetwork::RefArc(ref));
      }
    }
    EXPECT_EQ(unsched_flow, 1) << solver->name();
  }
}

TEST(SolverBasicsTest, EmptyNetwork) {
  for (auto& solver : AllSolvers()) {
    FlowNetwork net;
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    EXPECT_EQ(stats.total_cost, 0) << solver->name();
  }
}

TEST(SolverBasicsTest, ZeroSupplyNonNegativeCostsMeansZeroFlow) {
  for (auto& solver : AllSolvers()) {
    FlowNetwork net;
    NodeId a = net.AddNode(0);
    NodeId b = net.AddNode(0);
    net.AddArc(a, b, 10, 5);
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    EXPECT_EQ(stats.total_cost, 0) << solver->name();
  }
}

TEST(SolverBasicsTest, SingleArcSaturates) {
  for (auto& solver : AllSolvers()) {
    FlowNetwork net;
    NodeId a = net.AddNode(3);
    NodeId b = net.AddNode(-3);
    ArcId arc = net.AddArc(a, b, 3, 7);
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    EXPECT_EQ(stats.total_cost, 21) << solver->name();
    EXPECT_EQ(net.Flow(arc), 3) << solver->name();
  }
}

TEST(SolverBasicsTest, ParallelArcsPreferCheaper) {
  for (auto& solver : AllSolvers()) {
    FlowNetwork net;
    NodeId a = net.AddNode(4);
    NodeId b = net.AddNode(-4);
    ArcId cheap = net.AddArc(a, b, 3, 1);
    ArcId expensive = net.AddArc(a, b, 3, 10);
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    EXPECT_EQ(stats.total_cost, 3 * 1 + 1 * 10) << solver->name();
    EXPECT_EQ(net.Flow(cheap), 3) << solver->name();
    EXPECT_EQ(net.Flow(expensive), 1) << solver->name();
  }
}

TEST(SolverBasicsTest, InfeasibleWhenCapacityInsufficient) {
  for (auto& solver : AllSolvers()) {
    FlowNetwork net;
    NodeId a = net.AddNode(5);
    NodeId b = net.AddNode(-5);
    net.AddArc(a, b, 3, 1);
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kInfeasible) << solver->name();
  }
}

TEST(SolverBasicsTest, InfeasibleWhenSourceDisconnected) {
  for (auto& solver : AllSolvers()) {
    FlowNetwork net;
    net.AddNode(5);
    net.AddNode(-5);
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kInfeasible) << solver->name();
  }
}

TEST(SolverBasicsTest, NegativeCostDagHandled) {
  // SSP initializes potentials from the zero flow, so negative (acyclic)
  // costs must work for all four algorithms.
  for (auto& solver : AllSolvers()) {
    FlowNetwork net;
    NodeId a = net.AddNode(2);
    NodeId b = net.AddNode(0);
    NodeId c = net.AddNode(-2);
    net.AddArc(a, b, 2, -5);
    net.AddArc(b, c, 2, -3);
    net.AddArc(a, c, 2, 1);
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    EXPECT_EQ(stats.total_cost, -16) << solver->name();
  }
}

TEST(SolverBasicsTest, NegativeCycleCirculation) {
  // With zero supplies but a negative cycle, the optimum circulates flow
  // around the cycle. SSP cannot handle this case (it reports infeasible);
  // the other three must find it.
  std::vector<std::unique_ptr<McmfSolver>> solvers;
  solvers.push_back(std::make_unique<CycleCanceling>());
  solvers.push_back(std::make_unique<CostScaling>());
  solvers.push_back(std::make_unique<Relaxation>());
  for (auto& solver : solvers) {
    FlowNetwork net;
    NodeId a = net.AddNode(0);
    NodeId b = net.AddNode(0);
    NodeId c = net.AddNode(0);
    net.AddArc(a, b, 2, -4);
    net.AddArc(b, c, 2, 1);
    net.AddArc(c, a, 2, 1);
    SolveStats stats = solver->Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    EXPECT_EQ(stats.total_cost, -4) << solver->name();
    EXPECT_TRUE(CheckOptimality(net).ok()) << solver->name();
  }
}

TEST(SolverBasicsTest, CancellationStopsSolver) {
  // A pre-set cancellation token must abort promptly with kCancelled.
  for (auto& solver : AllSolvers()) {
    SchedulingGraphSpec spec;
    spec.num_tasks = 200;
    spec.num_machines = 40;
    FlowNetwork net = MakeSchedulingGraph(spec);
    std::atomic<bool> cancel{true};
    SolveStats stats = solver->Solve(&net, &cancel);
    EXPECT_EQ(stats.outcome, SolveOutcome::kCancelled) << solver->name();
  }
}

// ---------------------------------------------------------------------------
// Property tests: all algorithms agree and satisfy the optimality conditions.
// ---------------------------------------------------------------------------

class SchedulingGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulingGraphPropertyTest, AllSolversAgreeOnOptimalCost) {
  SchedulingGraphSpec spec;
  spec.seed = GetParam();
  spec.num_tasks = 20 + static_cast<int>(GetParam() % 60);
  spec.num_machines = 4 + static_cast<int>(GetParam() % 12);
  spec.slots_per_machine = 1 + static_cast<int>(GetParam() % 4);
  FlowNetwork reference = MakeSchedulingGraph(spec);

  int64_t expected_cost = 0;
  bool first = true;
  for (auto& solver : AllSolvers()) {
    FlowNetwork net = reference;
    SolveStats stats = solver->Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << solver->name() << ": " << check.message;
    if (first) {
      expected_cost = stats.total_cost;
      first = false;
    } else {
      EXPECT_EQ(stats.total_cost, expected_cost) << solver->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingGraphPropertyTest, ::testing::Range<uint64_t>(0, 25));

class TransportGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransportGraphPropertyTest, AllSolversAgreeOnOptimalCost) {
  TransportGraphSpec spec;
  spec.seed = GetParam();
  spec.num_nodes = 10 + static_cast<int>(GetParam() % 40);
  spec.num_arcs = spec.num_nodes * 4;
  FlowNetwork reference = MakeTransportGraph(spec);

  int64_t expected_cost = 0;
  bool first = true;
  for (auto& solver : AllSolvers()) {
    FlowNetwork net = reference;
    SolveStats stats = solver->Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << solver->name();
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << solver->name() << ": " << check.message;
    if (first) {
      expected_cost = stats.total_cost;
      first = false;
    } else {
      EXPECT_EQ(stats.total_cost, expected_cost) << solver->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportGraphPropertyTest, ::testing::Range<uint64_t>(0, 25));

// Relaxation without arc prioritization must still be exact (Fig. 12a only
// changes performance, not the solution).
class ArcPrioritizationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArcPrioritizationTest, HeuristicPreservesOptimality) {
  SchedulingGraphSpec spec;
  spec.seed = GetParam();
  FlowNetwork with = MakeSchedulingGraph(spec);
  FlowNetwork without = with;
  RelaxationOptions on;
  on.arc_prioritization = true;
  RelaxationOptions off;
  off.arc_prioritization = false;
  Relaxation relax_on(on);
  Relaxation relax_off(off);
  SolveStats stats_on = relax_on.Solve(&with);
  SolveStats stats_off = relax_off.Solve(&without);
  ASSERT_EQ(stats_on.outcome, SolveOutcome::kOptimal);
  ASSERT_EQ(stats_off.outcome, SolveOutcome::kOptimal);
  EXPECT_EQ(stats_on.total_cost, stats_off.total_cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcPrioritizationTest, ::testing::Range<uint64_t>(0, 10));

// Cost scaling's α-factor (§7.2 footnote 3) must not change the solution.
class AlphaFactorTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(AlphaFactorTest, AlphaPreservesOptimality) {
  SchedulingGraphSpec spec;
  spec.seed = 7;
  FlowNetwork reference = MakeSchedulingGraph(spec);
  FlowNetwork base = reference;
  CostScaling baseline;
  SolveStats expected = baseline.Solve(&base);
  CostScalingOptions options;
  options.alpha = GetParam();
  CostScaling solver(options);
  FlowNetwork net = reference;
  SolveStats stats = solver.Solve(&net);
  ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal);
  EXPECT_EQ(stats.total_cost, expected.total_cost);
  EXPECT_TRUE(CheckOptimality(net).ok());
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaFactorTest, ::testing::Values(2, 3, 5, 9, 16, 64));

// ---------------------------------------------------------------------------
// Incremental re-optimization (§5.2).
// ---------------------------------------------------------------------------

// Applies a random batch of graph changes mimicking cluster events: task
// arrivals (new source + arcs), task completions (source removal), and cost
// changes.
void ApplyRandomChanges(FlowNetwork* net, Rng* rng, int num_changes) {
  std::vector<NodeId> tasks;
  std::vector<NodeId> machines;
  NodeId sink = kInvalidNodeId;
  NodeId unsched = kInvalidNodeId;
  for (NodeId node : net->ValidNodes()) {
    switch (net->Kind(node)) {
      case NodeKind::kTask:
        tasks.push_back(node);
        break;
      case NodeKind::kMachine:
        machines.push_back(node);
        break;
      case NodeKind::kSink:
        sink = node;
        break;
      case NodeKind::kUnscheduled:
        unsched = node;
        break;
      default:
        break;
    }
  }
  ASSERT_NE(sink, kInvalidNodeId);
  ASSERT_NE(unsched, kInvalidNodeId);
  for (int i = 0; i < num_changes; ++i) {
    double choice = rng->NextDouble();
    if (choice < 0.4) {
      // Task arrival.
      NodeId task = net->AddNode(1, NodeKind::kTask);
      net->AddArc(task, unsched, 1, rng->NextInt(50, 100));
      for (int p = 0; p < 3; ++p) {
        net->AddArc(task, machines[rng->NextUint64(machines.size())], 1, rng->NextInt(0, 25));
      }
      net->SetNodeSupply(sink, net->Supply(sink) - 1);
      tasks.push_back(task);
    } else if (choice < 0.7 && !tasks.empty()) {
      // Task completion/removal.
      size_t idx = rng->NextUint64(tasks.size());
      NodeId task = tasks[idx];
      net->RemoveNode(task);
      net->SetNodeSupply(sink, net->Supply(sink) + 1);
      tasks[idx] = tasks.back();
      tasks.pop_back();
    } else {
      // Cost change on a random task arc.
      if (tasks.empty()) {
        continue;
      }
      NodeId task = tasks[rng->NextUint64(tasks.size())];
      const auto& adjacency = net->Adjacency(task);
      if (adjacency.empty()) {
        continue;
      }
      ArcRef ref = adjacency[rng->NextUint64(adjacency.size())];
      if (!FlowNetwork::RefIsReverse(ref)) {
        net->SetArcCost(FlowNetwork::RefArc(ref), rng->NextInt(0, 100));
      }
    }
  }
}

class IncrementalCostScalingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalCostScalingTest, MatchesFromScratchAcrossChangeRounds) {
  SchedulingGraphSpec spec;
  spec.seed = GetParam();
  spec.num_tasks = 30;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  Rng rng(GetParam() * 977 + 3);

  CostScalingOptions inc_options;
  inc_options.incremental = true;
  CostScaling incremental(inc_options);

  for (int round = 0; round < 5; ++round) {
    SolveStats inc_stats = incremental.Solve(&net);
    ASSERT_EQ(inc_stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << "round " << round << ": " << check.message;

    FlowNetwork scratch_net = net;
    CostScaling scratch;
    SolveStats scratch_stats = scratch.Solve(&scratch_net);
    ASSERT_EQ(scratch_stats.outcome, SolveOutcome::kOptimal);
    EXPECT_EQ(inc_stats.total_cost, scratch_stats.total_cost) << "round " << round;

    net.ClearChanges();
    ApplyRandomChanges(&net, &rng, 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalCostScalingTest, ::testing::Range<uint64_t>(0, 10));

// One relaxation instance reused across change rounds (its persistent view
// and retained potentials carry over, as in the race) must match a fresh
// solver every round. The network records its change journal and the
// journal is cleared after each solve, as RacingSolver does, and each
// round's structural changes stay under the view's 1/32 per-round churn
// limit, so every round after the first patches the view in place.
class PersistentRelaxationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistentRelaxationTest, MatchesFromScratchAcrossChangeRounds) {
  SchedulingGraphSpec spec;
  spec.seed = GetParam() + 1000;
  spec.num_tasks = 120;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  Rng rng(GetParam() * 1301 + 11);

  Relaxation persistent;

  for (int round = 0; round < 5; ++round) {
    SolveStats stats = persistent.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    if (round > 0) {
      EXPECT_EQ(stats.view_prep, FlowNetworkView::PrepareResult::kPatched) << "round " << round;
    }
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << "round " << round << ": " << check.message;

    FlowNetwork scratch_net = net;
    Relaxation scratch;
    SolveStats scratch_stats = scratch.Solve(&scratch_net);
    ASSERT_EQ(scratch_stats.outcome, SolveOutcome::kOptimal);
    EXPECT_EQ(stats.total_cost, scratch_stats.total_cost) << "round " << round;

    net.ClearChanges();
    ApplyRandomChanges(&net, &rng, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistentRelaxationTest, ::testing::Range<uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// Price refine (§6.2).
// ---------------------------------------------------------------------------

TEST(PriceRefineTest, ProducesComplementarySlacknessPotentials) {
  SchedulingGraphSpec spec;
  spec.seed = 5;
  FlowNetwork net = MakeSchedulingGraph(spec);
  Relaxation relax;
  ASSERT_EQ(relax.Solve(&net).outcome, SolveOutcome::kOptimal);
  std::vector<int64_t> potential;
  ASSERT_TRUE(PriceRefine(net, &potential));
  // Every residual arc must have non-negative reduced cost.
  for (NodeId node : net.ValidNodes()) {
    for (ArcRef ref : net.Adjacency(node)) {
      if (net.RefSrc(ref) == node && net.RefResidual(ref) > 0) {
        EXPECT_GE(ReducedCost(net, potential, ref), 0);
      }
    }
  }
}

TEST(PriceRefineTest, FailsOnSuboptimalFlow) {
  FlowNetwork net;
  NodeId a = net.AddNode(0);
  NodeId b = net.AddNode(0);
  ArcId ab = net.AddArc(a, b, 2, -4);
  ArcId ba = net.AddArc(b, a, 2, 1);
  // Zero flow leaves the negative cycle uncancelled: not optimal.
  std::vector<int64_t> potential;
  EXPECT_FALSE(PriceRefine(net, &potential));
  // Cancel it; now refine succeeds.
  net.SetFlow(ab, 2);
  net.SetFlow(ba, 2);
  EXPECT_TRUE(PriceRefine(net, &potential));
}

TEST(PriceRefineTest, RefinedPotentialsAreSmallerThanRelaxations) {
  // Relaxation's dual ascents inflate potentials; price refine computes
  // smaller ones for the same flow. The paper credits the gap for its
  // Fig. 13 speedup; here raw and refined imports warm-start cost scaling
  // about equally fast (bench_fig13_price_refine), so the race imports
  // relaxation's potentials as they are.
  SchedulingGraphSpec spec;
  spec.seed = 11;
  spec.num_tasks = 60;
  FlowNetwork net = MakeSchedulingGraph(spec);
  Relaxation relax;
  ASSERT_EQ(relax.Solve(&net).outcome, SolveOutcome::kOptimal);
  std::vector<int64_t> refined;
  ASSERT_TRUE(PriceRefine(net, &refined));
  int64_t relax_mag = 0;
  int64_t refined_mag = 0;
  for (NodeId node : net.ValidNodes()) {
    relax_mag += std::abs(relax.potentials()[node]);
    refined_mag += std::abs(refined[node]);
  }
  EXPECT_LE(refined_mag, relax_mag);
}

// ---------------------------------------------------------------------------
// Solution checker.
// ---------------------------------------------------------------------------

TEST(SolutionCheckerTest, DetectsInfeasibleFlow) {
  FlowNetwork net;
  NodeId a = net.AddNode(1);
  NodeId b = net.AddNode(-1);
  net.AddArc(a, b, 1, 1);
  CheckResult result = CheckFeasibility(net);
  EXPECT_FALSE(result.feasible);  // zero flow does not route the supply
  EXPECT_FALSE(result.message.empty());
}

TEST(SolutionCheckerTest, DetectsSuboptimalFlow) {
  FlowNetwork net;
  NodeId a = net.AddNode(1);
  NodeId b = net.AddNode(-1);
  ArcId cheap = net.AddArc(a, b, 1, 1);
  ArcId expensive = net.AddArc(a, b, 1, 10);
  net.SetFlow(expensive, 1);
  CheckResult result = CheckOptimality(net);
  EXPECT_TRUE(result.feasible);
  EXPECT_FALSE(result.optimal);
  net.SetFlow(expensive, 0);
  net.SetFlow(cheap, 1);
  EXPECT_TRUE(CheckOptimality(net).ok());
}

// ---------------------------------------------------------------------------
// Racing solver (§6.1).
// ---------------------------------------------------------------------------

class RacingSolverTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RacingSolverTest, MatchesSingleAlgorithmsAcrossRounds) {
  SchedulingGraphSpec spec;
  spec.seed = GetParam() + 500;
  spec.num_tasks = 40;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  Rng rng(GetParam() * 31 + 7);

  RacingSolver racing;
  for (int round = 0; round < 4; ++round) {
    SolveStats stats = racing.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << "round " << round << ": " << check.message;
    EXPECT_TRUE(net.Changes().empty());  // consumed by the solver

    FlowNetwork scratch_net = net;
    CostScaling scratch;
    SolveStats scratch_stats = scratch.Solve(&scratch_net);
    EXPECT_EQ(stats.total_cost, scratch_stats.total_cost) << "round " << round;

    ApplyRandomChanges(&net, &rng, 12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RacingSolverTest, ::testing::Range<uint64_t>(0, 10));

TEST(RacingSolverTest, SingleAlgorithmModes) {
  for (SolverMode mode : {SolverMode::kRelaxationOnly, SolverMode::kCostScalingOnly,
                          SolverMode::kCostScalingScratch}) {
    RacingSolverOptions options;
    options.mode = mode;
    RacingSolver solver(options);
    SchedulingGraphSpec spec;
    FlowNetwork net = MakeSchedulingGraph(spec);
    net.EnableChangeRecording(true);
    SolveStats stats = solver.Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal);
    EXPECT_TRUE(CheckOptimality(net).ok());
  }
}

TEST(RacingSolverTest, ReportsWinnerAndLoserStats) {
  RacingSolver solver;
  SchedulingGraphSpec spec;
  spec.num_tasks = 100;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  SolveStats stats = solver.Solve(&net);
  ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal);
  const RoundStats& round = solver.last_round();
  EXPECT_EQ(round.winner_algorithm, stats.algorithm);
  // Exactly one of the two produced the winning (optimal) outcome under the
  // race; the other was cancelled or also finished.
  bool relax_done = round.relaxation.outcome == SolveOutcome::kOptimal;
  bool cs_done = round.cost_scaling.outcome == SolveOutcome::kOptimal;
  EXPECT_TRUE(relax_done || cs_done);
}

// Asserts the race's installed flow costs what a fresh cost-scaling solve of
// the same network does.
void ExpectScratchCost(const FlowNetwork& net, const SolveStats& stats, int round) {
  FlowNetwork scratch_net = net;
  CostScaling scratch;
  SolveStats scratch_stats = scratch.Solve(&scratch_net);
  EXPECT_EQ(stats.total_cost, scratch_stats.total_cost) << "round " << round;
  CheckResult check = CheckOptimality(net);
  EXPECT_TRUE(check.ok()) << "round " << round << ": " << check.message;
}

// The staggered race: on quiet rounds relaxation finishes before its p90
// deadline, so the cost-scaling leg only syncs its view (the journal is
// still consumed) and never solves; a churn burst past the journal trigger
// (more than one change per ten nodes) releases the leg at once.
TEST(RacingSolverTest, StaggeredLegWaitsOnQuietRoundsAndStartsOnBursts) {
  SchedulingGraphSpec spec;
  spec.seed = 11;
  spec.num_tasks = 200;
  spec.num_machines = 30;
  spec.slots_per_machine = 10;  // spare slots: relaxation's home turf (§4.2)
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  Rng rng(19);

  RacingSolver racing;
  constexpr int kWarmUp = 16;  // completed relaxation solves that arm the deadline
  // Who wins a warm-up round is a matter of timing, so a loaded host can
  // take many rounds to arm the deadline: run until enough armed rounds
  // were seen, within a cap.
  constexpr int kMinRounds = 96;
  constexpr int kArmedRounds = 48;
  constexpr int kMaxRounds = 512;
  int relaxation_completed = 0;
  int armed = 0;
  int unstarted = 0;
  int unstarted_patched = 0;
  int round = 0;
  for (; round < kMaxRounds && (round < kMinRounds || armed < kArmedRounds); ++round) {
    const bool deadline_armed = relaxation_completed >= kWarmUp;
    ASSERT_LE(net.Changes().size() * 10, net.NumNodes()) << "round " << round << " is not quiet";
    SolveStats stats = racing.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    EXPECT_TRUE(net.Changes().empty()) << "journal not consumed in round " << round;
    const RoundStats& race = racing.last_round();
    relaxation_completed += race.relaxation.outcome != SolveOutcome::kCancelled;
    armed += deadline_armed;
    if (round > 0) {
      // Both views saw the same journal, so they took the same path.
      EXPECT_EQ(race.cost_scaling.view_prep, race.relaxation.view_prep) << "round " << round;
    }
    if (race.cost_scaling_start_us == RoundStats::kNotStarted) {
      EXPECT_EQ(race.cost_scaling.outcome, SolveOutcome::kCancelled) << "round " << round;
      EXPECT_EQ(race.cost_scaling.iterations, 0u) << "round " << round;
      unstarted += deadline_armed;
      unstarted_patched += race.cost_scaling.view_prep == FlowNetworkView::PrepareResult::kPatched;
    }
    ExpectScratchCost(net, stats, round);
    ApplyRandomChanges(&net, &rng, 2);
  }

  ApplyRandomChanges(&net, &rng, 60);
  ASSERT_GT(net.Changes().size() * 10, net.NumNodes());
  SolveStats stats = racing.Solve(&net);
  ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal);
  EXPECT_TRUE(net.Changes().empty());
  EXPECT_EQ(racing.last_round().cost_scaling_start_us, 0u);
  ExpectScratchCost(net, stats, round);

  if (armed < kArmedRounds) {
    GTEST_SKIP() << "relaxation completed " << relaxation_completed << " of " << round
                 << " races; too few armed rounds to judge the stagger";
  }
  EXPECT_GT(unstarted, armed / 2);
  EXPECT_GT(unstarted_patched, 0);
}

// When relaxation wins, the race hands its potentials straight to the
// cost-scaling leg; a burst past the journal trigger then starts that leg at
// once, warm from them. Every round must still cost what a fresh solve
// does, and ResetState() and destruction right after a relaxation win must
// be safe (the sanitizer legs run this test).
TEST(RacingSolverTest, BurstAfterRelaxationWinStartsFromHandedOffPotentials) {
  SchedulingGraphSpec spec;
  spec.seed = 3;
  spec.num_tasks = 120;
  spec.num_machines = 20;
  FlowNetwork net = MakeSchedulingGraph(spec);
  // ApplyRandomChanges adds tasks faster than it removes them, and a round
  // count that depends on who wins the race must not run the unscheduled
  // aggregator out of capacity.
  for (NodeId node : net.ValidNodes()) {
    if (net.Kind(node) == NodeKind::kUnscheduled) {
      for (ArcRef ref : net.Adjacency(node)) {
        if (!FlowNetwork::RefIsReverse(ref)) {
          net.SetArcCapacity(FlowNetwork::RefArc(ref), 100 * spec.num_tasks);
        }
      }
    }
  }
  net.EnableChangeRecording(true);
  Rng rng(5);
  int round = 0;
  auto solve_until_relaxation_wins = [&](RacingSolver* racing) {
    for (int tries = 0; tries < 256; ++tries, ++round) {
      ApplyRandomChanges(&net, &rng, 3);
      SolveStats stats = racing->Solve(&net);
      ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
      ExpectScratchCost(net, stats, round);
      EXPECT_EQ(racing->last_round().price_refine_us, 0u);
      if (racing->last_round().winner_algorithm == "relaxation") {
        return;
      }
    }
    FAIL() << "relaxation never won";
  };
  auto burst = [&](RacingSolver* racing) {
    ApplyRandomChanges(&net, &rng, 60);
    ASSERT_GT(net.Changes().size() * 10, net.NumNodes());
    SolveStats stats = racing->Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    EXPECT_EQ(racing->last_round().cost_scaling_start_us, 0u) << "round " << round;
    ExpectScratchCost(net, stats, round++);
  };
  {
    RacingSolver racing;
    for (int i = 0; i < 4; ++i) {
      solve_until_relaxation_wins(&racing);
      burst(&racing);
    }
    solve_until_relaxation_wins(&racing);
    racing.ResetState();
    burst(&racing);
    solve_until_relaxation_wins(&racing);
  }  // destroyed straight after a relaxation win
  CostScaling fresh;
  FlowNetwork copy = net;
  EXPECT_EQ(fresh.Solve(&copy).total_cost, net.TotalCost());
}

// A solve cancelled in its prologue must leave a pending potential import
// for the next solve: the race's staggered leg is cancelled this way on
// most rounds.
TEST(CostScalingTest, CancelledPrologueKeepsPendingImport) {
  SchedulingGraphSpec spec;
  spec.seed = 9;
  spec.num_tasks = 60;
  FlowNetwork base = MakeSchedulingGraph(spec);
  base.EnableChangeRecording(true);
  CostScalingOptions options;
  options.incremental = true;
  // Runs one warm round after importing all-zero potentials, optionally
  // preceded by a solve cancelled before it starts.
  auto second_round_iterations = [&](bool import, bool cancel_first) {
    FlowNetwork net = base;
    CostScaling solver(options);
    EXPECT_EQ(solver.Solve(&net).outcome, SolveOutcome::kOptimal);
    net.ClearChanges();
    Rng rng(4);
    ApplyRandomChanges(&net, &rng, 8);
    if (import) {
      solver.ImportPotentials({});  // every node at potential 0
    }
    if (cancel_first) {
      std::atomic<bool> cancel{true};
      EXPECT_EQ(solver.SolveView(net, &cancel).outcome, SolveOutcome::kCancelled);
    }
    SolveStats stats = solver.Solve(&net);
    EXPECT_EQ(stats.outcome, SolveOutcome::kOptimal);
    ExpectScratchCost(net, stats, 1);
    return stats.iterations;
  };
  const uint64_t imported = second_round_iterations(true, false);
  // The import must change the warm start, or this test proves nothing.
  ASSERT_NE(imported, second_round_iterations(false, false));
  EXPECT_EQ(second_round_iterations(true, true), imported);
}

// An import whose largest potential times the cost scale would overflow
// is dropped: the solve takes the cold path, doing exactly the work of a
// fresh solver on the same flow, and is still exact.
TEST(CostScalingTest, OversizedImportStartsCold) {
  SchedulingGraphSpec spec;
  spec.seed = 9;
  spec.num_tasks = 60;
  CostScalingOptions options;
  options.incremental = true;
  for (int64_t huge : {std::numeric_limits<int64_t>::max() / 3, -(int64_t{1} << 59) - 12345,
                       std::numeric_limits<int64_t>::min()}) {
    FlowNetwork net = MakeSchedulingGraph(spec);
    net.EnableChangeRecording(true);
    CostScaling solver(options);
    ASSERT_EQ(solver.Solve(&net).outcome, SolveOutcome::kOptimal);
    net.ClearChanges();
    // A few cost changes only: a freshly built view numbers nodes and arcs
    // as the patched one does, and the warm start would use the import.
    for (ArcId arc = 0; arc < net.ArcCapacityBound(); arc += 97) {
      if (net.IsValidArc(arc)) {
        net.SetArcCost(arc, (net.Cost(arc) + 13) % 100);
      }
    }
    CostScaling fresh(options);
    FlowNetwork fresh_net = net;
    const SolveStats cold = fresh.Solve(&fresh_net);
    std::vector<int64_t> oversized(net.NodeCapacity(), 1);
    oversized[net.ValidNodes().back()] = huge;
    solver.ImportPotentials(std::move(oversized));
    SolveStats stats = solver.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal);
    EXPECT_EQ(stats.iterations, cold.iterations) << "huge " << huge;
    ExpectScratchCost(net, stats, 1);
  }
}

// Approximate termination (§5.1): a tiny budget yields an approximate or
// still-correct outcome, never a crash or a silently wrong "optimal".
TEST(ApproximateSolveTest, TimeBudgetReturnsApproximateOutcome) {
  SchedulingGraphSpec spec;
  spec.num_tasks = 4000;
  spec.num_machines = 200;
  spec.slots_per_machine = 10;
  spec.seed = 3;
  FlowNetwork net = MakeSchedulingGraph(spec);
  CostScalingOptions options;
  options.time_budget_us = 1;  // expire immediately after the first phase
  CostScaling solver(options);
  SolveStats stats = solver.Solve(&net);
  EXPECT_TRUE(stats.outcome == SolveOutcome::kApproximate ||
              stats.outcome == SolveOutcome::kOptimal);
  if (stats.outcome == SolveOutcome::kApproximate) {
    // Phase boundaries leave a feasible flow (Table 2: cost scaling
    // maintains feasibility).
    EXPECT_TRUE(CheckFeasibility(net).feasible);
  }
}

}  // namespace
}  // namespace firmament
