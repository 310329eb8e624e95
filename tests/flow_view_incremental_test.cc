// Tests for the persistent, journal-patched FlowNetworkView (§5.2, §6.2):
// fuzzed equivalence between patched and freshly built views under random
// GraphChange sequences (including id-recycling add/remove churn), the
// rebuild-fallback threshold, the version/uid bookkeeping that guards
// against stale patches, and a four-solver cost cross-check running on
// patched views across churn rounds.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/flow/flow_network_view.h"
#include "src/flow/graph.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/cycle_canceling.h"
#include "src/solvers/racing_solver.h"
#include "src/solvers/relaxation.h"
#include "src/solvers/solution_checker.h"
#include "src/solvers/successive_shortest_path.h"
#include "tests/graph_generators.h"

namespace firmament {
namespace {

constexpr uint32_t kNoDense = FlowNetworkView::kInvalidDense;

// Asserts that the live (non-tombstoned) content of `view` is structurally
// identical to `net`: node and arc sets, attributes, flow, id mappings, and
// per-node residual adjacency. Tombstoned slots must be inert.
void ExpectViewMirrorsNetwork(const FlowNetworkView& view, const FlowNetwork& net) {
  ASSERT_EQ(view.num_live_nodes(), net.NumNodes());
  ASSERT_EQ(view.num_live_arcs(), net.NumArcs());

  // Node mapping is a bijection between live dense slots and valid ids.
  for (NodeId node : net.ValidNodes()) {
    uint32_t v = view.DenseNode(node);
    ASSERT_NE(v, kNoDense) << "node " << node << " missing from view";
    EXPECT_EQ(view.OrigNode(v), node);
    EXPECT_EQ(view.Supply(v), net.Supply(node));
  }
  for (uint32_t v = 0; v < view.num_nodes(); ++v) {
    if (view.IsLiveNode(v)) {
      ASSERT_TRUE(net.IsValidNode(view.OrigNode(v)));
      EXPECT_EQ(view.DenseNode(view.OrigNode(v)), v);
    } else {
      EXPECT_EQ(view.Supply(v), 0) << "tombstoned node " << v << " not inert";
    }
  }

  // Arc mapping, attributes, endpoints, and flow.
  for (ArcId arc = 0; arc < net.ArcCapacityBound(); ++arc) {
    if (!net.IsValidArc(arc)) {
      EXPECT_EQ(view.DenseArc(arc), kNoDense);
      continue;
    }
    uint32_t a = view.DenseArc(arc);
    ASSERT_NE(a, kNoDense) << "arc " << arc << " missing from view";
    EXPECT_EQ(view.OrigArc(a), arc);
    EXPECT_EQ(view.OrigNode(view.Src(a)), net.Src(arc));
    EXPECT_EQ(view.OrigNode(view.Dst(a)), net.Dst(arc));
    EXPECT_EQ(view.Capacity(a), net.Capacity(arc));
    EXPECT_EQ(view.Cost(a), net.Cost(arc));
    EXPECT_EQ(view.Flow(a), net.Flow(arc));
  }
  for (uint32_t a = 0; a < view.num_arcs(); ++a) {
    if (view.IsLiveArc(a)) {
      ASSERT_TRUE(net.IsValidArc(view.OrigArc(a)));
    } else {
      // Tombstones must be inert: zero residual in both directions, no cost.
      EXPECT_EQ(view.Capacity(a), 0);
      EXPECT_EQ(view.Flow(a), 0);
      EXPECT_EQ(view.Cost(a), 0);
    }
  }

  // Per-node adjacency: the live refs in the view's slice must equal the
  // network's adjacency as a multiset of original ArcRefs.
  for (NodeId node : net.ValidNodes()) {
    uint32_t v = view.DenseNode(node);
    std::multiset<ArcRef> expected(net.Adjacency(node).begin(), net.Adjacency(node).end());
    std::multiset<ArcRef> actual;
    for (const uint32_t* it = view.AdjBegin(v); it != view.AdjEnd(v); ++it) {
      if (view.IsLiveArc(FlowNetworkView::RefArc(*it))) {
        actual.insert(view.OrigRef(*it));
      }
    }
    EXPECT_EQ(actual, expected) << "adjacency mismatch at node " << node;
  }
}

// One random mutation against `net`, choosing among structural churn
// (add/remove node/arc — removals recycle ids through the free lists) and
// attribute updates. Nodes/arcs are picked uniformly from the live sets.
void RandomMutation(FlowNetwork* net, Rng* rng) {
  std::vector<NodeId> nodes(net->ValidNodes());
  std::vector<ArcId> arcs;
  for (ArcId arc = 0; arc < net->ArcCapacityBound(); ++arc) {
    if (net->IsValidArc(arc)) {
      arcs.push_back(arc);
    }
  }
  switch (rng->NextUint64(8)) {
    case 0:
      net->AddNode(rng->NextInt(-3, 3));
      break;
    case 1:
      if (nodes.size() > 2) {
        net->RemoveNode(nodes[rng->NextUint64(nodes.size())]);
      }
      break;
    case 2:
    case 3: {
      NodeId u = nodes[rng->NextUint64(nodes.size())];
      NodeId v = nodes[rng->NextUint64(nodes.size())];
      if (u != v) {
        net->AddArc(u, v, rng->NextInt(0, 10), rng->NextInt(-20, 20));
      }
      break;
    }
    case 4:
      if (!arcs.empty()) {
        net->RemoveArc(arcs[rng->NextUint64(arcs.size())]);
      }
      break;
    case 5:
      if (!arcs.empty()) {
        net->SetArcCost(arcs[rng->NextUint64(arcs.size())], rng->NextInt(-20, 20));
      }
      break;
    case 6:
      if (!arcs.empty()) {
        ArcId arc = arcs[rng->NextUint64(arcs.size())];
        net->SetArcCapacity(arc, rng->NextInt(0, 10));
        if (net->Flow(arc) > net->Capacity(arc)) {
          net->SetFlow(arc, net->Capacity(arc));
        }
      }
      break;
    default:
      net->SetNodeSupply(nodes[rng->NextUint64(nodes.size())], rng->NextInt(-3, 3));
      break;
  }
}

class FuzzEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// The tentpole property: after arbitrary recorded change sequences, the
// patched persistent view is structurally identical to a freshly built one.
// Both the patch path and the churn-triggered rebuild fallback must be
// exercised and indistinguishable to observers.
TEST_P(FuzzEquivalenceTest, PatchedViewMatchesFreshlyBuiltView) {
  Rng rng(GetParam() * 7919 + 1);
  FlowNetwork net;
  net.EnableChangeRecording(true);
  for (int i = 0; i < 20; ++i) {
    net.AddNode(rng.NextInt(-2, 2));
  }
  std::vector<NodeId> initial(net.ValidNodes());
  for (int i = 0; i < 60; ++i) {
    NodeId u = initial[rng.NextUint64(initial.size())];
    NodeId v = initial[rng.NextUint64(initial.size())];
    if (u != v) {
      net.AddArc(u, v, rng.NextInt(0, 10), rng.NextInt(-20, 20));
    }
  }

  FlowNetworkView view(net);
  bool saw_patch = false;
  bool saw_rebuild = false;
  for (int round = 0; round < 40; ++round) {
    // Mostly small deltas (the §6.2 contract); periodically a burst that
    // must trip the rebuild fallback.
    int ops = round % 8 == 7 ? 150 : static_cast<int>(rng.NextUint64(10)) + 1;
    for (int i = 0; i < ops; ++i) {
      RandomMutation(&net, &rng);
    }
    // Simulate solver writebacks mutating flow outside the journal.
    for (ArcId arc = 0; arc < net.ArcCapacityBound(); ++arc) {
      if (net.IsValidArc(arc) && net.Capacity(arc) > 0 && rng.NextDouble() < 0.2) {
        net.SetFlow(arc, rng.NextInt(0, net.Capacity(arc)));
      }
    }

    FlowNetworkView::PrepareResult result = view.Prepare(net);
    saw_patch |= result == FlowNetworkView::PrepareResult::kPatched;
    saw_rebuild |= result == FlowNetworkView::PrepareResult::kRebuilt;
    view.SyncFlowFrom(net);
    ExpectViewMirrorsNetwork(view, net);

    // A fresh view must agree too (sanity for the oracle itself).
    FlowNetworkView fresh(net);
    ExpectViewMirrorsNetwork(fresh, net);

    // Half the rounds clear the journal (the racing solver's contract);
    // the other half leave it growing so the suffix-offset path is hit.
    if (rng.NextDouble() < 0.5) {
      net.ClearChanges();
    }
  }
  EXPECT_TRUE(saw_patch);
  EXPECT_TRUE(saw_rebuild);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest, ::testing::Range<uint64_t>(0, 10));

// Gentle churn on a scheduling graph: removes `task_churn` tasks (recycling
// their ids), adds as many replacements, and perturbs some costs — small
// enough that persistent views stay on the patch path for several rounds
// (cumulative tombstones eventually trip the rebuild fallback by design).
void SmallSchedulingChurn(FlowNetwork* net, Rng* rng, int task_churn = 1) {
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
  for (int i = 0; i < task_churn && tasks.size() > 4; ++i) {
    size_t idx = rng->NextUint64(tasks.size());
    net->RemoveNode(tasks[idx]);
    net->SetNodeSupply(sink, net->Supply(sink) + 1);
    tasks[idx] = tasks.back();
    tasks.pop_back();
  }
  for (int i = 0; i < task_churn; ++i) {
    NodeId task = net->AddNode(1, NodeKind::kTask);
    net->AddArc(task, unsched, 1, 40 + static_cast<int64_t>(rng->NextInt(0, 40)));
    net->AddArc(task, machines[rng->NextUint64(machines.size())], 1, rng->NextInt(0, 20));
    net->SetNodeSupply(sink, net->Supply(sink) - 1);
  }
  for (NodeId task : tasks) {
    if (rng->NextDouble() < 0.3) {
      for (ArcRef ref : net->Adjacency(task)) {
        if (!FlowNetwork::RefIsReverse(ref)) {
          net->SetArcCost(FlowNetwork::RefArc(ref),
                          net->Cost(FlowNetwork::RefArc(ref)) + rng->NextInt(-3, 3));
          break;
        }
      }
    }
  }
}

// Four-solver cost cross-check on patched views: every solver keeps its
// persistent view across recorded churn rounds (the journal is never
// cleared, so each view consumes its own suffix), and all four must agree
// with each other and with the optimality checker every round.
TEST(FlowViewIncrementalTest, FourSolverCostCrossCheckOnPatchedViews) {
  SchedulingGraphSpec spec;
  spec.seed = 1234;
  spec.num_tasks = 200;  // big enough that one task of churn is a <1% delta
  spec.num_machines = 30;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  Rng rng(99);

  CycleCanceling cycle_canceling;
  SuccessiveShortestPath ssp;
  CostScalingOptions cs_options;
  cs_options.incremental = true;
  CostScaling cost_scaling(cs_options);
  Relaxation relaxation;
  McmfSolver* solvers[] = {&cycle_canceling, &ssp, &cost_scaling, &relaxation};

  for (int round = 0; round < 8; ++round) {
    int64_t expected_cost = 0;
    bool first = true;
    for (McmfSolver* solver : solvers) {
      SolveStats stats = solver->Solve(&net);
      ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal)
          << solver->name() << " round " << round;
      if (round > 0) {
        // Persistent: never built from scratch again. Early rounds must
        // ride the patch path; later ones may legitimately hit the
        // cumulative-churn rebuild fallback.
        EXPECT_NE(stats.view_prep, FlowNetworkView::PrepareResult::kBuilt)
            << solver->name() << " round " << round;
      }
      if (round >= 1 && round <= 3) {
        EXPECT_EQ(stats.view_prep, FlowNetworkView::PrepareResult::kPatched)
            << solver->name() << " fell off the patch path in round " << round;
      }
      CheckResult check = CheckOptimality(net);
      EXPECT_TRUE(check.ok()) << solver->name() << " round " << round << ": " << check.message;
      if (first) {
        expected_cost = stats.total_cost;
        first = false;
      } else {
        EXPECT_EQ(stats.total_cost, expected_cost) << solver->name() << " round " << round;
      }
    }
    SmallSchedulingChurn(&net, &rng);
  }
}

// Regression for the racing-solver mirror bug: per-round mirror copies used
// to inherit the canonical network's journal and recording flag. Mirrors
// are gone — both algorithms race on persistent views of the one network —
// so across race rounds the canonical journal must be consumed exactly
// once per round and both views must stay on the patch path.
TEST(FlowViewIncrementalTest, RaceRoundsConsumeJournalOnceAndPatchViews) {
  SchedulingGraphSpec spec;
  spec.seed = 42;
  spec.num_tasks = 200;  // big enough that one task of churn is a <1% delta
  spec.num_machines = 30;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  Rng rng(7);

  RacingSolver racing;  // kRace
  for (int round = 0; round < 6; ++round) {
    SolveStats stats = racing.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    EXPECT_TRUE(net.Changes().empty()) << "journal not consumed in round " << round;
    if (round >= 1 && round <= 3) {
      EXPECT_EQ(racing.last_round().relaxation.view_prep,
                FlowNetworkView::PrepareResult::kPatched)
          << "round " << round;
      EXPECT_EQ(racing.last_round().cost_scaling.view_prep,
                FlowNetworkView::PrepareResult::kPatched)
          << "round " << round;
    }
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << "round " << round << ": " << check.message;

    FlowNetwork scratch_net = net;
    CostScaling scratch;
    SolveStats scratch_stats = scratch.Solve(&scratch_net);
    EXPECT_EQ(stats.total_cost, scratch_stats.total_cost) << "round " << round;

    SmallSchedulingChurn(&net, &rng);
  }
}

// A copy of a network carries the same journal contents but is a different
// object that diverges independently; a solver whose view is synced to the
// original must rebuild (fresh uid), never patch, when handed the copy.
TEST(FlowViewIncrementalTest, CopiedNetworkForcesRebuildNotStalePatch) {
  SchedulingGraphSpec spec;
  spec.seed = 5;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);

  CostScalingOptions options;
  options.incremental = true;
  CostScaling solver(options);
  ASSERT_EQ(solver.Solve(&net).outcome, SolveOutcome::kOptimal);

  FlowNetwork copy = net;
  // Diverge the copy in a way a stale patch would miss.
  for (ArcId arc = 0; arc < copy.ArcCapacityBound(); ++arc) {
    if (copy.IsValidArc(arc)) {
      copy.SetArcCost(arc, copy.Cost(arc) + 11);
    }
  }
  SolveStats stats = solver.Solve(&copy);
  EXPECT_EQ(stats.view_prep, FlowNetworkView::PrepareResult::kRebuilt);
  ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal);

  FlowNetwork scratch_net = copy;
  CostScaling scratch;
  EXPECT_EQ(stats.total_cost, scratch.Solve(&scratch_net).total_cost);
}

// Cost scaling on random transport graphs with a huge cost spread, where
// the scaling ladder runs many more phases than on the shallow scheduling
// graphs. Every solve must pass the optimality checker and match successive
// shortest path's cost.
class HighCostSpreadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HighCostSpreadTest, CostScalingMatchesSuccessiveShortestPath) {
  const uint64_t seed = GetParam();
  for (int trial = 0; trial < 40; ++trial) {
    TransportGraphSpec spec;
    spec.seed = seed * 1000 + static_cast<uint64_t>(trial);
    spec.num_nodes = 20 + static_cast<int>(spec.seed % 60);
    spec.num_arcs = (2 + static_cast<int>(spec.seed % 5)) * spec.num_nodes;
    spec.num_sources = 3 + static_cast<int>(spec.seed % 8);
    spec.max_cost = 10'000'000;
    FlowNetwork net = MakeTransportGraph(spec);

    CostScaling cost_scaling;
    SolveStats stats = cost_scaling.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "trial " << trial;
    CheckResult check = CheckOptimality(net);
    ASSERT_TRUE(check.ok()) << "trial " << trial << ": " << check.message;

    FlowNetwork ssp_net = MakeTransportGraph(spec);
    SuccessiveShortestPath ssp;
    EXPECT_EQ(stats.total_cost, ssp.Solve(&ssp_net).total_cost) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HighCostSpreadTest, ::testing::Range<uint64_t>(0, 6));

// Warm starts across cost drops: between rounds the churn below drops the
// cost of empty, expensive task arcs to near zero, making them the new
// optimal routes. Incremental cost scaling warm-starts from the previous
// round's flow and potentials, in which those arcs looked hopeless; its
// patched view and measured starting ε must still find the cheap routes,
// so its cost must match three reference solvers' every round.
TEST(FlowViewIncrementalTest, WarmStartFollowsCostDropsOnEmptyArcs) {
  SchedulingGraphSpec spec;
  spec.seed = 4242;
  spec.num_tasks = 150;
  spec.num_machines = 25;
  spec.max_cost = 20'000;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  Rng rng(5);

  CostScalingOptions cs_options;
  cs_options.incremental = true;
  CostScaling cost_scaling(cs_options);
  CycleCanceling cycle_canceling;
  SuccessiveShortestPath ssp;
  Relaxation relaxation;
  McmfSolver* references[] = {&cycle_canceling, &ssp, &relaxation};

  for (int round = 0; round < 10; ++round) {
    SolveStats stats = cost_scaling.Solve(&net);
    ASSERT_EQ(stats.outcome, SolveOutcome::kOptimal) << "round " << round;
    if (round > 0) {
      EXPECT_EQ(stats.view_prep, FlowNetworkView::PrepareResult::kPatched)
          << "cost-delta churn must stay on the patch path, round " << round;
    }
    CheckResult check = CheckOptimality(net);
    EXPECT_TRUE(check.ok()) << "round " << round << ": " << check.message;
    for (McmfSolver* solver : references) {
      // Cross-check on a copy so the canonical journal keeps feeding the
      // incremental solver's patch path.
      FlowNetwork copy = net;
      SolveStats other = solver->Solve(&copy);
      ASSERT_EQ(other.outcome, SolveOutcome::kOptimal)
          << solver->name() << " round " << round;
      EXPECT_EQ(other.total_cost, stats.total_cost) << solver->name() << " round " << round;
    }

    // Cost/capacity churn between rounds, recorded in the journal. Dropping
    // empty expensive task arcs to ~free is the adversarial case: the
    // retained potentials price them far from admissible.
    std::vector<ArcId> arcs;
    for (NodeId node : net.ValidNodes()) {
      for (ArcRef ref : net.Adjacency(node)) {
        if (!FlowNetwork::RefIsReverse(ref)) {
          arcs.push_back(FlowNetwork::RefArc(ref));
        }
      }
    }
    int dropped = 0;
    for (int attempt = 0; attempt < 400 && dropped < 6; ++attempt) {
      ArcId arc = arcs[rng.NextUint64(arcs.size())];
      if (net.Flow(arc) == 0 && net.Cost(arc) > spec.max_cost / 2 &&
          net.Kind(net.Src(arc)) == NodeKind::kTask) {
        net.SetArcCost(arc, rng.NextInt(0, 5));
        ++dropped;
      }
    }
    EXPECT_GT(dropped, 0) << "round " << round;
    for (int i = 0; i < 4; ++i) {
      ArcId arc = arcs[rng.NextUint64(arcs.size())];
      net.SetArcCost(arc, rng.NextInt(0, spec.max_cost));
    }
    for (int i = 0; i < 2; ++i) {
      ArcId arc = arcs[rng.NextUint64(arcs.size())];
      if (net.Kind(net.Src(arc)) == NodeKind::kMachine) {
        net.SetArcCapacity(arc,
                           std::max<int64_t>(net.Flow(arc), net.Capacity(arc) +
                                                                rng.NextInt(-1, 1)));
      }
    }
  }
}

// Mutating a network while recording is disabled must invalidate the patch
// path (version bookkeeping detects the incomplete journal) instead of
// silently producing a stale view.
TEST(FlowViewIncrementalTest, UnrecordedMutationsForceRebuild) {
  SchedulingGraphSpec spec;
  spec.seed = 9;
  FlowNetwork net = MakeSchedulingGraph(spec);
  net.EnableChangeRecording(true);
  FlowNetworkView view(net);
  ASSERT_EQ(view.Prepare(net), FlowNetworkView::PrepareResult::kPatched);

  net.EnableChangeRecording(false);
  std::vector<NodeId> nodes(net.ValidNodes());
  net.AddArc(nodes[0], nodes[1], 3, -5);

  EXPECT_EQ(view.Prepare(net), FlowNetworkView::PrepareResult::kRebuilt);
  ExpectViewMirrorsNetwork(view, net);
}

}  // namespace
}  // namespace firmament
