// Delta-vs-full equivalence for the change-driven policy API (v2).
//
// The delta-driven FlowGraphManager must produce a flow network arc-for-arc
// identical to a from-scratch full refresh after any sequence of cluster
// events, under every policy. These tests fuzz rounds of task submit /
// complete / evict and machine churn, canonicalize both graphs (nodes
// labelled by their cluster entity, arcs by (src, dst, capacity, cost)),
// and diff them; they also exercise the machine-removal and rack-
// aggregator-drain paths against ValidateIntegrity, the incremental
// ClusterState statistics, and the declarative unscheduled-cost ramps.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/cluster.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/integrity_checker.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/network_aware_policy.h"
#include "src/core/placement_extractor.h"
#include "src/core/quincy_policy.h"
#include "src/core/scheduler.h"
#include "src/sim/block_store.h"
#include "src/solvers/cost_scaling.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

enum class Policy { kLoadSpreading, kQuincy, kQuincyWithLocality, kNetworkAware };

const char* PolicyName(Policy kind) {
  switch (kind) {
    case Policy::kLoadSpreading:
      return "load_spreading";
    case Policy::kQuincy:
      return "quincy";
    case Policy::kQuincyWithLocality:
      return "quincy+locality";
    case Policy::kNetworkAware:
      return "network_aware";
  }
  return "?";
}

std::unique_ptr<SchedulingPolicy> MakePolicy(Policy kind, const ClusterState* cluster,
                                             const BlockStore* store) {
  switch (kind) {
    case Policy::kLoadSpreading:
      return std::make_unique<LoadSpreadingPolicy>(cluster);
    case Policy::kQuincy:
      return std::make_unique<QuincyPolicy>(cluster, nullptr);
    case Policy::kQuincyWithLocality:
      return std::make_unique<QuincyPolicy>(cluster, store);
    case Policy::kNetworkAware:
      return std::make_unique<NetworkAwarePolicy>(cluster);
  }
  return nullptr;
}

// Labels a node by the cluster entity it mirrors, so graphs from different
// managers (different node ids) compare structurally.
std::string NodeLabel(const FlowGraphManager& manager, NodeId node) {
  const FlowNetwork& net = manager.network();
  switch (net.Kind(node)) {
    case NodeKind::kSink:
      return "sink";
    case NodeKind::kTask:
      return "t:" + std::to_string(manager.TaskForNode(node));
    case NodeKind::kMachine:
      return "m:" + std::to_string(manager.MachineForNode(node));
    case NodeKind::kAggregator:
      return "agg:" + manager.AggregatorKeyForNode(node);
    case NodeKind::kUnscheduled:
      return "u:" + std::to_string(manager.JobForUnscheduledNode(node));
    case NodeKind::kGeneric:
      break;
  }
  return "g:" + std::to_string(node);
}

// Sorted multiset of labelled (src, dst, capacity, cost) arcs plus labelled
// (node, supply) entries — the canonical form both managers must agree on.
// Flow is deliberately excluded: it belongs to the solver, not the update.
std::vector<std::string> CanonicalGraph(const FlowGraphManager& manager) {
  const FlowNetwork& net = manager.network();
  std::vector<std::string> canon;
  for (NodeId node : net.ValidNodes()) {
    canon.push_back("node " + NodeLabel(manager, node) +
                    " supply=" + std::to_string(net.Supply(node)));
    for (ArcRef ref : net.Adjacency(node)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      canon.push_back("arc " + NodeLabel(manager, net.Src(arc)) + " -> " +
                      NodeLabel(manager, net.Dst(arc)) +
                      " cap=" + std::to_string(net.Capacity(arc)) +
                      " cost=" + std::to_string(net.Cost(arc)));
    }
  }
  std::sort(canon.begin(), canon.end());
  return canon;
}

// Builds a from-scratch reference graph over the same cluster state with a
// fresh policy instance and diffs it against the delta-maintained graph.
void ExpectDeltaMatchesFullRefresh(Policy kind, ClusterState& cluster, const BlockStore* store,
                                   FlowGraphManager& delta_manager, SimTime now,
                                   const std::string& context) {
  std::unique_ptr<SchedulingPolicy> ref_policy = MakePolicy(kind, &cluster, store);
  FlowGraphManager reference(&cluster, ref_policy.get());
  for (const MachineDescriptor& machine : cluster.machines()) {
    if (machine.alive) {
      reference.AddMachine(machine.id);
    }
  }
  for (TaskId task : cluster.LiveTasks()) {
    reference.AddTask(task, now);
  }
  // kFull recomputes everything and leaves the shared cluster's dirty sets
  // untouched, so the primary manager's change signals survive.
  reference.UpdateRound(now, RefreshMode::kFull);
  reference.ValidateIntegrity();

  std::vector<std::string> got = CanonicalGraph(delta_manager);
  std::vector<std::string> want = CanonicalGraph(reference);
  if (got == want) {
    return;
  }
  std::vector<std::string> only_delta;
  std::vector<std::string> only_full;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(only_delta));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(only_full));
  std::string message = context + " [" + PolicyName(kind) + "]\n  only in delta graph:\n";
  for (const std::string& line : only_delta) {
    message += "    " + line + "\n";
  }
  message += "  only in full-refresh graph:\n";
  for (const std::string& line : only_full) {
    message += "    " + line + "\n";
  }
  FAIL() << message;
}

// Delta-vs-full fuzz driver: random workload + machine churn, with the
// delta graph checked against a full rebuild every round. A pool of shared
// input profiles makes a fraction of submissions *identical bursts* — same
// blocks, same size, same bandwidth bucket across jobs and rounds — the
// shape the cross-round equivalence-class cache serves without
// recomputation and therefore the one where a stale entry would diverge
// from the full-refresh reference.
void FuzzDeltaEquivalence(Policy kind, uint64_t seed, int rounds) {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  if (kind == Policy::kQuincyWithLocality) {
    store = std::make_unique<BlockStore>(&cluster, seed + 1);
  }
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(kind, &cluster, store.get());
  FirmamentScheduler scheduler(&cluster, policy.get());
  Rng rng(seed);

  std::vector<RackId> racks;
  for (int r = 0; r < 3; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 4; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 3});
    }
  }

  struct SharedProfile {
    int64_t bytes = 0;
    std::vector<uint64_t> blocks;
    int64_t bandwidth_mbps = 0;
  };
  std::vector<SharedProfile> shared_profiles;

  SimTime now = 0;
  for (int round = 0; round < rounds; ++round) {
    now += static_cast<SimTime>(rng.NextInt(300, 1'700)) * 1'000;  // 0.3-1.7 s

    // Workload churn: submissions (mixed priorities, inputs, bandwidth).
    if (rng.NextBool(0.7)) {
      int job_size = static_cast<int>(rng.NextInt(1, 5));
      std::vector<TaskDescriptor> tasks(static_cast<size_t>(job_size));
      if (rng.NextBool(0.4)) {
        // Identical burst from the shared pool (created lazily).
        if (shared_profiles.size() < 3 || rng.NextBool(0.2)) {
          SharedProfile profile;
          profile.bandwidth_mbps = rng.NextInt(50, 500);
          if (store != nullptr) {
            profile.bytes = rng.NextInt(200'000'000, 2'000'000'000);
            profile.blocks = store->AllocateInput(profile.bytes);
          }
          shared_profiles.push_back(std::move(profile));
        }
        const SharedProfile& profile =
            shared_profiles[rng.NextUint64(shared_profiles.size())];
        for (TaskDescriptor& task : tasks) {
          task.runtime = static_cast<SimTime>(rng.NextInt(5, 50)) * kSec;
          task.bandwidth_request_mbps = profile.bandwidth_mbps;
          task.input_size_bytes = profile.bytes;
          task.input_blocks = profile.blocks;
        }
      } else {
        for (TaskDescriptor& task : tasks) {
          task.runtime = static_cast<SimTime>(rng.NextInt(5, 50)) * kSec;
          task.bandwidth_request_mbps = rng.NextInt(50, 500);
          if (store != nullptr && rng.NextBool(0.8)) {
            task.input_size_bytes = rng.NextInt(200'000'000, 2'000'000'000);
            task.input_blocks = store->AllocateInput(task.input_size_bytes);
          }
        }
      }
      JobType type = rng.NextBool(0.2) ? JobType::kService : JobType::kBatch;
      scheduler.SubmitJob(type, static_cast<int32_t>(rng.NextInt(0, 2)), std::move(tasks), now);
    }
    // Completions.
    std::vector<TaskId> running;
    for (TaskId task : cluster.LiveTasks()) {
      if (cluster.task(task).state == TaskState::kRunning) {
        running.push_back(task);
      }
    }
    int completions = static_cast<int>(rng.NextInt(0, 2));
    for (int i = 0; i < completions && !running.empty(); ++i) {
      size_t pick = rng.NextUint64(running.size());
      scheduler.CompleteTask(running[pick], now);
      running[pick] = running.back();
      running.pop_back();
    }
    // Machine churn: failures (evict + remove, possibly draining a rack)
    // and arrivals.
    if (rng.NextBool(0.12) && cluster.num_machines() > 2) {
      std::vector<MachineId> alive;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          alive.push_back(machine.id);
        }
      }
      MachineId victim = alive[rng.NextUint64(alive.size())];
      scheduler.RemoveMachine(victim, now);
      if (store != nullptr) {
        store->OnMachineRemoved(victim);
      }
    }
    if (rng.NextBool(0.1)) {
      RackId rack = racks[rng.NextUint64(racks.size())];
      scheduler.AddMachine(rack, MachineSpec{.slots = static_cast<int32_t>(rng.NextInt(2, 4))});
    }
    // Out-of-band monitoring change (background traffic): must reach the
    // graph through the mutable_machine dirty mark.
    if (kind == Policy::kNetworkAware && rng.NextBool(0.3)) {
      std::vector<MachineId> alive;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          alive.push_back(machine.id);
        }
      }
      MachineId target = alive[rng.NextUint64(alive.size())];
      cluster.mutable_machine(target).background_bandwidth_mbps = rng.NextInt(0, 8'000);
    }
    // Out-of-band spec edit (slot resize): aggregator capacities are built
    // from spec.slots under every policy, so this too must propagate
    // through the dirty mark. Never shrink below the machine's current
    // load so the cluster stays feasible.
    if (rng.NextBool(0.1)) {
      std::vector<MachineId> alive;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          alive.push_back(machine.id);
        }
      }
      MachineId target = alive[rng.NextUint64(alive.size())];
      int32_t floor_slots = cluster.machine(target).running_tasks;
      cluster.mutable_machine(target).spec.slots =
          std::max<int32_t>(floor_slots, static_cast<int32_t>(rng.NextInt(2, 6)));
    }

    // The delta pass under test; the scheduler's own UpdateRound below then
    // finds nothing further to change.
    scheduler.graph_manager().UpdateRound(now);
    scheduler.graph_manager().ValidateIntegrity();
    ExpectDeltaMatchesFullRefresh(kind, cluster, store.get(), scheduler.graph_manager(), now,
                                  "round " + std::to_string(round));
    if (::testing::Test::HasFailure()) {
      return;  // one diff is enough; later rounds would cascade
    }

    SchedulerRoundResult result = scheduler.RunSchedulingRound(now);
    ASSERT_NE(result.outcome, SolveOutcome::kCancelled);
  }
}

// Failure-storm fuzz (robustness): one round into the scenario a
// rack-correlated storm removes ~30% of the alive machines in a single
// burst. Every round — before, during, and after the storm — the
// delta-maintained graph must match a from-scratch rebuild, and the
// cross-layer IntegrityChecker must report clean (or recover back to clean).
void DriveFailureStorm(Policy kind, uint64_t seed) {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  if (kind == Policy::kQuincyWithLocality) {
    store = std::make_unique<BlockStore>(&cluster, seed + 1);
  }
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(kind, &cluster, store.get());
  FirmamentScheduler scheduler(&cluster, policy.get());
  IntegrityChecker checker(&cluster, &scheduler.graph_manager());
  Rng rng(seed);

  std::vector<RackId> racks;
  for (int r = 0; r < 5; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 6; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 3});
    }
  }

  constexpr int kRounds = 10;
  constexpr int kStormRound = 4;
  SimTime now = 0;
  for (int round = 0; round < kRounds; ++round) {
    now += static_cast<SimTime>(rng.NextInt(300, 1'700)) * 1'000;
    if (rng.NextBool(0.8)) {
      std::vector<TaskDescriptor> tasks(static_cast<size_t>(rng.NextInt(1, 4)));
      for (TaskDescriptor& task : tasks) {
        task.runtime = static_cast<SimTime>(rng.NextInt(5, 50)) * kSec;
        task.bandwidth_request_mbps = rng.NextInt(50, 500);
        if (store != nullptr && rng.NextBool(0.8)) {
          task.input_size_bytes = rng.NextInt(200'000'000, 2'000'000'000);
          task.input_blocks = store->AllocateInput(task.input_size_bytes);
        }
      }
      scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    }
    if (round == kStormRound) {
      // The storm: whole racks go down together until ~30% of the alive
      // machines are gone.
      size_t quota = 0;
      for (const MachineDescriptor& machine : cluster.machines()) {
        if (machine.alive) {
          ++quota;
        }
      }
      quota = quota * 3 / 10;
      while (quota > 0) {
        std::vector<MachineId> alive;
        for (const MachineDescriptor& machine : cluster.machines()) {
          if (machine.alive) {
            alive.push_back(machine.id);
          }
        }
        MachineId epicenter = alive[rng.NextUint64(alive.size())];
        for (MachineId peer : cluster.MachinesInRack(cluster.RackOf(epicenter))) {
          if (quota == 0) {
            break;
          }
          if (!cluster.machine(peer).alive) {
            continue;
          }
          scheduler.RemoveMachine(peer, now);
          if (store != nullptr) {
            store->OnMachineRemoved(peer);
          }
          --quota;
        }
      }
    }
    scheduler.graph_manager().UpdateRound(now);
    // Clean-or-recovers: normal operation must check clean; should a
    // violation ever surface, recovery must restore a clean report.
    IntegrityReport report = checker.Check();
    if (!report.clean()) {
      checker.Recover(now);
      scheduler.solver().ResetState();
      IntegrityReport recheck = checker.Check();
      ASSERT_TRUE(recheck.clean())
          << PolicyName(kind) << " seed " << seed << " round " << round
          << ": still dirty after recovery (" << recheck.violations.size() << " violations)";
    }
    ExpectDeltaMatchesFullRefresh(kind, cluster, store.get(), scheduler.graph_manager(), now,
                                  "storm round " + std::to_string(round));
    if (::testing::Test::HasFailure()) {
      return;
    }
    SchedulerRoundResult result = scheduler.RunSchedulingRound(now);
    ASSERT_NE(result.outcome, SolveOutcome::kCancelled);
  }
}

void FuzzFailureStorms(Policy kind) {
  for (uint64_t seed : {601u, 602u, 603u}) {
    DriveFailureStorm(kind, seed);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(FailureStormFuzz, LoadSpreadingSerial) { FuzzFailureStorms(Policy::kLoadSpreading); }
TEST(FailureStormFuzz, QuincySerial) { FuzzFailureStorms(Policy::kQuincy); }
TEST(FailureStormFuzz, QuincyWithLocalitySerial) {
  FuzzFailureStorms(Policy::kQuincyWithLocality);
}
TEST(FailureStormFuzz, NetworkAwareSerial) { FuzzFailureStorms(Policy::kNetworkAware); }

// After detect-and-rebuild recovery, the rebuilt graph must be
// byte-identical to one constructed from scratch off the same cluster state
// (acceptance criterion: post-recovery rounds match a from-scratch manager).
TEST(PolicyDeltaTest, RecoveryRebuildMatchesFromScratch) {
  ClusterState cluster;
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(Policy::kQuincy, &cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, policy.get());
  IntegrityChecker checker(&cluster, &scheduler.graph_manager());
  RackId rack = cluster.AddRack();
  for (int m = 0; m < 4; ++m) {
    scheduler.AddMachine(rack, MachineSpec{.slots = 3});
  }
  scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(7, TaskDescriptor{}), 0);
  SchedulerRoundResult first = scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(first.outcome, SolveOutcome::kOptimal);
  ASSERT_TRUE(checker.Check().clean());

  // Corrupt the solved flow behind the manager's back.
  FlowNetwork* net = scheduler.graph_manager().network();
  ArcId corrupt = kInvalidArcId;
  for (ArcId arc = 0; arc < net->ArcCapacityBound(); ++arc) {
    if (net->IsValidArc(arc)) {
      corrupt = arc;
      break;
    }
  }
  ASSERT_NE(corrupt, kInvalidArcId);
  net->SetFlow(corrupt, net->Capacity(corrupt) + 3);
  ASSERT_FALSE(checker.Check().clean());

  std::vector<RecoveryAction> actions = checker.Recover(kSec);
  scheduler.solver().ResetState();
  ASSERT_FALSE(actions.empty());
  ASSERT_TRUE(checker.Check().clean());

  // The rebuilt graph equals a from-scratch build of the same cluster.
  ExpectDeltaMatchesFullRefresh(Policy::kQuincy, cluster, nullptr, scheduler.graph_manager(),
                                kSec, "post-recovery");

  // And scheduling continues normally on it.
  SchedulerRoundResult next = scheduler.RunSchedulingRound(2 * kSec);
  EXPECT_NE(next.outcome, SolveOutcome::kCancelled);
  EXPECT_GT(scheduler.graph_manager().ValidateIntegrity(), 0u);
}

TEST(PolicyDeltaEquivalence, LoadSpreadingFuzz) {
  FuzzDeltaEquivalence(Policy::kLoadSpreading, 101, 40);
}

TEST(PolicyDeltaEquivalence, QuincyFuzz) { FuzzDeltaEquivalence(Policy::kQuincy, 202, 40); }

TEST(PolicyDeltaEquivalence, QuincyWithLocalityFuzz) {
  FuzzDeltaEquivalence(Policy::kQuincyWithLocality, 303, 35);
}

TEST(PolicyDeltaEquivalence, NetworkAwareFuzz) {
  FuzzDeltaEquivalence(Policy::kNetworkAware, 404, 40);
}

// ---------------------------------------------------------------------------
// Targeted structural paths
// ---------------------------------------------------------------------------

TEST(PolicyDeltaTest, RackAggregatorDrainsWithLastMachine) {
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId r0 = cluster.AddRack();
  RackId r1 = cluster.AddRack();
  std::vector<MachineId> rack1;
  scheduler.AddMachine(r0, {.slots = 2});
  scheduler.AddMachine(r0, {.slots = 2});
  rack1.push_back(scheduler.AddMachine(r1, {.slots = 2}));
  rack1.push_back(scheduler.AddMachine(r1, {.slots = 2}));
  scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(6), 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_TRUE(scheduler.graph_manager().HasAggregator("rack:1"));

  // Drain rack 1 machine by machine; the aggregator must disappear with the
  // last one and the graph must stay consistent and schedulable.
  scheduler.RemoveMachine(rack1[0], 2 * kSec);
  EXPECT_TRUE(scheduler.graph_manager().HasAggregator("rack:1"));
  scheduler.graph_manager().ValidateIntegrity();
  scheduler.RemoveMachine(rack1[1], 2 * kSec);
  EXPECT_FALSE(scheduler.graph_manager().HasAggregator("rack:1"));
  scheduler.graph_manager().ValidateIntegrity();

  SchedulerRoundResult result = scheduler.RunSchedulingRound(3 * kSec);
  scheduler.graph_manager().ValidateIntegrity();
  EXPECT_EQ(cluster.UsedSlots(), 4);  // everything rescheduled onto rack 0
  // Fold the round's placements back into the graph, then the delta graph
  // must still match a from-scratch rebuild.
  scheduler.graph_manager().UpdateRound(4 * kSec);
  ExpectDeltaMatchesFullRefresh(Policy::kQuincy, cluster, nullptr, scheduler.graph_manager(),
                                4 * kSec, "after rack drain");
  (void)result;
}

TEST(PolicyDeltaTest, RequestAggregatorDrainsWithLastTask) {
  ClusterState cluster;
  NetworkAwarePolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  scheduler.AddMachine(rack, {.slots = 4});
  TaskDescriptor task;
  task.bandwidth_request_mbps = 175;  // bucket 200
  scheduler.SubmitJob(JobType::kBatch, 0, {task}, 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_TRUE(scheduler.graph_manager().HasAggregator("ra:200"));
  TaskId id = cluster.job(0).tasks[0];
  scheduler.CompleteTask(id, 2 * kSec);
  scheduler.RunSchedulingRound(3 * kSec);
  EXPECT_FALSE(scheduler.graph_manager().HasAggregator("ra:200"));
  scheduler.graph_manager().ValidateIntegrity();
}

// ---------------------------------------------------------------------------
// Cross-round class cache + block -> task reverse index
// ---------------------------------------------------------------------------

// A Quincy machine removal must dirty only the tasks whose preference arcs
// touch the removed machine's blocks (block -> task reverse index), not the
// whole task set — and the resulting delta graph must still match a
// from-scratch full refresh.
TEST(PolicyDeltaTest, QuincyMachineRemovalDirtiesOnlyAffectedTasks) {
  ClusterState cluster;
  BlockStore store(&cluster, 7);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  std::vector<RackId> racks;
  for (int r = 0; r < 4; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 6; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 4});
    }
  }
  Rng rng(13);
  SimTime now = 0;
  for (int j = 0; j < 20; ++j) {
    std::vector<TaskDescriptor> tasks(3);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = rng.NextInt(400'000'000, 900'000'000);
      task.input_blocks = store.AllocateInput(task.input_size_bytes);
    }
    scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
  }
  scheduler.RunSchedulingRound(now += kSec);
  scheduler.RunSchedulingRound(now += kSec);  // settle placements
  // Drain the settle round's own placement dirt so the removal's marks are
  // the only thing the measured round refreshes.
  scheduler.graph_manager().UpdateRound(now += kSec);

  // Expected affected set: live tasks reading a block replicated on the
  // victim (queried before the store drops the replicas), plus whatever was
  // running there (evicted -> state-dirty).
  MachineId victim = 5;
  ASSERT_TRUE(cluster.machine(victim).alive);
  std::vector<uint64_t> victim_blocks;
  ASSERT_TRUE(store.BlocksOnMachine(victim, &victim_blocks));
  std::set<uint64_t> on_victim(victim_blocks.begin(), victim_blocks.end());
  std::set<TaskId> affected;
  for (TaskId task : cluster.LiveTasks()) {
    for (uint64_t block : cluster.task(task).input_blocks) {
      if (on_victim.count(block) != 0) {
        affected.insert(task);
        break;
      }
    }
  }
  for (TaskId task : cluster.RunningTasksOn(victim)) {
    affected.insert(task);  // evicted by the removal
  }
  size_t live = cluster.LiveTasks().size();
  ASSERT_GT(live, affected.size()) << "test needs unaffected tasks to be meaningful";

  scheduler.RemoveMachine(victim, now += kSec);
  store.OnMachineRemoved(victim);
  scheduler.graph_manager().UpdateRound(now);
  scheduler.graph_manager().ValidateIntegrity();

  const UpdateRoundStats& stats = scheduler.graph_manager().last_update_stats();
  // The dirty-count gate: exactly the affected set is refreshed — never the
  // whole task set (the legacy MarkAllTasks behaviour).
  EXPECT_EQ(stats.tasks_refreshed, affected.size());
  EXPECT_LT(stats.tasks_refreshed, live);

  ExpectDeltaMatchesFullRefresh(Policy::kQuincyWithLocality, cluster, &store,
                                scheduler.graph_manager(), now, "after targeted removal");
}

// Quincy that also records the task and class marks its CollectDirty
// hands the manager.
class MarkRecordingQuincy : public QuincyPolicy {
 public:
  using QuincyPolicy::QuincyPolicy;

  void CollectDirty(const PolicyUpdate& update, PolicyDirtySink* sink) override {
    struct Tee : PolicyDirtySink {
      Tee(PolicyDirtySink* inner, MarkRecordingQuincy* owner) : inner(inner), owner(owner) {}
      void MarkTask(TaskId task) override {
        owner->tasks.insert(task);
        inner->MarkTask(task);
      }
      void MarkAllTasks() override {
        owner->all = true;
        inner->MarkAllTasks();
      }
      void MarkAggregator(NodeId agg) override { inner->MarkAggregator(agg); }
      void MarkAggregatorMachine(NodeId agg, MachineId machine) override {
        inner->MarkAggregatorMachine(agg, machine);
      }
      void MarkAllAggregators() override { inner->MarkAllAggregators(); }
      void MarkEquivClass(EquivClass ec) override {
        owner->classes.insert(ec);
        inner->MarkEquivClass(ec);
      }
      void MarkAllEquivClasses() override {
        owner->all = true;
        inner->MarkAllEquivClasses();
      }
      PolicyDirtySink* inner;
      MarkRecordingQuincy* owner;
    } tee(sink, this);
    QuincyPolicy::CollectDirty(update, &tee);
  }

  std::set<TaskId> tasks;
  std::set<EquivClass> classes;
  bool all = false;
};

// A machine removal marks exactly the tasks that were in the graph when it
// happened and read a block replicated on the machine (minus those the
// cluster has forgotten by the next round), plus their classes. Rounds mix
// several removals with submissions (some reading the removed machines'
// blocks) and task exits on both sides of each removal; the expected
// marks come from a brute-force scan at each removal.
TEST(PolicyDeltaTest, QuincyRemovalMarksTasksPresentAtRemoval) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    ClusterState cluster;
    BlockStore store(&cluster, seed);
    MarkRecordingQuincy policy(&cluster, &store);
    FlowGraphManager manager(&cluster, &policy);
    for (int r = 0; r < 3; ++r) {
      RackId rack = cluster.AddRack();
      for (int m = 0; m < 6; ++m) {
        manager.AddMachine(cluster.AddMachine(rack, MachineSpec{.slots = 4}));
      }
    }
    Rng rng(seed);
    // Shared inputs, so classes have several members and late submissions
    // can read blocks of a machine removed earlier in the round.
    std::vector<std::pair<int64_t, std::vector<uint64_t>>> inputs;
    for (int i = 0; i < 12; ++i) {
      int64_t bytes = rng.NextInt(300'000'000, 1'200'000'000);
      inputs.push_back({bytes, store.AllocateInput(bytes)});
    }
    std::set<TaskId> in_graph;
    SimTime now = 0;
    size_t marked = 0;
    for (int round = 0; round < 12; ++round) {
      now += kSec;
      std::set<TaskId> expected;
      for (int event = 0; event < 8; ++event) {
        double roll = rng.NextDouble();
        if (roll < 0.5) {
          const auto& [bytes, blocks] = inputs[rng.NextUint64(inputs.size())];
          TaskDescriptor task;
          task.submit_time = now;
          task.input_size_bytes = bytes;
          task.input_blocks = blocks;
          JobId job = cluster.SubmitJob(JobType::kBatch, 0, now);
          TaskId id = cluster.AddTaskToJob(job, task);
          manager.AddTask(id, now);
          in_graph.insert(id);
        } else if (roll < 0.8 && !in_graph.empty()) {
          // Withdraw a task; half of them stay known to the cluster.
          auto it = in_graph.begin();
          std::advance(it, static_cast<std::ptrdiff_t>(rng.NextUint64(in_graph.size())));
          TaskId id = *it;
          in_graph.erase(it);
          cluster.WithdrawTask(id, now);
          manager.RemoveTask(id);
          if (rng.NextBool(0.5)) {
            cluster.ForgetTask(id);
          }
        } else if (roll >= 0.8 && round % 3 != 2) {
          std::vector<MachineId> alive;
          for (const MachineDescriptor& machine : cluster.machines()) {
            if (machine.alive) {
              alive.push_back(machine.id);
            }
          }
          if (alive.size() <= 6) {
            continue;
          }
          MachineId victim = alive[rng.NextUint64(alive.size())];
          std::vector<uint64_t> blocks;
          ASSERT_TRUE(store.BlocksOnMachine(victim, &blocks));
          std::set<uint64_t> lost(blocks.begin(), blocks.end());
          for (TaskId id : in_graph) {
            for (uint64_t block : cluster.task(id).input_blocks) {
              if (lost.count(block) != 0) {
                expected.insert(id);
                break;
              }
            }
          }
          manager.RemoveMachine(victim);
          cluster.RemoveMachine(victim);
          store.OnMachineRemoved(victim);
        }
      }
      std::set<EquivClass> expected_classes;
      for (auto it = expected.begin(); it != expected.end();) {
        if (!cluster.HasTask(*it)) {
          it = expected.erase(it);
          continue;
        }
        expected_classes.insert(policy.TaskEquivClass(cluster.task(*it)));
        ++it;
      }
      policy.tasks.clear();
      policy.classes.clear();
      manager.UpdateRound(now);
      manager.ValidateIntegrity();
      const std::string context = "seed " + std::to_string(seed) + " round " +
                                  std::to_string(round);
      EXPECT_FALSE(policy.all) << context;
      EXPECT_EQ(policy.tasks, expected) << context;
      EXPECT_EQ(policy.classes, expected_classes) << context;
      marked += expected.size();
    }
    EXPECT_GT(marked, 0u) << "seed " << seed;
  }
}

// Repeated identical-job bursts must cost one EquivClassArcs call per class
// *ever*: the first burst computes the entry, every later burst (and every
// placement-driven refresh) rides the cross-round cache.
TEST(PolicyDeltaTest, PersistentClassCacheServesIdenticalBursts) {
  ClusterState cluster;
  BlockStore store(&cluster, 11);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  for (int m = 0; m < 8; ++m) {
    scheduler.AddMachine(rack, MachineSpec{.slots = 16});
  }
  const int64_t bytes = 1'500'000'000;
  std::vector<uint64_t> blocks = store.AllocateInput(bytes);

  SimTime now = 0;
  size_t total_misses = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<TaskDescriptor> tasks(5);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = bytes;
      task.input_blocks = blocks;
    }
    scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    scheduler.RunSchedulingRound(now);
    const UpdateRoundStats& stats = scheduler.graph_manager().last_update_stats();
    EXPECT_GE(stats.tasks_refreshed, 5u) << "round " << round;
    if (round > 0) {
      EXPECT_EQ(stats.class_cache_misses, 0u) << "round " << round;
      EXPECT_GE(stats.class_cache_hits, 5u) << "round " << round;
    }
    total_misses += stats.class_cache_misses;
    now += kSec;
  }
  EXPECT_EQ(total_misses, 1u) << "identical bursts must share one policy call ever";

  scheduler.graph_manager().UpdateRound(now);
  ExpectDeltaMatchesFullRefresh(Policy::kQuincyWithLocality, cluster, &store,
                                scheduler.graph_manager(), now, "after identical bursts");
}

// A class whose last live task completed must be evicted from the cache:
// with no member left to carry invalidation marks, its inputs can drift —
// here a machine removal drops replicas feeding its transfer costs — with
// nobody watching, and an identical resubmission would otherwise reuse
// pre-removal costs (caught by the delta-vs-full diff below).
TEST(PolicyDeltaTest, DrainedClassIsEvictedAndRecomputedOnResubmit) {
  ClusterState cluster;
  BlockStore store(&cluster, 23);
  QuincyPolicy policy(&cluster, &store);
  FirmamentScheduler scheduler(&cluster, &policy);
  std::vector<RackId> racks;
  for (int r = 0; r < 2; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 4; ++m) {
      scheduler.AddMachine(racks.back(), MachineSpec{.slots = 4});
    }
  }
  const int64_t bytes = 1'200'000'000;
  std::vector<uint64_t> blocks = store.AllocateInput(bytes);
  auto identical_job = [&](SimTime now) {
    std::vector<TaskDescriptor> tasks(2);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 1'000 * kSec;
      task.input_size_bytes = bytes;
      task.input_blocks = blocks;
    }
    return scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
  };

  SimTime now = 0;
  JobId job = identical_job(now);
  scheduler.RunSchedulingRound(now += kSec);
  EXPECT_EQ(scheduler.graph_manager().class_cache_size(), 1u);

  // Drain the class: both tasks complete -> the entry must be evicted.
  for (TaskId task : cluster.job(job).tasks) {
    scheduler.CompleteTask(task, now);
  }
  scheduler.RunSchedulingRound(now += kSec);
  EXPECT_EQ(scheduler.graph_manager().class_cache_size(), 0u);

  // Input drift while the class is unpopulated: drop a replica-holding
  // machine (no live task references its blocks, so no mark fires).
  std::vector<uint64_t> on_victim;
  MachineId victim = 0;
  for (; victim < 8; ++victim) {
    on_victim.clear();
    if (cluster.machine(victim).alive && store.BlocksOnMachine(victim, &on_victim) &&
        !on_victim.empty()) {
      break;
    }
  }
  ASSERT_LT(victim, 8u) << "expected some machine to hold a replica";
  scheduler.RemoveMachine(victim, now += kSec);
  store.OnMachineRemoved(victim);
  scheduler.RunSchedulingRound(now);

  // Identical resubmission: must recompute against post-removal replicas.
  identical_job(now += kSec);
  scheduler.graph_manager().UpdateRound(now);
  scheduler.graph_manager().ValidateIntegrity();
  ExpectDeltaMatchesFullRefresh(Policy::kQuincyWithLocality, cluster, &store,
                                scheduler.graph_manager(), now, "resubmit after drain+removal");
}

// ---------------------------------------------------------------------------
// Incremental cluster statistics
// ---------------------------------------------------------------------------

TEST(ClusterDirtyTrackingTest, LifecycleMarksAndStatsStayConsistent) {
  ClusterState cluster;
  RackId rack = cluster.AddRack();
  MachineId m0 = cluster.AddMachine(rack, {.slots = 4});
  MachineId m1 = cluster.AddMachine(rack, {.slots = 4});
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskDescriptor desc;
  desc.bandwidth_request_mbps = 300;
  TaskId t0 = cluster.AddTaskToJob(job, desc);
  TaskId t1 = cluster.AddTaskToJob(job, desc);
  cluster.ClearDirty();

  cluster.PlaceTask(t0, m0, kSec);
  cluster.PlaceTask(t1, m1, kSec);
  EXPECT_EQ(cluster.dirty_machines().count(m0), 1u);
  EXPECT_EQ(cluster.dirty_machines().count(m1), 1u);
  EXPECT_EQ(cluster.dirty_tasks().count(t0), 1u);

  cluster.EvictTask(t1, 2 * kSec);
  // Incremental statistics must equal a from-scratch rebuild at all times.
  int32_t running_m0 = cluster.machine(m0).running_tasks;
  int64_t bw_m0 = cluster.machine(m0).used_bandwidth_mbps;
  int32_t running_m1 = cluster.machine(m1).running_tasks;
  cluster.RefreshStatistics();
  EXPECT_EQ(cluster.machine(m0).running_tasks, running_m0);
  EXPECT_EQ(cluster.machine(m0).used_bandwidth_mbps, bw_m0);
  EXPECT_EQ(cluster.machine(m1).running_tasks, running_m1);
  EXPECT_EQ(cluster.machine(m1).running_tasks, 0);

  cluster.ClearDirty();
  EXPECT_TRUE(cluster.dirty_machines().empty());
  EXPECT_TRUE(cluster.dirty_tasks().empty());
  // mutable_machine is the out-of-band escape hatch: it must mark dirty.
  cluster.mutable_machine(m1).background_bandwidth_mbps = 500;
  EXPECT_EQ(cluster.dirty_machines().count(m1), 1u);
}

// ---------------------------------------------------------------------------
// Declarative unscheduled-cost ramps
// ---------------------------------------------------------------------------

TEST(PolicyDeltaTest, RampAdvancesUnscheduledCostWithoutPolicyCalls) {
  ClusterState cluster;
  LoadSpreadingParams params;
  LoadSpreadingPolicy policy(&cluster, params);
  FlowGraphManager manager(&cluster, &policy);
  RackId rack = cluster.AddRack();
  MachineId machine = cluster.AddMachine(rack, {.slots = 1});
  manager.AddMachine(machine);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);
  manager.UpdateRound(0);

  // The unscheduled arc is the task's arc to the kUnscheduled node.
  const FlowNetwork& net = *manager.network();
  NodeId task_node = manager.NodeForTask(task);
  ArcId unscheduled = kInvalidArcId;
  for (ArcRef ref : net.Adjacency(task_node)) {
    if (!FlowNetwork::RefIsReverse(ref) &&
        net.Kind(net.Dst(FlowNetwork::RefArc(ref))) == NodeKind::kUnscheduled) {
      unscheduled = FlowNetwork::RefArc(ref);
    }
  }
  ASSERT_NE(unscheduled, kInvalidArcId);
  EXPECT_EQ(net.Cost(unscheduled), params.base_unscheduled_cost);

  // Advancing time with no cluster events must ramp the cost by omega per
  // whole second waited — driven by the manager's bucket heap, not by
  // re-querying the policy for every task.
  manager.UpdateRound(3 * kSec);
  EXPECT_EQ(net.Cost(unscheduled), params.base_unscheduled_cost + 3 * params.wait_cost_per_second);
  manager.UpdateRound(3 * kSec + kSec / 2);  // mid-bucket: no change
  EXPECT_EQ(net.Cost(unscheduled), params.base_unscheduled_cost + 3 * params.wait_cost_per_second);
  manager.UpdateRound(10 * kSec);
  EXPECT_EQ(net.Cost(unscheduled),
            params.base_unscheduled_cost + 10 * params.wait_cost_per_second);
}

// ---------------------------------------------------------------------------
// Scoped extraction pin: every round's apply must make the deltas and
// counts that full Listing-1 extraction over the same flow makes, diffed
// against the same cluster state.
// ---------------------------------------------------------------------------

struct ReferenceApply {
  std::vector<SchedulingDelta> deltas;
  size_t placed = 0;
  size_t preempted = 0;
  size_t migrated = 0;
  size_t unscheduled = 0;
  size_t dropped = 0;
};

// ApplyRound's diff rules over ExtractPlacements, in the delta order rule
// (ascending TaskId), applied to a copy of the cluster. `installs` are the
// machines a template install took slots on while the round was in flight.
ReferenceApply ApplyFullExtraction(const FlowGraphManager& manager, ClusterState cluster,
                                   const std::set<MachineId>& installs, SimTime now) {
  ExtractionResult full = ExtractPlacements(manager);
  std::sort(full.placements.begin(), full.placements.end());
  auto placeable = [&](MachineId machine) {
    return machine < cluster.machines().size() && cluster.machine(machine).alive &&
           (installs.count(machine) == 0 || cluster.machine(machine).FreeSlots() > 0);
  };
  ReferenceApply ref;
  for (const auto& [task_id, machine] : full.placements) {
    const TaskDescriptor* task = cluster.FindTask(task_id);
    if (task == nullptr || task->state == TaskState::kCompleted) {
      continue;
    }
    const MachineId from = task->machine;
    if (machine == kInvalidMachineId) {
      if (task->state == TaskState::kRunning) {
        ref.deltas.push_back({SchedulingDelta::Kind::kPreempt, task_id, from, kInvalidMachineId});
        cluster.EvictTask(task_id, now);
        ++ref.preempted;
      } else {
        ++ref.unscheduled;
      }
    } else if (task->state == TaskState::kWaiting) {
      if (!placeable(machine)) {
        ++ref.dropped;
        ++ref.unscheduled;
        continue;
      }
      ref.deltas.push_back({SchedulingDelta::Kind::kPlace, task_id, kInvalidMachineId, machine});
      cluster.PlaceTask(task_id, machine, now);
      ++ref.placed;
    } else if (from != machine) {
      if (!placeable(machine)) {
        ++ref.dropped;
        continue;
      }
      ref.deltas.push_back({SchedulingDelta::Kind::kMigrate, task_id, from, machine});
      cluster.EvictTask(task_id, now);
      cluster.PlaceTask(task_id, machine, now);
      ++ref.migrated;
    }
  }
  return ref;
}

std::string DeltaString(const std::vector<SchedulingDelta>& deltas) {
  std::string out;
  for (const SchedulingDelta& delta : deltas) {
    out += std::to_string(static_cast<int>(delta.kind)) + ":" + std::to_string(delta.task) +
           ":" + std::to_string(delta.from) + ">" + std::to_string(delta.to) + " ";
  }
  return out;
}

// Phase-split rounds with events on both sides of the solve: submissions
// and resubmissions of recorded job shapes (template installs, mid-round
// ones included), completions, machine failures and arrivals. Before each
// ApplyRound the reference runs on the solved flow and a cluster copy.
void FuzzScopedExtraction(Policy kind, SolverMode mode, uint64_t seed) {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  if (kind == Policy::kQuincyWithLocality) {
    store = std::make_unique<BlockStore>(&cluster, seed + 1);
  }
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(kind, &cluster, store.get());
  FirmamentSchedulerOptions options;
  options.solver.mode = mode;
  options.enable_templates = true;
  FirmamentScheduler scheduler(&cluster, policy.get(), options);
  Rng rng(seed);
  std::vector<RackId> racks;
  for (int r = 0; r < 4; ++r) {
    racks.push_back(cluster.AddRack());
    for (int m = 0; m < 5; ++m) {
      scheduler.AddMachine(racks.back(),
                           MachineSpec{.slots = static_cast<int32_t>(rng.NextInt(2, 4))});
    }
  }

  std::vector<std::vector<TaskDescriptor>> shapes;  // submitted jobs, for resubmission
  auto submit = [&](SimTime now, std::set<MachineId>* installs) {
    std::vector<TaskDescriptor> tasks;
    if (!shapes.empty() && rng.NextBool(0.6)) {
      tasks = shapes[rng.NextUint64(shapes.size())];
    } else {
      tasks.resize(static_cast<size_t>(rng.NextInt(1, 4)));
      for (TaskDescriptor& task : tasks) {
        task.runtime = static_cast<SimTime>(rng.NextInt(5, 50)) * kSec;
        if (store != nullptr && rng.NextBool(0.8)) {
          task.input_size_bytes = rng.NextInt(200'000'000, 2'000'000'000);
          task.input_blocks = store->AllocateInput(task.input_size_bytes);
        }
      }
      shapes.push_back(tasks);
    }
    TemplateInstallResult install;
    scheduler.SubmitJob(JobType::kBatch, 0, std::move(tasks), now, &install);
    if (installs != nullptr) {
      for (const SchedulingDelta& delta : install.deltas) {
        installs->insert(delta.to);
      }
    }
  };
  auto running_tasks = [&]() {
    std::vector<TaskId> running;
    for (TaskId task : cluster.LiveTasks()) {
      if (cluster.task(task).state == TaskState::kRunning) {
        running.push_back(task);
      }
    }
    return running;
  };
  auto remove_machine = [&](SimTime now) {
    std::vector<MachineId> alive;
    for (const MachineDescriptor& machine : cluster.machines()) {
      if (machine.alive) {
        alive.push_back(machine.id);
      }
    }
    if (alive.size() <= 4) {
      return;
    }
    MachineId victim = alive[rng.NextUint64(alive.size())];
    BlockStore* replicas = store.get();
    scheduler.RemoveMachine(victim, now, [replicas, victim] {
      if (replicas != nullptr) {
        replicas->OnMachineRemoved(victim);
      }
    });
  };

  constexpr int kRounds = 60;
  int scoped_rounds = 0;
  size_t installs_seen = 0;
  size_t dropped = 0;
  SimTime now = 0;
  for (int round = 0; round < kRounds; ++round) {
    now += static_cast<SimTime>(rng.NextInt(300, 1'700)) * 1'000;
    if (rng.NextBool(0.5)) {
      submit(now, nullptr);
    }
    scheduler.StartRound(now);

    // Mid-round: the graph halves stage, the cluster halves apply now.
    std::set<MachineId> installs;
    std::vector<TaskId> running = running_tasks();
    for (int i = static_cast<int>(rng.NextInt(0, 2)); i > 0 && !running.empty(); --i) {
      size_t pick = rng.NextUint64(running.size());
      scheduler.CompleteTask(running[pick], now + 10);
      running[pick] = running.back();
      running.pop_back();
    }
    if (rng.NextBool(0.15)) {
      remove_machine(now + 20);
    }
    for (int i = static_cast<int>(rng.NextInt(0, 2)); i > 0; --i) {
      submit(now + 30, &installs);
    }
    if (rng.NextBool(0.1)) {
      scheduler.AddMachine(racks[rng.NextUint64(racks.size())], MachineSpec{.slots = 3});
    }
    installs_seen += installs.size();

    const SimTime apply_time = now + 1'000;
    ReferenceApply want =
        ApplyFullExtraction(scheduler.graph_manager(), cluster, installs, apply_time);
    SchedulerRoundResult got = scheduler.ApplyRound(apply_time);
    ASSERT_EQ(got.outcome, SolveOutcome::kOptimal);
    const std::string context = std::string(PolicyName(kind)) + " seed " +
                                std::to_string(seed) + " round " + std::to_string(round);
    EXPECT_EQ(DeltaString(got.deltas), DeltaString(want.deltas)) << context;
    EXPECT_EQ(got.tasks_placed, want.placed) << context;
    EXPECT_EQ(got.tasks_preempted, want.preempted) << context;
    EXPECT_EQ(got.tasks_migrated, want.migrated) << context;
    EXPECT_EQ(got.tasks_unscheduled, want.unscheduled) << context;
    EXPECT_EQ(got.deltas_dropped, want.dropped) << context;
    if (::testing::Test::HasFailure()) {
      return;
    }
    scoped_rounds += got.tasks_extracted < got.task_nodes ? 1 : 0;
    dropped += got.deltas_dropped;

    // Between rounds: completions and failures on the synchronous path.
    running = running_tasks();
    for (int i = static_cast<int>(rng.NextInt(0, 3)); i > 0 && !running.empty(); --i) {
      size_t pick = rng.NextUint64(running.size());
      scheduler.CompleteTask(running[pick], apply_time + 10);
      running[pick] = running.back();
      running.pop_back();
    }
    if (rng.NextBool(0.1)) {
      remove_machine(apply_time + 20);
    }
  }
  // The pin must exercise the scoped path, dropped deltas and mid-round
  // installs (network-aware opts out of templates).
  EXPECT_GT(scoped_rounds, kRounds / 2);
  EXPECT_GT(dropped, 0u);
  if (kind != Policy::kNetworkAware) {
    EXPECT_GT(installs_seen, 0u);
  }
}

TEST(ScopedExtractionFuzz, QuincyWithLocalityMatchesFullExtraction) {
  for (uint64_t seed : {701u, 703u}) {
    FuzzScopedExtraction(Policy::kQuincyWithLocality, SolverMode::kCostScalingOnly, seed);
  }
  FuzzScopedExtraction(Policy::kQuincyWithLocality, SolverMode::kRace, 704);
}

// Request aggregators: the network-aware policy's tasks -> RA -> machine.
TEST(ScopedExtractionFuzz, NetworkAwareMatchesFullExtraction) {
  for (uint64_t seed : {901u, 902u}) {
    FuzzScopedExtraction(Policy::kNetworkAware, SolverMode::kCostScalingOnly, seed);
  }
}

TEST(ScopedExtractionFuzz, LoadSpreadingMatchesFullExtraction) {
  for (uint64_t seed : {801u, 802u, 803u}) {
    FuzzScopedExtraction(Policy::kLoadSpreading, SolverMode::kCostScalingOnly, seed);
  }
  FuzzScopedExtraction(Policy::kLoadSpreading, SolverMode::kRace, 804);
}

// ---------------------------------------------------------------------------
// Journal identity: the exact graph edit stream of a scripted run
// ---------------------------------------------------------------------------

// Drives the manager through submissions, cost-scaling placements,
// completions and one machine removal (followed, in the same round, by
// completions and a submission), and hashes every GraphChange in order.
// Equal digests mean the same edits in the same order: the same arc ids,
// so the same solver tie-breaks and the same placements.
uint64_t JournalDigest(Policy kind) {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  if (kind == Policy::kQuincyWithLocality) {
    store = std::make_unique<BlockStore>(&cluster, 31);
  }
  std::unique_ptr<SchedulingPolicy> policy = MakePolicy(kind, &cluster, store.get());
  FlowGraphManager manager(&cluster, policy.get());
  CostScaling solver;
  Rng rng(37);
  for (int r = 0; r < 3; ++r) {
    RackId rack = cluster.AddRack();
    for (int m = 0; m < 5; ++m) {
      manager.AddMachine(cluster.AddMachine(rack, MachineSpec{.slots = 3}));
    }
  }
  SimTime now = 0;
  for (int round = 0; round < 12; ++round) {
    now += kSec;
    if (round == 6) {
      MachineId victim = 4;
      for (TaskId task : cluster.RunningTasksOn(victim)) {
        cluster.EvictTask(task, now);
      }
      manager.RemoveMachine(victim);
      cluster.RemoveMachine(victim);
      if (store != nullptr) {
        store->OnMachineRemoved(victim);
      }
    }
    std::vector<TaskId> running;
    for (TaskId task : cluster.LiveTasks()) {
      if (cluster.task(task).state == TaskState::kRunning) {
        running.push_back(task);
      }
    }
    for (int i = 0; i < 2 && !running.empty(); ++i) {
      size_t pick = rng.NextUint64(running.size());
      cluster.CompleteTask(running[pick], now);
      manager.RemoveTask(running[pick]);
      cluster.ForgetTask(running[pick]);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    JobId job = cluster.SubmitJob(JobType::kBatch, 0, now);
    for (int64_t i = rng.NextInt(2, 5); i > 0; --i) {
      TaskDescriptor task;
      task.runtime = 100 * kSec;
      task.submit_time = now;
      if (store != nullptr) {
        task.input_size_bytes = rng.NextInt(300'000'000, 1'500'000'000);
        task.input_blocks = store->AllocateInput(task.input_size_bytes);
      }
      manager.AddTask(cluster.AddTaskToJob(job, task), now);
    }
    manager.UpdateRound(now);
    EXPECT_EQ(solver.Solve(manager.network()).outcome, SolveOutcome::kOptimal);
    std::vector<std::pair<TaskId, MachineId>> placements = ExtractPlacements(manager).placements;
    std::sort(placements.begin(), placements.end());
    for (const auto& [task, machine] : placements) {
      if (machine != kInvalidMachineId) {
        cluster.PlaceTask(task, machine, now);  // no-op for running tasks
      }
    }
  }
  manager.ValidateIntegrity();
  uint64_t hash = 1469598103934665603ull;
  for (const GraphChange& change : manager.network()->Changes()) {
    for (uint64_t field : {static_cast<uint64_t>(change.kind), uint64_t{change.id},
                           static_cast<uint64_t>(change.old_value),
                           static_cast<uint64_t>(change.new_value)}) {
      hash = (hash ^ field) * 1099511628211ull;
    }
  }
  return hash;
}

// The digests below were recorded from the graph manager before its class
// index and task arc lists went flat and Quincy's locality pricing became
// one pass; those changes must not move a single graph edit. A constant
// here changes only together with a CHANGES.md line saying why the graph
// edits changed.
TEST(JournalIdentityPin, QuincyWithLocality) {
  EXPECT_EQ(JournalDigest(Policy::kQuincyWithLocality), 0x2df5ca9747c5420full);
}

TEST(JournalIdentityPin, LoadSpreading) {
  EXPECT_EQ(JournalDigest(Policy::kLoadSpreading), 0x90ef95225a302271ull);
}

}  // namespace
}  // namespace firmament
