// Tests for the scheduler core: cluster state, flow graph manager, the three
// scheduling policies, placement extraction, and the end-to-end scheduler.

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/cluster.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/network_aware_policy.h"
#include "src/core/placement_extractor.h"
#include "src/core/quincy_policy.h"
#include "src/core/scheduler.h"
#include "src/sim/block_store.h"
#include "src/solvers/cost_scaling.h"
#include "src/solvers/relaxation.h"
#include "src/solvers/solution_checker.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

// Builds a small cluster: `racks` racks x `per_rack` machines.
void BuildCluster(ClusterState* cluster, int racks, int per_rack, MachineSpec spec,
                  FirmamentScheduler* scheduler = nullptr) {
  for (int r = 0; r < racks; ++r) {
    RackId rack = cluster->AddRack();
    for (int m = 0; m < per_rack; ++m) {
      if (scheduler != nullptr) {
        scheduler->AddMachine(rack, spec);
      } else {
        cluster->AddMachine(rack, spec);
      }
    }
  }
}

std::vector<TaskDescriptor> MakeTasks(int n, SimTime runtime = 10 * kSec) {
  std::vector<TaskDescriptor> tasks(n);
  for (TaskDescriptor& task : tasks) {
    task.runtime = runtime;
  }
  return tasks;
}

// ---------------------------------------------------------------------------
// ClusterState
// ---------------------------------------------------------------------------

TEST(ClusterStateTest, TopologyBookkeeping) {
  ClusterState cluster;
  RackId r0 = cluster.AddRack();
  RackId r1 = cluster.AddRack();
  MachineId m0 = cluster.AddMachine(r0, {.slots = 4});
  MachineId m1 = cluster.AddMachine(r1, {.slots = 8});
  EXPECT_EQ(cluster.num_racks(), 2u);
  EXPECT_EQ(cluster.num_machines(), 2u);
  EXPECT_EQ(cluster.RackOf(m0), r0);
  EXPECT_EQ(cluster.RackOf(m1), r1);
  EXPECT_EQ(cluster.TotalSlots(), 12);
  cluster.RemoveMachine(m0);
  EXPECT_EQ(cluster.num_machines(), 1u);
  EXPECT_TRUE(cluster.MachinesInRack(r0).empty());
  EXPECT_EQ(cluster.TotalSlots(), 8);
}

TEST(ClusterStateTest, TaskLifecycleUpdatesMachineLoad) {
  ClusterState cluster;
  RackId rack = cluster.AddRack();
  MachineId machine = cluster.AddMachine(rack, {.slots = 2});
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskDescriptor desc;
  desc.bandwidth_request_mbps = 100;
  TaskId task = cluster.AddTaskToJob(job, desc);

  cluster.PlaceTask(task, machine, 5 * kSec);
  EXPECT_EQ(cluster.machine(machine).running_tasks, 1);
  EXPECT_EQ(cluster.machine(machine).used_bandwidth_mbps, 100);
  EXPECT_EQ(cluster.task(task).state, TaskState::kRunning);
  EXPECT_EQ(cluster.UsedSlots(), 1);

  cluster.EvictTask(task, 7 * kSec);
  EXPECT_EQ(cluster.machine(machine).running_tasks, 0);
  EXPECT_EQ(cluster.machine(machine).used_bandwidth_mbps, 0);
  EXPECT_EQ(cluster.task(task).state, TaskState::kWaiting);
  EXPECT_EQ(cluster.task(task).total_wait, 5 * kSec);

  cluster.PlaceTask(task, machine, 9 * kSec);
  EXPECT_EQ(cluster.task(task).total_wait, 7 * kSec);  // 5s + 2s after eviction
  cluster.CompleteTask(task, 20 * kSec);
  EXPECT_EQ(cluster.task(task).state, TaskState::kCompleted);
  EXPECT_EQ(cluster.machine(machine).running_tasks, 0);
  cluster.ForgetTask(task);
  EXPECT_FALSE(cluster.HasTask(task));
}

TEST(ClusterStateTest, RefreshStatisticsRebuildsFromTasks) {
  ClusterState cluster;
  RackId rack = cluster.AddRack();
  MachineId machine = cluster.AddMachine(rack, {.slots = 4});
  JobId job = cluster.SubmitJob(JobType::kService, 1, 0);
  TaskId t0 = cluster.AddTaskToJob(job, {});
  TaskId t1 = cluster.AddTaskToJob(job, {});
  cluster.PlaceTask(t0, machine, 0);
  cluster.PlaceTask(t1, machine, 0);
  // Corrupt the statistics, then refresh.
  cluster.mutable_machine(machine).running_tasks = 99;
  cluster.RefreshStatistics();
  EXPECT_EQ(cluster.machine(machine).running_tasks, 2);
}

// ---------------------------------------------------------------------------
// FlowGraphManager
// ---------------------------------------------------------------------------

TEST(FlowGraphManagerTest, BuildsSinkMachinesAndTasks) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2});
  for (const MachineDescriptor& machine : cluster.machines()) {
    manager.AddMachine(machine.id);
  }
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);

  const FlowNetwork& net = *manager.network();
  // sink + cluster agg + 3 machines + 1 unscheduled + 1 task = 7 nodes.
  EXPECT_EQ(net.NumNodes(), 7u);
  EXPECT_EQ(net.Supply(manager.sink()), -1);
  EXPECT_EQ(net.Supply(manager.NodeForTask(task)), 1);
  EXPECT_EQ(net.Kind(manager.NodeForTask(task)), NodeKind::kTask);
  EXPECT_NE(manager.NodeForMachine(0), kInvalidNodeId);
  EXPECT_EQ(manager.TaskForNode(manager.NodeForTask(task)), task);
  EXPECT_EQ(manager.MachineForNode(manager.NodeForMachine(2)), 2u);
}

TEST(FlowGraphManagerTest, RemoveTaskRestoresSinkSupplyAndUnschedCapacity) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2});
  manager.AddMachine(0);
  manager.AddMachine(1);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId t0 = cluster.AddTaskToJob(job, {});
  TaskId t1 = cluster.AddTaskToJob(job, {});
  manager.AddTask(t0, 0);
  manager.AddTask(t1, 0);
  EXPECT_EQ(manager.network()->Supply(manager.sink()), -2);
  manager.RemoveTask(t0);
  EXPECT_EQ(manager.network()->Supply(manager.sink()), -1);
  EXPECT_EQ(manager.num_task_nodes(), 1u);
  manager.RemoveTask(t1);
  EXPECT_EQ(manager.network()->Supply(manager.sink()), 0);
  // Unscheduled aggregator for the job disappears with its last task:
  // sink + cluster agg + 2 machines remain.
  EXPECT_EQ(manager.network()->NumNodes(), 4u);
}

TEST(FlowGraphManagerTest, UpdateRoundIsIncremental) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 2});
  for (const MachineDescriptor& machine : cluster.machines()) {
    manager.AddMachine(machine.id);
  }
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);
  manager.UpdateRound(0);
  manager.network()->ClearChanges();
  // A second round with identical state must record no graph changes.
  manager.UpdateRound(0);
  EXPECT_TRUE(manager.network()->Changes().empty());
  // Advancing time only touches unscheduled-cost arcs.
  manager.UpdateRound(10 * kSec);
  for (const GraphChange& change : manager.network()->Changes()) {
    EXPECT_EQ(change.kind, GraphChange::Kind::kArcCost);
  }
}

TEST(FlowGraphManagerTest, MachineRemovalPurgesArcs) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2});
  manager.AddMachine(0);
  manager.AddMachine(1);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId task = cluster.AddTaskToJob(job, {});
  manager.AddTask(task, 0);
  manager.UpdateRound(0);
  size_t arcs_before = manager.network()->NumArcs();
  manager.RemoveMachine(1);
  cluster.RemoveMachine(1);
  EXPECT_LT(manager.network()->NumArcs(), arcs_before);
  // The next round must not crash on stale arc references.
  manager.UpdateRound(kSec);
  EXPECT_EQ(manager.NodeForMachine(1), kInvalidNodeId);
}

// ---------------------------------------------------------------------------
// Scheduler end-to-end with the load-spreading policy
// ---------------------------------------------------------------------------

TEST(SchedulerTest, PlacesAllTasksWhenCapacitySuffices) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(6), 0);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(result.tasks_placed, 6u);
  EXPECT_EQ(result.tasks_unscheduled, 0u);
  EXPECT_TRUE(CheckOptimality(*scheduler.graph_manager().network()).ok());
  EXPECT_EQ(cluster.UsedSlots(), 6);
}

TEST(SchedulerTest, LoadSpreadingBalancesTaskCounts) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 4}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(8), 0);
  scheduler.RunSchedulingRound(kSec);
  // 8 tasks on 4 machines: the spreading policy must put exactly 2 on each
  // ("task count only increases once all others have at least as many").
  for (const MachineDescriptor& machine : cluster.machines()) {
    EXPECT_EQ(machine.running_tasks, 2) << "machine " << machine.id;
  }
}

TEST(SchedulerTest, LeavesTasksUnscheduledWhenClusterFull) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(7), 0);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(result.tasks_placed, 4u);
  EXPECT_EQ(result.tasks_unscheduled, 3u);
}

TEST(SchedulerTest, CompletionFreesSlotsForWaitingTasks) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 1, {.slots = 1}, &scheduler);
  JobId job = scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(2), 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(cluster.UsedSlots(), 1);
  TaskId running = kInvalidTaskId;
  TaskId waiting = kInvalidTaskId;
  for (TaskId task : cluster.job(job).tasks) {
    if (cluster.task(task).state == TaskState::kRunning) {
      running = task;
    } else {
      waiting = task;
    }
  }
  ASSERT_NE(running, kInvalidTaskId);
  ASSERT_NE(waiting, kInvalidTaskId);
  scheduler.CompleteTask(running, 10 * kSec);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(11 * kSec);
  EXPECT_EQ(result.tasks_placed, 1u);
  EXPECT_EQ(cluster.task(waiting).state, TaskState::kRunning);
  // Placement latency (11s) was recorded for the waiting task.
  EXPECT_NEAR(scheduler.placement_latency().Max(), 11.0, 0.01);
}

TEST(SchedulerTest, MachineFailureEvictsAndReschedules) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(3), 0);
  scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(cluster.UsedSlots(), 3);
  // Fail a machine that hosts at least one task.
  MachineId victim = kInvalidMachineId;
  for (const MachineDescriptor& machine : cluster.machines()) {
    if (machine.running_tasks > 0) {
      victim = machine.id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidMachineId);
  scheduler.RemoveMachine(victim, 2 * kSec);
  EXPECT_LT(cluster.UsedSlots(), 3);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(3 * kSec);
  EXPECT_GE(result.tasks_placed, 1u);
  EXPECT_EQ(cluster.UsedSlots(), 3);  // everything running again elsewhere
}

TEST(SchedulerTest, ContinuousReschedulingIsStable) {
  // With no state changes, re-running the round must not move any task
  // (continuation arcs are free, migrations would cost).
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 4, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(6), 0);
  scheduler.RunSchedulingRound(kSec);
  for (int round = 2; round < 5; ++round) {
    SchedulerRoundResult result = scheduler.RunSchedulingRound(round * kSec);
    EXPECT_EQ(result.tasks_migrated, 0u) << "round " << round;
    EXPECT_EQ(result.tasks_preempted, 0u) << "round " << round;
    EXPECT_EQ(result.tasks_placed, 0u) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Quincy policy + locality
// ---------------------------------------------------------------------------

// Locality oracle with explicit per-machine byte counts.
class FakeLocality : public DataLocalityInterface {
 public:
  void Set(MachineId machine, int64_t bytes) { bytes_[machine] = bytes; }

  int64_t BytesOnMachine(const TaskDescriptor& task, MachineId machine) const override {
    (void)task;
    auto it = bytes_.find(machine);
    return it == bytes_.end() ? 0 : it->second;
  }
  int64_t BytesInRack(const TaskDescriptor& task, RackId rack) const override {
    (void)task;
    (void)rack;
    int64_t total = 0;
    for (const auto& [machine, bytes] : bytes_) {
      total += bytes;  // single-rack tests
    }
    return total;
  }
  void CandidateMachines(const TaskDescriptor& task, std::vector<MachineId>* out) const override {
    (void)task;
    for (const auto& [machine, bytes] : bytes_) {
      out->push_back(machine);
    }
  }

 private:
  std::map<MachineId, int64_t> bytes_;
};

TEST(QuincyPolicyTest, PrefersDataLocalMachine) {
  ClusterState cluster;
  FakeLocality locality;
  QuincyPolicy policy(&cluster, &locality);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2}, &scheduler);
  locality.Set(1, 900'000'000);  // machine 1 holds 90% of the input

  TaskDescriptor task;
  task.input_size_bytes = 1'000'000'000;
  scheduler.SubmitJob(JobType::kBatch, 0, {task}, 0);
  scheduler.RunSchedulingRound(kSec);
  TaskId id = cluster.job(0).tasks[0];
  EXPECT_EQ(cluster.task(id).state, TaskState::kRunning);
  EXPECT_EQ(cluster.task(id).machine, 1u);
}

TEST(QuincyPolicyTest, TransferCostsAreOrdered) {
  // gamma(local machine) <= rho(rack) <= alpha(cluster worst case).
  ClusterState cluster;
  FakeLocality locality;
  QuincyPolicy policy(&cluster, &locality);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 3, {.slots = 2}, &scheduler);
  locality.Set(0, 600'000'000);
  locality.Set(2, 200'000'000);
  TaskDescriptor task;
  task.input_size_bytes = 1'000'000'000;
  int64_t gamma = policy.MachineTransferCost(task, 0);
  int64_t rho = policy.RackTransferCost(task, 0);
  int64_t alpha = policy.ClusterTransferCost(task);
  EXPECT_LE(gamma, rho);
  EXPECT_LE(rho, alpha + 1);
  EXPECT_GT(alpha, 0);
}

TEST(QuincyPolicyTest, PreferenceThresholdGatesArcs) {
  ClusterState cluster;
  FakeLocality locality;
  QuincyPolicyParams params;
  params.machine_preference_threshold = 0.5;
  QuincyPolicy policy(&cluster, &locality, params);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 2}, &scheduler);
  locality.Set(0, 600'000'000);  // 60% => above threshold
  locality.Set(1, 100'000'000);  // 10% => below
  TaskDescriptor task;
  task.input_size_bytes = 1'000'000'000;
  std::vector<ArcSpec> arcs;
  policy.EquivClassArcs(task, 0, &arcs);
  int machine_arcs = 0;
  for (const ArcSpec& arc : arcs) {
    if (scheduler.graph_manager().MachineForNode(arc.dst) != kInvalidMachineId) {
      ++machine_arcs;
    }
  }
  EXPECT_EQ(machine_arcs, 1);  // only the 60% machine qualifies
}

TEST(QuincyPolicyTest, ServicePriorityWinsSlotsFromBatch) {
  // A full cluster of batch tasks must yield (preemption) when a
  // higher-priority service job arrives (§3, priority preemption).
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 1, 2, {.slots = 1}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(2), 0);
  scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(cluster.UsedSlots(), 2);
  // Service job with priority 5: its unscheduled cost dwarfs batch costs.
  scheduler.SubmitJob(JobType::kService, 5, MakeTasks(1), 2 * kSec);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(3 * kSec);
  EXPECT_EQ(result.tasks_preempted, 1u);
  EXPECT_EQ(result.tasks_placed, 1u);
  TaskId service_task = cluster.job(1).tasks[0];
  EXPECT_EQ(cluster.task(service_task).state, TaskState::kRunning);
}

// ---------------------------------------------------------------------------
// Network-aware policy
// ---------------------------------------------------------------------------

TEST(NetworkAwarePolicyTest, AvoidsBandwidthOvercommit) {
  ClusterState cluster;
  NetworkAwarePolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  // Machine 0: congested link; machine 1: idle link.
  MachineId m0 = scheduler.AddMachine(rack, {.slots = 4, .nic_bandwidth_mbps = 10'000});
  MachineId m1 = scheduler.AddMachine(rack, {.slots = 4, .nic_bandwidth_mbps = 10'000});
  cluster.mutable_machine(m0).background_bandwidth_mbps = 9'800;

  TaskDescriptor task;
  task.bandwidth_request_mbps = 1'000;
  scheduler.SubmitJob(JobType::kBatch, 0, {task}, 0);
  scheduler.RunSchedulingRound(kSec);
  TaskId id = cluster.job(0).tasks[0];
  EXPECT_EQ(cluster.task(id).machine, m1);
}

TEST(NetworkAwarePolicyTest, BalancesAcrossLinks) {
  ClusterState cluster;
  NetworkAwarePolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  for (int i = 0; i < 4; ++i) {
    scheduler.AddMachine(rack, {.slots = 8, .nic_bandwidth_mbps = 10'000});
  }
  std::vector<TaskDescriptor> tasks(8);
  for (TaskDescriptor& task : tasks) {
    task.bandwidth_request_mbps = 2'000;
    task.runtime = 100 * kSec;
  }
  scheduler.SubmitJob(JobType::kBatch, 0, tasks, 0);
  scheduler.RunSchedulingRound(kSec);
  // 8 x 2 Gbps over 4 x 10 Gbps links: balanced = 2 tasks (4 Gbps) each.
  for (const MachineDescriptor& machine : cluster.machines()) {
    EXPECT_EQ(machine.used_bandwidth_mbps, 4'000) << "machine " << machine.id;
  }
}

TEST(NetworkAwarePolicyTest, BucketsRequests) {
  ClusterState cluster;
  NetworkAwareParams params;
  params.request_bucket_mbps = 100;
  NetworkAwarePolicy policy(&cluster, params);
  EXPECT_EQ(policy.BucketFor(0), 0);
  EXPECT_EQ(policy.BucketFor(1), 100);
  EXPECT_EQ(policy.BucketFor(100), 100);
  EXPECT_EQ(policy.BucketFor(101), 200);
}

// ---------------------------------------------------------------------------
// Placement extraction through aggregator chains
// ---------------------------------------------------------------------------

TEST(PlacementExtractorTest, ResolvesThroughAggregatorChains) {
  // Quincy policy routes via X -> rack -> machine; extraction must trace the
  // machines back to tasks through the two-level aggregator chain.
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, &policy);
  BuildCluster(&cluster, 2, 2, {.slots = 2}, &scheduler);
  scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(5), 0);
  SchedulerRoundResult result = scheduler.RunSchedulingRound(kSec);
  EXPECT_EQ(result.tasks_placed, 5u);
  // Every placed task runs on a real machine.
  for (TaskId task : cluster.job(0).tasks) {
    EXPECT_EQ(cluster.task(task).state, TaskState::kRunning);
    EXPECT_LT(cluster.task(task).machine, 4u);
  }
}

TEST(PlacementExtractorTest, UnscheduledTasksMapToInvalidMachine) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FlowGraphManager manager(&cluster, &policy);
  BuildCluster(&cluster, 1, 1, {.slots = 1});
  manager.AddMachine(0);
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  TaskId t0 = cluster.AddTaskToJob(job, {});
  TaskId t1 = cluster.AddTaskToJob(job, {});
  manager.AddTask(t0, 0);
  manager.AddTask(t1, 0);
  manager.UpdateRound(0);
  RacingSolver solver;
  ASSERT_EQ(solver.Solve(manager.network()).outcome, SolveOutcome::kOptimal);
  ExtractionResult extraction = ExtractPlacements(manager);
  ASSERT_EQ(extraction.placements.size(), 2u);
  int unscheduled = 0;
  for (const auto& [task, machine] : extraction.placements) {
    if (machine == kInvalidMachineId) {
      ++unscheduled;
    }
  }
  EXPECT_EQ(unscheduled, 1);
}

// ---------------------------------------------------------------------------
// Flat extraction vs. the Listing-1 reference
// ---------------------------------------------------------------------------

// Reference extractor: Listing 1 over per-node destination vectors, a deque
// and a hash map of placements — the storage ExtractPlacements replaced
// with one flat buffer. The flat extractor must resolve exactly the same
// (task, machine) set.
std::unordered_map<TaskId, MachineId> ReferenceExtract(const FlowGraphManager& manager) {
  const FlowNetwork& net = manager.network();
  const NodeId sink = manager.sink();
  std::unordered_map<TaskId, MachineId> placements;

  // destinations[v]: machine ids (kInvalidMachineId = unscheduled) that v's
  // outgoing flow ultimately reaches; filled once v is resolved.
  std::vector<std::vector<MachineId>> destinations(net.NodeCapacity());
  // Remaining outgoing flow for which v has not yet received destinations.
  std::vector<int64_t> pending(net.NodeCapacity(), 0);
  std::deque<NodeId> resolved;

  for (NodeId node : net.ValidNodes()) {
    if (node == sink) {
      continue;
    }
    int64_t outflow = 0;
    for (ArcRef ref : net.Adjacency(node)) {
      if (FlowNetwork::RefIsReverse(ref)) {
        continue;
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      outflow += flow;
      if (net.Dst(arc) == sink) {
        // Flow into the sink resolves immediately: a machine delivers its own
        // identity, an unscheduled aggregator delivers "unplaced".
        MachineId self = net.Kind(node) == NodeKind::kMachine ? manager.MachineForNode(node)
                                                              : kInvalidMachineId;
        destinations[node].insert(destinations[node].end(), static_cast<size_t>(flow), self);
      }
    }
    pending[node] = outflow - static_cast<int64_t>(destinations[node].size());
    if (outflow > 0 && pending[node] == 0) {
      resolved.push_back(node);
    }
  }

  // Propagate destinations backwards along incoming flow (Listing 1).
  while (!resolved.empty()) {
    NodeId node = resolved.front();
    resolved.pop_front();
    TaskId task = manager.TaskForNode(node);
    if (task != kInvalidTaskId) {
      CHECK(!destinations[node].empty());
      placements[task] = destinations[node].back();
      continue;
    }
    std::vector<MachineId>& dests = destinations[node];
    size_t cursor = 0;
    for (ArcRef ref : net.Adjacency(node)) {
      if (!FlowNetwork::RefIsReverse(ref)) {
        continue;  // outgoing
      }
      ArcId arc = FlowNetwork::RefArc(ref);
      int64_t flow = net.Flow(arc);
      if (flow <= 0) {
        continue;
      }
      NodeId src = net.Src(arc);
      // Move `flow` destinations to the incoming arc's source (Listing 1
      // lines 12-15). For an optimal flow the lists always suffice; for
      // approximate, infeasible pseudoflows (§5.1) nodes with unrouted
      // excess simply deliver fewer destinations, leaving their upstream
      // tasks unplaced.
      int64_t available = static_cast<int64_t>(dests.size()) - static_cast<int64_t>(cursor);
      int64_t moved = std::min(flow, available);
      for (int64_t i = 0; i < moved; ++i) {
        destinations[src].push_back(dests[cursor++]);
      }
      pending[src] -= moved;
      if (pending[src] == 0) {
        resolved.push_back(src);
      }
    }
  }
  return placements;
}

using PlacementList = std::vector<std::pair<TaskId, MachineId>>;

PlacementList Sorted(PlacementList placements) {
  std::sort(placements.begin(), placements.end());
  return placements;
}

// Compares both extractors on the manager's current flow and returns how
// many tasks the flat extractor resolved.
size_t ExpectExtractionMatchesReference(const FlowGraphManager& manager,
                                        const std::string& context) {
  const std::unordered_map<TaskId, MachineId> reference = ReferenceExtract(manager);
  PlacementList flat = ExtractPlacements(manager).placements;
  EXPECT_EQ(Sorted(flat), Sorted(PlacementList(reference.begin(), reference.end()))) << context;
  // Resolution order is a function of the network alone.
  EXPECT_EQ(ExtractPlacements(manager).placements, flat) << context;
  return flat.size();
}

enum class ExtractPolicy { kQuincyLocality, kLoadSpreading };

class ExtractionEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ExtractPolicy, uint64_t>> {};

// Randomized clusters under Quincy with block locality (task -> X -> rack
// -> machine aggregator chains, preference arcs, per-job unscheduled
// aggregators) and load spreading, over several rounds with running tasks.
// Each round's graph is solved to optimality by cost scaling and by
// relaxation, truncated by relaxation's time budget (kApproximate
// pseudoflows), and perturbed into a pseudoflow with unrouted excess at a
// machine; the flat extractor must match the reference on every flow.
TEST_P(ExtractionEquivalenceTest, FlatExtractionMatchesListingOneReference) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  ClusterState cluster;
  BlockStore store(&cluster, seed + 1);
  std::unique_ptr<SchedulingPolicy> policy;
  if (kind == ExtractPolicy::kQuincyLocality) {
    policy = std::make_unique<QuincyPolicy>(&cluster, &store);
  } else {
    policy = std::make_unique<LoadSpreadingPolicy>(&cluster);
  }
  FlowGraphManager manager(&cluster, policy.get());
  int64_t slots = 0;
  const int racks = static_cast<int>(rng.NextInt(2, 4));
  for (int r = 0; r < racks; ++r) {
    RackId rack = cluster.AddRack();
    const int machines = static_cast<int>(rng.NextInt(2, 5));
    for (int m = 0; m < machines; ++m) {
      MachineSpec spec;
      spec.slots = static_cast<int32_t>(rng.NextInt(1, 3));
      slots += spec.slots;
      manager.AddMachine(cluster.AddMachine(rack, spec));
    }
  }

  SimTime now = 0;
  for (int round = 0; round < 3; ++round) {
    const std::string context = "seed " + std::to_string(seed) + " round " + std::to_string(round);
    // About two thirds of the cluster per round: later rounds oversubscribe,
    // so some tasks route through their unscheduled aggregator.
    const int jobs = static_cast<int>(rng.NextInt(1, 3));
    for (int j = 0; j < jobs; ++j) {
      JobId job = cluster.SubmitJob(JobType::kBatch, 0, now);
      const int tasks = static_cast<int>(rng.NextInt(1, 2 * slots / (3 * jobs) + 1));
      for (int t = 0; t < tasks; ++t) {
        TaskDescriptor desc;
        desc.runtime = 100 * kSec;
        if (kind == ExtractPolicy::kQuincyLocality) {
          desc.input_size_bytes = rng.NextInt(1, 8) * store.block_size();
          desc.input_blocks = store.AllocateInput(desc.input_size_bytes);
        }
        manager.AddTask(cluster.AddTaskToJob(job, desc), now);
      }
    }
    manager.UpdateRound(now);
    const FlowNetwork base = *manager.network();
    const size_t live_tasks = manager.num_task_nodes();

    CostScaling cost_scaling;
    FlowNetwork cs_net = base;
    ASSERT_EQ(cost_scaling.Solve(&cs_net).outcome, SolveOutcome::kOptimal) << context;
    Relaxation relaxation;
    FlowNetwork relax_net = base;
    ASSERT_EQ(relaxation.Solve(&relax_net).outcome, SolveOutcome::kOptimal) << context;
    for (const FlowNetwork* optimal : {&relax_net, &cs_net}) {
      manager.network()->CopyFlowFrom(*optimal);
      EXPECT_EQ(ExpectExtractionMatchesReference(manager, context + " optimal"), live_tasks)
          << context;
    }

    // Budget-truncated relaxation: whatever pseudoflow the budget leaves.
    for (uint64_t budget_us : {1, 5, 20, 100}) {
      RelaxationOptions options;
      options.time_budget_us = budget_us;
      Relaxation truncated(options);
      FlowNetwork net = base;
      SolveStats stats = truncated.Solve(&net);
      ASSERT_TRUE(stats.outcome == SolveOutcome::kOptimal ||
                  stats.outcome == SolveOutcome::kApproximate)
          << context;
      manager.network()->CopyFlowFrom(net);
      ExpectExtractionMatchesReference(manager,
                                       context + " budget " + std::to_string(budget_us) + "us");
    }

    // Unrouted excess, deterministically: one unit of a machine's sink flow
    // goes missing, so the machine resolves short and some task upstream
    // of it never does.
    FlowNetwork short_net = cs_net;
    for (ArcId arc = 0; arc < short_net.ArcCapacityBound(); ++arc) {
      if (short_net.IsValidArc(arc) && short_net.Dst(arc) == manager.sink() &&
          short_net.Kind(short_net.Src(arc)) == NodeKind::kMachine && short_net.Flow(arc) > 0) {
        short_net.SetFlow(arc, short_net.Flow(arc) - 1);
        break;
      }
    }
    manager.network()->CopyFlowFrom(short_net);
    EXPECT_LT(ExpectExtractionMatchesReference(manager, context + " short"), live_tasks)
        << context;

    // Apply the optimal placements so the next round has running tasks.
    manager.network()->CopyFlowFrom(cs_net);
    for (const auto& [task, machine] : ExtractPlacements(manager).placements) {
      if (machine != kInvalidMachineId && cluster.task(task).state == TaskState::kWaiting) {
        cluster.PlaceTask(task, machine, now);
      }
    }
    now += kSec;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ExtractionEquivalenceTest,
    ::testing::Combine(::testing::Values(ExtractPolicy::kQuincyLocality,
                                         ExtractPolicy::kLoadSpreading),
                       ::testing::Range<uint64_t>(1, 6)));

}  // namespace
}  // namespace firmament
