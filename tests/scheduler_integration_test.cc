// Integration and property tests across the scheduler stack: every policy
// must produce capacity-respecting, optimality-certified placements through
// long sequences of cluster events, and the simulator's accounting must stay
// consistent.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/load_spreading_policy.h"
#include "src/core/network_aware_policy.h"
#include "src/core/quincy_policy.h"
#include "src/core/scheduler.h"
#include "src/sim/block_store.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/sim/trace_generator.h"
#include "src/solvers/solution_checker.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

enum class Policy { kLoadSpreading, kQuincy, kQuincyWithLocality, kNetworkAware };

struct Stack {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  std::unique_ptr<SchedulingPolicy> policy;
  std::unique_ptr<FirmamentScheduler> scheduler;
};

std::unique_ptr<Stack> MakeStack(Policy kind, int racks, int per_rack, int slots,
                                 SolverMode mode = SolverMode::kRace) {
  auto stack = std::make_unique<Stack>();
  switch (kind) {
    case Policy::kLoadSpreading:
      stack->policy = std::make_unique<LoadSpreadingPolicy>(&stack->cluster);
      break;
    case Policy::kQuincy:
      stack->policy = std::make_unique<QuincyPolicy>(&stack->cluster, nullptr);
      break;
    case Policy::kQuincyWithLocality:
      stack->store = std::make_unique<BlockStore>(&stack->cluster, 11);
      stack->policy = std::make_unique<QuincyPolicy>(&stack->cluster, stack->store.get());
      break;
    case Policy::kNetworkAware:
      stack->policy = std::make_unique<NetworkAwarePolicy>(&stack->cluster);
      break;
  }
  FirmamentSchedulerOptions options;
  options.solver.mode = mode;
  stack->scheduler =
      std::make_unique<FirmamentScheduler>(&stack->cluster, stack->policy.get(), options);
  for (int r = 0; r < racks; ++r) {
    RackId rack = stack->cluster.AddRack();
    for (int m = 0; m < per_rack; ++m) {
      stack->scheduler->AddMachine(rack, MachineSpec{.slots = slots});
    }
  }
  return stack;
}

void VerifyInvariants(Stack* stack, const char* context) {
  // Capacity: no machine over its slots.
  for (const MachineDescriptor& machine : stack->cluster.machines()) {
    if (machine.alive) {
      EXPECT_LE(machine.running_tasks, machine.spec.slots) << context;
    }
  }
  // Running tasks point at alive machines; waiting tasks at none.
  for (TaskId task : stack->cluster.LiveTasks()) {
    const TaskDescriptor& desc = stack->cluster.task(task);
    if (desc.state == TaskState::kRunning) {
      EXPECT_TRUE(stack->cluster.machine(desc.machine).alive) << context;
    } else {
      EXPECT_EQ(desc.machine, kInvalidMachineId) << context;
    }
  }
  // The solved flow passes the §4 conditions.
  CheckResult check = CheckOptimality(*stack->scheduler->graph_manager().network());
  EXPECT_TRUE(check.ok()) << context << ": " << check.message;
  // The manager's bookkeeping agrees with the graph (CHECKs on violation).
  EXPECT_GT(stack->scheduler->graph_manager().ValidateIntegrity(), 0u) << context;
}

struct PolicyParam {
  Policy policy;
  SolverMode mode;
  const char* name;
};

class PolicySweepTest : public ::testing::TestWithParam<PolicyParam> {};

TEST_P(PolicySweepTest, EventSequencePreservesInvariants) {
  const PolicyParam& param = GetParam();
  auto stack = MakeStack(param.policy, 2, 6, 3, param.mode);
  Rng rng(1234);
  SimTime now = 0;

  for (int round = 0; round < 12; ++round) {
    now += kSec;
    // Random event mix.
    double choice = rng.NextDouble();
    if (choice < 0.5) {
      int tasks = static_cast<int>(rng.NextInt(1, 8));
      std::vector<TaskDescriptor> descriptors(static_cast<size_t>(tasks));
      for (TaskDescriptor& task : descriptors) {
        task.runtime = 30 * kSec;
        task.bandwidth_request_mbps = rng.NextInt(100, 800);
        if (stack->store != nullptr) {
          task.input_size_bytes = rng.NextInt(250'000'000, 2'000'000'000);
          task.input_blocks = stack->store->AllocateInput(task.input_size_bytes);
        }
      }
      stack->scheduler->SubmitJob(rng.NextBool(0.3) ? JobType::kService : JobType::kBatch,
                                  static_cast<int32_t>(rng.NextInt(0, 2)),
                                  std::move(descriptors), now);
    } else if (choice < 0.8) {
      // Complete up to 3 running tasks.
      std::vector<TaskId> running;
      for (TaskId task : stack->cluster.LiveTasks()) {
        if (stack->cluster.task(task).state == TaskState::kRunning) {
          running.push_back(task);
        }
      }
      for (int i = 0; i < 3 && !running.empty(); ++i) {
        size_t idx = rng.NextUint64(running.size());
        stack->scheduler->CompleteTask(running[idx], now);
        running[idx] = running.back();
        running.pop_back();
      }
    }
    stack->scheduler->RunSchedulingRound(now);
    VerifyInvariants(stack.get(), param.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweepTest,
    ::testing::Values(
        PolicyParam{Policy::kLoadSpreading, SolverMode::kRace, "load_spreading/race"},
        PolicyParam{Policy::kLoadSpreading, SolverMode::kCostScalingOnly, "load_spreading/cs"},
        PolicyParam{Policy::kQuincy, SolverMode::kRace, "quincy/race"},
        PolicyParam{Policy::kQuincy, SolverMode::kRelaxationOnly, "quincy/relax"},
        PolicyParam{Policy::kQuincyWithLocality, SolverMode::kRace, "quincy_locality/race"},
        PolicyParam{Policy::kQuincyWithLocality, SolverMode::kCostScalingScratch,
                    "quincy_locality/scratch"},
        PolicyParam{Policy::kNetworkAware, SolverMode::kRace, "network_aware/race"},
        PolicyParam{Policy::kNetworkAware, SolverMode::kCostScalingOnly, "network_aware/cs"}));

// ---------------------------------------------------------------------------
// Machine failures mid-workload for each policy.
// ---------------------------------------------------------------------------

class FailureSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(FailureSweepTest, MachineFailuresRescheduleEverything) {
  auto stack = MakeStack(static_cast<Policy>(GetParam()), 2, 5, 4);
  std::vector<TaskDescriptor> tasks(20);
  for (TaskDescriptor& task : tasks) {
    task.runtime = 100 * kSec;
    task.bandwidth_request_mbps = 200;
  }
  stack->scheduler->SubmitJob(JobType::kBatch, 0, std::move(tasks), 0);
  stack->scheduler->RunSchedulingRound(kSec);
  EXPECT_EQ(stack->cluster.UsedSlots(), 20);

  // Fail three machines in sequence; capacity stays sufficient (7 x 4 = 28).
  // Ordering contract (DataLocalityInterface::BlocksOnMachine): the
  // scheduler removal — which runs the policy's OnMachineRemoved hook —
  // must see the store's replicas still in place, so the store is told
  // AFTER the scheduler.
  SimTime now = kSec;
  for (MachineId victim = 0; victim < 3; ++victim) {
    now += kSec;
    stack->scheduler->RemoveMachine(victim, now);
    if (stack->store != nullptr) {
      stack->store->OnMachineRemoved(victim);
    }
    stack->scheduler->RunSchedulingRound(now + kSec / 2);
    VerifyInvariants(stack.get(), "failure sweep");
  }
  EXPECT_EQ(stack->cluster.UsedSlots(), 20);  // everything re-placed
}

INSTANTIATE_TEST_SUITE_P(Policies, FailureSweepTest, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Infeasible rounds must not crash the scheduler: the outcome is propagated
// in SchedulerRoundResult, no deltas are applied, tasks stay waiting, and a
// later feasible round recovers.
// ---------------------------------------------------------------------------

class InfeasibleRoundTest : public ::testing::TestWithParam<SolverMode> {};

TEST_P(InfeasibleRoundTest, InfeasibleRoundLeavesTasksUnscheduledAndRecovers) {
  auto stack = MakeStack(Policy::kLoadSpreading, 1, 2, 2, GetParam());
  stack->scheduler->SubmitJob(JobType::kBatch, 0,
                              std::vector<TaskDescriptor>(6, TaskDescriptor{}), 0);

  // Sever the escape hatch: cap the job's unscheduled-aggregator -> sink arc
  // at zero. With 6 tasks and only 4 slots, the round is now infeasible —
  // the situation a crashed machine's worth of capacity loss used to
  // hard-CHECK the process on.
  FlowNetwork* net = stack->scheduler->graph_manager().network();
  NodeId sink = stack->scheduler->graph_manager().sink();
  ArcId unsched_to_sink = kInvalidArcId;
  int64_t original_capacity = 0;
  for (NodeId node : net->ValidNodes()) {
    if (net->Kind(node) != NodeKind::kUnscheduled) {
      continue;
    }
    for (ArcRef ref : net->Adjacency(node)) {
      if (!FlowNetwork::RefIsReverse(ref) &&
          net->Dst(FlowNetwork::RefArc(ref)) == sink) {
        unsched_to_sink = FlowNetwork::RefArc(ref);
        original_capacity = net->Capacity(unsched_to_sink);
      }
    }
  }
  ASSERT_NE(unsched_to_sink, kInvalidArcId);
  net->SetArcCapacity(unsched_to_sink, 0);

  SchedulerRoundResult result = stack->scheduler->RunSchedulingRound(kSec);
  EXPECT_EQ(result.outcome, SolveOutcome::kInfeasible);
  EXPECT_TRUE(result.deltas.empty());
  EXPECT_EQ(result.tasks_placed, 0u);
  EXPECT_EQ(result.tasks_unscheduled, 6u);
  for (TaskId task : stack->cluster.LiveTasks()) {
    EXPECT_EQ(stack->cluster.task(task).state, TaskState::kWaiting);
  }

  // Restore the unscheduled capacity; the next round must recover, placing
  // up to the 4 available slots and routing the rest through the
  // unscheduled aggregator.
  net->SetArcCapacity(unsched_to_sink, original_capacity);
  SchedulerRoundResult recovered = stack->scheduler->RunSchedulingRound(2 * kSec);
  EXPECT_EQ(recovered.outcome, SolveOutcome::kOptimal);
  EXPECT_EQ(recovered.tasks_placed, 4u);
  EXPECT_EQ(recovered.tasks_unscheduled, 2u);
  VerifyInvariants(stack.get(), "infeasible recovery");
}

INSTANTIATE_TEST_SUITE_P(Modes, InfeasibleRoundTest,
                         ::testing::Values(SolverMode::kRace, SolverMode::kCostScalingOnly,
                                           SolverMode::kRelaxationOnly));

// ---------------------------------------------------------------------------
// Robustness: phase-split races, stale events, solve budgets, recovery.
// ---------------------------------------------------------------------------

// A machine failure report that lands between StartRound and ApplyRound —
// reaching the cluster while the solved flow still routes tasks to the
// victim — must drop exactly the victim's deltas (like completed-task
// deltas) instead of placing tasks on a dead machine, and the next round's
// integrity pass must repair the cluster <-> graph divergence.
TEST(PhaseSplitRoundTest, MachineRemovedMidRoundDropsItsDeltas) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentSchedulerOptions options;
  options.check_integrity = true;
  FirmamentScheduler scheduler(&cluster, &policy, options);
  RackId rack = cluster.AddRack();
  MachineId m0 = scheduler.AddMachine(rack, MachineSpec{.slots = 4});
  MachineId m1 = scheduler.AddMachine(rack, MachineSpec{.slots = 4});
  scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(8, TaskDescriptor{}), 0);

  scheduler.StartRound(kSec);
  // The race: the failure report mutates the cluster mid-round; the graph
  // (and the solved flow) still believe m0 exists.
  ASSERT_TRUE(cluster.RemoveMachine(m0));

  SchedulerRoundResult result = scheduler.ApplyRound(kSec + 1000);
  EXPECT_EQ(result.outcome, SolveOutcome::kOptimal);
  EXPECT_EQ(result.tasks_placed, 4u);      // m1's share applies normally
  EXPECT_EQ(result.deltas_dropped, 4u);    // m0's share is dropped
  EXPECT_EQ(result.tasks_unscheduled, 4u);
  for (TaskId task : cluster.LiveTasks()) {
    const TaskDescriptor& desc = cluster.task(task);
    if (desc.state == TaskState::kRunning) {
      EXPECT_EQ(desc.machine, m1) << "placement must only target alive machines";
    }
  }

  // Next round: the graph still maps the dead machine; the integrity pass
  // must detect the divergence, rebuild, and schedule normally.
  SchedulerRoundResult next = scheduler.RunSchedulingRound(2 * kSec);
  EXPECT_FALSE(next.recovery_actions.empty());
  bool rebuilt = false;
  for (const RecoveryAction& action : next.recovery_actions) {
    rebuilt = rebuilt || action.kind == RecoveryActionKind::kRebuiltGraph;
  }
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(next.outcome, SolveOutcome::kOptimal);
  EXPECT_EQ(cluster.UsedSlots(), 4);  // m1 full; the rest wait for capacity
  EXPECT_GT(scheduler.graph_manager().ValidateIntegrity(), 0u);
}

// Load spreading plus a cheap direct arc from every waiting task that has
// input to one pinned machine, so such a task's flow goes straight to that
// machine and stays on the same arc for as long as the task waits.
class PinnedWaitPolicy : public LoadSpreadingPolicy {
 public:
  PinnedWaitPolicy(const ClusterState* cluster, MachineId pinned)
      : LoadSpreadingPolicy(cluster), pinned_(pinned) {}
  void Initialize(FlowGraphManager* manager) override {
    manager_ = manager;
    LoadSpreadingPolicy::Initialize(manager);
  }
  void TaskSpecificArcs(const TaskDescriptor& task, SimTime now,
                        std::vector<ArcSpec>* out) override {
    LoadSpreadingPolicy::TaskSpecificArcs(task, now, out);
    if (task.state == TaskState::kWaiting && task.input_size_bytes > 0) {
      out->push_back({manager_->NodeForMachine(pinned_), 1, -1000, 0});
    }
  }

 private:
  MachineId pinned_;
  FlowGraphManager* manager_ = nullptr;
};

// A place delta dropped because a mid-round template install took its slot
// leaves the task waiting while its flow may stay exactly where it was: the
// next round must still revisit the task and place it.
TEST(PhaseSplitRoundTest, DroppedDeltaIsRevisitedWhenItsFlowStaysPut) {
  ClusterState cluster;
  PinnedWaitPolicy policy(&cluster, /*pinned=*/0);
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  options.enable_templates = true;
  FirmamentScheduler scheduler(&cluster, &policy, options);
  RackId rack = cluster.AddRack();
  MachineId m0 = scheduler.AddMachine(rack, MachineSpec{.slots = 1});
  ASSERT_EQ(m0, 0u);

  // Record a one-task template on m0, then free the slot.
  JobId warm = scheduler.SubmitJob(JobType::kBatch, 0, {TaskDescriptor{}}, 0);
  scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(scheduler.template_stats().recordings, 1u);
  scheduler.CompleteTask(cluster.job(warm).tasks[0], kSec + 1);
  MachineId m1 = scheduler.AddMachine(rack, MachineSpec{.slots = 1});
  scheduler.RunSchedulingRound(2 * kSec);

  // A pinned task (another shape: no template) is solved onto m0 ...
  TaskDescriptor pinned_task;
  pinned_task.input_size_bytes = 1;
  JobId pinned_job = scheduler.SubmitJob(JobType::kBatch, 1, {pinned_task}, 3 * kSec);
  TaskId pinned = cluster.job(pinned_job).tasks[0];
  scheduler.StartRound(3 * kSec);
  // ... while an install of the recorded shape takes m0's slot mid-round.
  TemplateInstallResult install;
  JobId installed_job =
      scheduler.SubmitJob(JobType::kBatch, 0, {TaskDescriptor{}}, 3 * kSec + 1, &install);
  ASSERT_TRUE(install.installed);
  TaskId installed = cluster.job(installed_job).tasks[0];
  ASSERT_EQ(cluster.task(installed).machine, m0);
  SchedulerRoundResult dropped = scheduler.ApplyRound(3 * kSec + 1000);
  EXPECT_EQ(dropped.deltas_dropped, 1u);
  EXPECT_EQ(cluster.task(pinned).state, TaskState::kWaiting);

  // Next round the pinned arc still wins m0, so the pinned task's flow does
  // not move; the installed task migrates to m1 instead.
  SchedulerRoundResult next = scheduler.RunSchedulingRound(4 * kSec);
  EXPECT_EQ(next.tasks_placed, 1u);
  EXPECT_EQ(next.tasks_migrated, 1u);
  EXPECT_EQ(cluster.task(pinned).state, TaskState::kRunning);
  EXPECT_EQ(cluster.task(pinned).machine, m0);
  EXPECT_EQ(cluster.task(installed).machine, m1);
}

// ---------------------------------------------------------------------------
// Mid-round staging contract (scheduler.h): between StartRound and
// ApplyRound the ClusterState half of every event applies eagerly while the
// flow-graph half (and its policy hooks) stages; ApplyRound replays the
// staged half after placement extraction, in arrival order.
// ---------------------------------------------------------------------------

TEST(MidRoundStagingTest, SubmitJobMidRoundStagesGraphHalf) {
  auto stack = MakeStack(Policy::kLoadSpreading, 1, 2, 4);
  stack->scheduler->SubmitJob(JobType::kBatch, 0,
                              std::vector<TaskDescriptor>(4, TaskDescriptor{}), 0);
  stack->scheduler->StartRound(kSec);
  size_t nodes_before = stack->scheduler->graph_manager().num_task_nodes();

  JobId job = stack->scheduler->SubmitJob(
      JobType::kBatch, 0, std::vector<TaskDescriptor>(3, TaskDescriptor{}), kSec);
  // Cluster half eager: ids minted, descriptors queryable.
  ASSERT_EQ(stack->cluster.job(job).tasks.size(), 3u);
  for (TaskId task : stack->cluster.job(job).tasks) {
    EXPECT_EQ(stack->cluster.task(task).state, TaskState::kWaiting);
    // Graph half staged: no node yet.
    EXPECT_FALSE(stack->scheduler->graph_manager().HasTask(task));
  }
  EXPECT_EQ(stack->scheduler->graph_manager().num_task_nodes(), nodes_before);
  EXPECT_EQ(stack->scheduler->staged_events(), 1u);

  stack->scheduler->ApplyRound(kSec + 1000);
  EXPECT_EQ(stack->scheduler->staged_events(), 0u);
  for (TaskId task : stack->cluster.job(job).tasks) {
    EXPECT_TRUE(stack->scheduler->graph_manager().HasTask(task)) << "replayed at ApplyRound";
  }
  // The replayed tasks schedule normally next round (8 slots, 7 tasks).
  SchedulerRoundResult next = stack->scheduler->RunSchedulingRound(2 * kSec);
  EXPECT_EQ(next.outcome, SolveOutcome::kOptimal);
  EXPECT_EQ(stack->cluster.UsedSlots(), 7);
  VerifyInvariants(stack.get(), "submit mid-round");
}

TEST(MidRoundStagingTest, CompleteTaskMidRoundStagesRemovalAndSkipsItsDeltas) {
  auto stack = MakeStack(Policy::kLoadSpreading, 1, 2, 4);
  stack->scheduler->SubmitJob(JobType::kBatch, 0,
                              std::vector<TaskDescriptor>(4, TaskDescriptor{}), 0);
  stack->scheduler->RunSchedulingRound(kSec);
  TaskId victim = stack->cluster.LiveTasks().front();
  ASSERT_EQ(stack->cluster.task(victim).state, TaskState::kRunning);

  stack->scheduler->StartRound(2 * kSec);
  stack->scheduler->CompleteTask(victim, 2 * kSec + 10);
  // Cluster half eager (slot freed, state flipped); ForgetTask deferred
  // with the graph removal, so the descriptor is still queryable.
  ASSERT_TRUE(stack->cluster.HasTask(victim));
  EXPECT_EQ(stack->cluster.task(victim).state, TaskState::kCompleted);
  // Graph half staged: the node (and its solved flow) survive the round.
  EXPECT_TRUE(stack->scheduler->graph_manager().HasTask(victim));
  EXPECT_EQ(stack->scheduler->staged_events(), 1u);

  SchedulerRoundResult result = stack->scheduler->ApplyRound(2 * kSec + 1000);
  EXPECT_EQ(result.outcome, SolveOutcome::kOptimal);
  // The completed task needed no action from the diff, and the replay
  // removed both graph node and descriptor.
  EXPECT_FALSE(stack->scheduler->graph_manager().HasTask(victim));
  EXPECT_FALSE(stack->cluster.HasTask(victim));
  EXPECT_EQ(stack->scheduler->staged_events(), 0u);
  stack->scheduler->RunSchedulingRound(3 * kSec);
  VerifyInvariants(stack.get(), "complete mid-round");
}

TEST(MidRoundStagingTest, RemoveMachineMidRoundDefersHookAndCallback) {
  auto stack = MakeStack(Policy::kLoadSpreading, 1, 3, 2);
  stack->scheduler->SubmitJob(JobType::kBatch, 0,
                              std::vector<TaskDescriptor>(6, TaskDescriptor{}), 0);
  stack->scheduler->RunSchedulingRound(kSec);
  ASSERT_EQ(stack->cluster.UsedSlots(), 6);

  stack->scheduler->StartRound(2 * kSec);
  MachineId victim = 0;
  bool notified = false;
  FirmamentScheduler* scheduler = stack->scheduler.get();
  stack->scheduler->RemoveMachine(victim, 2 * kSec, [&notified, scheduler, victim] {
    notified = true;
    // Ordering contract: by the time the caller's notification runs, the
    // machine's graph node is gone (the policy hook has already read any
    // locality state the callback is about to drop).
    EXPECT_EQ(scheduler->graph_manager().NodeForMachine(victim), kInvalidNodeId);
  });
  // Cluster half eager: machine dead, its tasks evicted back to waiting.
  EXPECT_FALSE(stack->cluster.machine(victim).alive);
  // Graph half + caller notification deferred.
  EXPECT_NE(stack->scheduler->graph_manager().NodeForMachine(victim), kInvalidNodeId);
  EXPECT_FALSE(notified);
  EXPECT_EQ(stack->scheduler->staged_events(), 1u);

  stack->scheduler->ApplyRound(2 * kSec + 1000);
  EXPECT_TRUE(notified);
  EXPECT_EQ(stack->scheduler->graph_manager().NodeForMachine(victim), kInvalidNodeId);
  stack->scheduler->RunSchedulingRound(3 * kSec);
  EXPECT_EQ(stack->cluster.UsedSlots(), 4);  // 2 machines x 2 slots survive
  VerifyInvariants(stack.get(), "remove mid-round");
}

TEST(MidRoundStagingTest, AddMachineMidRoundMintsIdEagerlyStagesNode) {
  auto stack = MakeStack(Policy::kLoadSpreading, 1, 1, 2);
  stack->scheduler->SubmitJob(JobType::kBatch, 0,
                              std::vector<TaskDescriptor>(4, TaskDescriptor{}), 0);
  stack->scheduler->StartRound(kSec);

  MachineId added = stack->scheduler->AddMachine(0, MachineSpec{.slots = 2});
  // Cluster half eager: id minted, descriptor live.
  ASSERT_NE(added, kInvalidMachineId);
  EXPECT_TRUE(stack->cluster.machine(added).alive);
  EXPECT_EQ(stack->cluster.num_machines(), 2u);
  // Graph half staged: no node mid-round.
  EXPECT_EQ(stack->scheduler->graph_manager().NodeForMachine(added), kInvalidNodeId);
  EXPECT_EQ(stack->scheduler->staged_events(), 1u);

  SchedulerRoundResult result = stack->scheduler->ApplyRound(kSec + 1000);
  EXPECT_EQ(result.tasks_placed, 2u) << "round solved against the old capacity";
  EXPECT_NE(stack->scheduler->graph_manager().NodeForMachine(added), kInvalidNodeId);
  // The new capacity is schedulable from the next round on.
  stack->scheduler->RunSchedulingRound(2 * kSec);
  EXPECT_EQ(stack->cluster.UsedSlots(), 4);
  VerifyInvariants(stack.get(), "add mid-round");
}

TEST(MidRoundStagingTest, DuplicateTemplateInstallsMidRoundStageCleanly) {
  // Two identical-signature submissions landing while a round is in flight
  // must both install from the template (fresh task ids each), stage their
  // graph halves, and replay without tripping the duplicate-delivery
  // counter — installs mint new tasks, they never re-deliver old ones.
  auto stack = std::make_unique<Stack>();
  stack->policy = std::make_unique<LoadSpreadingPolicy>(&stack->cluster);
  FirmamentSchedulerOptions options;
  options.enable_templates = true;
  stack->scheduler =
      std::make_unique<FirmamentScheduler>(&stack->cluster, stack->policy.get(), options);
  RackId rack = stack->cluster.AddRack();
  for (int m = 0; m < 2; ++m) {
    stack->scheduler->AddMachine(rack, MachineSpec{.slots = 4});
  }

  // Record the template: solve one instance of the shape, then free it.
  JobId warm = stack->scheduler->SubmitJob(JobType::kBatch, 0,
                                           std::vector<TaskDescriptor>(2, TaskDescriptor{}), 0);
  stack->scheduler->RunSchedulingRound(kSec);
  for (TaskId task : stack->cluster.job(warm).tasks) {
    stack->scheduler->CompleteTask(task, kSec + 1);
  }

  stack->scheduler->StartRound(2 * kSec);
  TemplateInstallResult first;
  TemplateInstallResult second;
  JobId job1 = stack->scheduler->SubmitJob(
      JobType::kBatch, 0, std::vector<TaskDescriptor>(2, TaskDescriptor{}), 2 * kSec + 1,
      &first);
  JobId job2 = stack->scheduler->SubmitJob(
      JobType::kBatch, 0, std::vector<TaskDescriptor>(2, TaskDescriptor{}), 2 * kSec + 2,
      &second);
  EXPECT_TRUE(first.installed);
  EXPECT_TRUE(second.installed) << "second install validated against post-first capacity";
  // Cluster half eager: both jobs running mid-round; graph half staged.
  for (JobId job : {job1, job2}) {
    for (TaskId task : stack->cluster.job(job).tasks) {
      EXPECT_EQ(stack->cluster.task(task).state, TaskState::kRunning);
      EXPECT_FALSE(stack->scheduler->graph_manager().HasTask(task));
    }
  }
  EXPECT_EQ(stack->scheduler->staged_events(), 2u);

  stack->scheduler->ApplyRound(2 * kSec + 1000);
  EXPECT_EQ(stack->scheduler->staged_events(), 0u);
  EXPECT_EQ(stack->scheduler->event_counters().ignored_task_submissions, 0u);
  for (JobId job : {job1, job2}) {
    for (TaskId task : stack->cluster.job(job).tasks) {
      EXPECT_TRUE(stack->scheduler->graph_manager().HasTask(task));
    }
  }
  EXPECT_EQ(stack->cluster.UsedSlots(), 4);
  EXPECT_EQ(stack->scheduler->template_stats().hits, 2u);
  stack->scheduler->RunSchedulingRound(3 * kSec);
  VerifyInvariants(stack.get(), "duplicate template installs mid-round");
}

// The async round (StartRoundAsync + ApplyRound) must produce exactly what
// the synchronous phase split produces for the same event script — the
// solve merely moved to the solver's dispatch worker.
TEST(PipelinedRoundTest, AsyncRoundMatchesSyncRound) {
  auto run = [](bool async) {
    auto stack = MakeStack(Policy::kQuincy, 2, 3, 2, SolverMode::kCostScalingOnly);
    stack->scheduler->SubmitJob(JobType::kBatch, 0,
                                std::vector<TaskDescriptor>(7, TaskDescriptor{}), 0);
    if (async) {
      stack->scheduler->StartRoundAsync(kSec);
    } else {
      stack->scheduler->StartRound(kSec);
    }
    // Mid-round traffic, staged identically in both variants.
    stack->scheduler->SubmitJob(JobType::kBatch, 0,
                                std::vector<TaskDescriptor>(2, TaskDescriptor{}), kSec + 1);
    SchedulerRoundResult round1 = stack->scheduler->ApplyRound(kSec + 1000);
    SchedulerRoundResult round2 = stack->scheduler->RunSchedulingRound(2 * kSec);
    VerifyInvariants(stack.get(), async ? "async round" : "sync round");
    std::vector<SchedulingDelta> deltas = round1.deltas;
    deltas.insert(deltas.end(), round2.deltas.begin(), round2.deltas.end());
    return deltas;
  };
  std::vector<SchedulingDelta> sync_deltas = run(false);
  std::vector<SchedulingDelta> async_deltas = run(true);
  ASSERT_EQ(sync_deltas.size(), async_deltas.size());
  for (size_t i = 0; i < sync_deltas.size(); ++i) {
    EXPECT_EQ(sync_deltas[i].kind, async_deltas[i].kind) << "delta " << i;
    EXPECT_EQ(sync_deltas[i].task, async_deltas[i].task) << "delta " << i;
    EXPECT_EQ(sync_deltas[i].from, async_deltas[i].from) << "delta " << i;
    EXPECT_EQ(sync_deltas[i].to, async_deltas[i].to) << "delta " << i;
  }
}

// Stale cluster events — duplicated or targeting finished entities — must
// be ignored and counted, never CHECK-abort (see the idempotency contract
// in scheduler.h).
TEST(IdempotentEventsTest, StaleEventsAreCountedNotFatal) {
  auto stack = MakeStack(Policy::kLoadSpreading, 1, 3, 2);  // 6 slots
  stack->scheduler->SubmitJob(JobType::kBatch, 0,
                              std::vector<TaskDescriptor>(8, TaskDescriptor{}), 0);
  stack->scheduler->RunSchedulingRound(kSec);  // 6 run, 2 wait

  // Double RemoveMachine and removal of an unknown machine.
  stack->scheduler->RemoveMachine(0, 2 * kSec);
  stack->scheduler->RemoveMachine(0, 2 * kSec);   // duplicate report
  stack->scheduler->RemoveMachine(99, 2 * kSec);  // unknown machine
  EXPECT_EQ(stack->scheduler->event_counters().ignored_machine_removals, 2u);

  // CompleteTask on a waiting (evicted or never-placed) task and on an
  // unknown id.
  TaskId waiting = kInvalidTaskId;
  TaskId running = kInvalidTaskId;
  for (TaskId task : stack->cluster.LiveTasks()) {
    if (stack->cluster.task(task).state == TaskState::kWaiting) {
      waiting = task;
    } else {
      running = task;
    }
  }
  ASSERT_NE(waiting, kInvalidTaskId);
  ASSERT_NE(running, kInvalidTaskId);
  stack->scheduler->CompleteTask(waiting, 2 * kSec);
  EXPECT_EQ(stack->cluster.task(waiting).state, TaskState::kWaiting) << "must not mutate";
  stack->scheduler->CompleteTask(987654, 2 * kSec);
  EXPECT_EQ(stack->scheduler->event_counters().ignored_task_completions, 2u);

  // A genuine completion works; its duplicate is then ignored.
  stack->scheduler->CompleteTask(running, 2 * kSec);
  stack->scheduler->CompleteTask(running, 2 * kSec);
  EXPECT_EQ(stack->scheduler->event_counters().ignored_task_completions, 3u);

  stack->scheduler->RunSchedulingRound(3 * kSec);
  VerifyInvariants(stack.get(), "after stale events");
}

// A round whose solve budget expires before a usable flow exists must come
// back kDegraded: no deltas, placements untouched by the round (tasks
// evicted by a storm stay waiting; everything else keeps its machine), and
// SolveStats reporting deadline_exceeded.
TEST(SolveBudgetTest, BudgetExpiryDegradesRoundAndKeepsPlacements) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  options.solver.solve_budget_us = 10'000;  // 10 ms
  FirmamentScheduler scheduler(&cluster, &policy, options);
  RackId rack = cluster.AddRack();
  std::vector<MachineId> machines;
  for (int m = 0; m < 16; ++m) {
    machines.push_back(scheduler.AddMachine(rack, MachineSpec{.slots = 8}));
  }

  // Round 1: a small job solves comfortably inside the budget.
  scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(10, TaskDescriptor{}),
                      0);
  SchedulerRoundResult first = scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(first.outcome, SolveOutcome::kOptimal);
  ASSERT_EQ(first.tasks_placed, 10u);
  EXPECT_FALSE(first.solver_stats.deadline_exceeded);
  std::map<TaskId, MachineId> before;
  MachineId victim = kInvalidMachineId;
  for (TaskId task : cluster.LiveTasks()) {
    before[task] = cluster.task(task).machine;
    victim = cluster.task(task).machine;  // any machine hosting a task
  }
  ASSERT_NE(victim, kInvalidMachineId);

  // A storm takes the victim down (its tasks go back to waiting), and a
  // burst far beyond the budget arrives.
  scheduler.RemoveMachine(victim, 2 * kSec);
  scheduler.SubmitJob(JobType::kBatch, 0,
                      std::vector<TaskDescriptor>(10'000, TaskDescriptor{}), 2 * kSec);

  SchedulerRoundResult degraded = scheduler.RunSchedulingRound(3 * kSec);
  ASSERT_EQ(degraded.outcome, SolveOutcome::kDegraded);
  EXPECT_TRUE(degraded.solver_stats.deadline_exceeded);
  EXPECT_LE(degraded.solver_stats.budget_slack_us, 0);
  EXPECT_TRUE(degraded.deltas.empty());
  EXPECT_EQ(degraded.tasks_placed, 0u);

  // Only the storm touched placements: the victim's tasks wait, everyone
  // else is exactly where round 1 put them.
  for (const auto& [task, machine] : before) {
    const TaskDescriptor& desc = cluster.task(task);
    if (machine == victim) {
      EXPECT_EQ(desc.state, TaskState::kWaiting);
    } else {
      EXPECT_EQ(desc.state, TaskState::kRunning);
      EXPECT_EQ(desc.machine, machine);
    }
  }
}

// check.sh budget gate: the fig03/1250 shape (Quincy, 1250 machines x 10
// slots, ~50% utilization) with a 1 ms solve budget imposed at steady state
// must degrade rather than blocking the round when a large burst arrives.
// The strict wall-time bound (solver stops within 2x the budget) only gates
// when FIRMAMENT_BUDGET_GATE=1 — check.sh sets it on the release binary,
// where deadline-poll granularity is fine-grained enough for the bound to
// hold; sanitizer builds run the functional assertions only.
TEST(SolveBudgetTest, Fig03ShapeDegradesWithinTwiceBudget) {
  constexpr int64_t kBudgetUs = 1'000;
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentSchedulerOptions options;
  options.solver.mode = SolverMode::kCostScalingOnly;
  FirmamentScheduler scheduler(&cluster, &policy, options);
  RackId rack = kInvalidRackId;
  for (int m = 0; m < 1250; ++m) {
    if (m % 48 == 0) {
      rack = cluster.AddRack();
    }
    scheduler.AddMachine(rack, MachineSpec{.slots = 10});
  }
  // Reach the ~50%-utilization steady state on an unbudgeted round (the
  // cold first solve pays the one-time full view build).
  scheduler.SubmitJob(JobType::kBatch, 0,
                      std::vector<TaskDescriptor>(6'250, TaskDescriptor{}), 0);
  SchedulerRoundResult warm = scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(warm.outcome, SolveOutcome::kOptimal);
  ASSERT_EQ(warm.tasks_placed, 6'250u);

  // Load shedding: tighten the budget at runtime, then a burst far beyond
  // 1 ms of solve work arrives.
  scheduler.solver().set_solve_budget_us(kBudgetUs);
  scheduler.SubmitJob(JobType::kBatch, 0,
                      std::vector<TaskDescriptor>(3'000, TaskDescriptor{}), kSec);

  SchedulerRoundResult result = scheduler.RunSchedulingRound(2 * kSec);
  ASSERT_EQ(result.outcome, SolveOutcome::kDegraded);
  EXPECT_TRUE(result.solver_stats.deadline_exceeded);
  EXPECT_TRUE(result.deltas.empty());
  EXPECT_EQ(cluster.UsedSlots(), 6'250);  // round-1 placements untouched
  const char* gate = std::getenv("FIRMAMENT_BUDGET_GATE");
  if (gate != nullptr && gate[0] == '1') {
    // budget_slack_us = budget - elapsed at abandonment, so elapsed stays
    // under 2x budget iff -slack stays under the budget itself.
    EXPECT_LE(-result.solver_stats.budget_slack_us, kBudgetUs)
        << "solver overran a 1 ms budget by more than the budget itself";
  }
}

// Out-of-band graph damage (here: corrupted flow) must be detected by the
// round-start integrity pass and repaired by a full rebuild, after which
// scheduling continues normally.
TEST(IntegrityRecoveryTest, CorruptedFlowIsDetectedAndRebuilt) {
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentSchedulerOptions options;
  options.check_integrity = true;
  FirmamentScheduler scheduler(&cluster, &policy, options);
  RackId rack = cluster.AddRack();
  for (int m = 0; m < 4; ++m) {
    scheduler.AddMachine(rack, MachineSpec{.slots = 4});
  }
  scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(6, TaskDescriptor{}), 0);
  SchedulerRoundResult clean = scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(clean.outcome, SolveOutcome::kOptimal);
  EXPECT_TRUE(clean.recovery_actions.empty());

  // Corrupt: push an arc's flow past its capacity behind the manager's back.
  FlowNetwork* net = scheduler.graph_manager().network();
  ArcId corrupt = kInvalidArcId;
  for (ArcId arc = 0; arc < net->ArcCapacityBound(); ++arc) {
    if (net->IsValidArc(arc)) {
      corrupt = arc;
      break;
    }
  }
  ASSERT_NE(corrupt, kInvalidArcId);
  net->SetFlow(corrupt, net->Capacity(corrupt) + 5);

  IntegrityChecker checker(&cluster, &scheduler.graph_manager());
  EXPECT_FALSE(checker.Check().clean());

  SchedulerRoundResult repaired = scheduler.RunSchedulingRound(2 * kSec);
  EXPECT_FALSE(repaired.recovery_actions.empty());
  bool rebuilt = false;
  for (const RecoveryAction& action : repaired.recovery_actions) {
    rebuilt = rebuilt || action.kind == RecoveryActionKind::kRebuiltGraph;
  }
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(repaired.outcome, SolveOutcome::kOptimal);
  EXPECT_TRUE(checker.Check().clean());
  EXPECT_GT(scheduler.graph_manager().ValidateIntegrity(), 0u);
}

// The waiting count is maintained by the lifecycle methods and read by the
// federation coordinator instead of a task scan, so an out-of-band state
// edit that skips it must be reported and then repaired by the recount.
TEST(IntegrityRecoveryTest, WaitingCountDriftIsDetectedAndRepaired) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentSchedulerOptions options;
  options.check_integrity = true;
  FirmamentScheduler scheduler(&cluster, &policy, options);
  RackId rack = cluster.AddRack();
  scheduler.AddMachine(rack, MachineSpec{.slots = 4});
  JobId job =
      scheduler.SubmitJob(JobType::kBatch, 0, std::vector<TaskDescriptor>(6, TaskDescriptor{}), 0);
  SchedulerRoundResult clean = scheduler.RunSchedulingRound(kSec);
  ASSERT_EQ(clean.tasks_placed, 4u);
  ASSERT_EQ(cluster.num_waiting_tasks(), 2u);

  TaskId edited = kInvalidTaskId;
  for (TaskId task : cluster.job(job).tasks) {
    if (cluster.task(task).state == TaskState::kWaiting) edited = task;
  }
  ASSERT_NE(edited, kInvalidTaskId);
  cluster.mutable_task(edited).state = TaskState::kCompleted;
  EXPECT_EQ(cluster.num_waiting_tasks(), 2u);  // the edit skipped the count

  IntegrityChecker checker(&cluster, &scheduler.graph_manager());
  IntegrityReport report = checker.Check();
  EXPECT_TRUE(std::any_of(report.violations.begin(), report.violations.end(),
                          [](const std::string& v) { return v.find("waiting count") == 0; }));

  SchedulerRoundResult repaired = scheduler.RunSchedulingRound(2 * kSec);
  ASSERT_FALSE(repaired.recovery_actions.empty());
  EXPECT_EQ(repaired.recovery_actions.front().kind, RecoveryActionKind::kRefreshedClusterStats);
  EXPECT_EQ(cluster.num_waiting_tasks(), 1u);
  EXPECT_EQ(repaired.tasks_unscheduled, 1u);
  EXPECT_TRUE(checker.Check().clean());
}

// Deterministic fault injection: the same (seed, params) must produce the
// same schedule and the same victim decisions. The faults themselves run
// through the trace path (TraceReplayTest.FaultStormReplayStaysAccounted).
TEST(FaultInjectorTest, SeededRunsAreDeterministicAndCoherent) {
  FaultInjectorParams fparams;
  fparams.seed = 77;
  fparams.machine_crash_rate = 0.08;
  fparams.storm_probability = 0.3;
  fparams.storm_rack_fraction = 0.5;
  fparams.task_kill_rate = 0.3;
  FaultInjector a(fparams);
  FaultInjector b(fparams);
  std::vector<FaultSpec> sa = a.Schedule(60 * kSec);
  std::vector<FaultSpec> sb = b.Schedule(60 * kSec);
  ASSERT_EQ(sa.size(), sb.size());
  size_t crashes = 0;
  size_t kills = 0;
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].time, sb[i].time);
    EXPECT_EQ(sa[i].kind, sb[i].kind);
    EXPECT_LT(sa[i].time, 60 * kSec);
    if (i > 0) {
      EXPECT_LE(sa[i - 1].time, sa[i].time) << "schedule is merged in time order";
    }
    (sa[i].kind == FaultKind::kMachineCrash ? crashes : kills) += 1;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(kills, 0u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.RollStorm(), b.RollStorm());
    size_t pick = a.PickIndex(10);
    EXPECT_EQ(pick, b.PickIndex(10));
    EXPECT_LT(pick, 10u);
  }
}

// ---------------------------------------------------------------------------
// Wait-cost growth eventually schedules starving tasks (no permanent
// starvation while capacity exists).
// ---------------------------------------------------------------------------

// The race's cost-scaling leg must run on a persistent worker: one thread
// ever, no matter how many rounds raced (the former implementation spawned
// and joined a std::thread per round, putting thread creation on the
// placement-latency critical path). dispatch_us records the handoff that
// replaced the spawn.
TEST(RacingSolverTest, RaceReusesOnePersistentWorkerAcrossRounds) {
  auto stack = MakeStack(Policy::kLoadSpreading, 2, 4, 4, SolverMode::kRace);
  EXPECT_EQ(stack->scheduler->solver().worker_spawns(), 0u) << "no race run yet";
  SimTime now = 0;
  for (int round = 0; round < 5; ++round) {
    now += kSec;
    std::vector<TaskDescriptor> tasks(3);
    for (TaskDescriptor& task : tasks) {
      task.runtime = 30 * kSec;
    }
    stack->scheduler->SubmitJob(JobType::kBatch, 0, std::move(tasks), now);
    SchedulerRoundResult result = stack->scheduler->RunSchedulingRound(now);
    ASSERT_EQ(result.outcome, SolveOutcome::kOptimal);
    EXPECT_EQ(stack->scheduler->solver().worker_spawns(), 1u)
        << "round " << round << " must reuse the round-0 worker";
  }
  // The handoff latency is reported every round (it may legitimately be 0µs
  // on a fast wakeup, so only presence-of-field semantics are asserted via
  // the round stats carrying the cost-scaling leg).
  EXPECT_FALSE(stack->scheduler->solver().last_round().winner_algorithm.empty());
}

TEST(StarvationTest, WaitingTasksWinPlacementWhenSlotsFree) {
  auto stack = MakeStack(Policy::kQuincy, 1, 2, 1);
  stack->scheduler->SubmitJob(JobType::kBatch, 0,
                              std::vector<TaskDescriptor>(4, TaskDescriptor{}), 0);
  stack->scheduler->RunSchedulingRound(kSec);
  EXPECT_EQ(stack->cluster.UsedSlots(), 2);
  // Complete both running tasks; the two waiting ones must take over.
  SimTime now = 2 * kSec;
  for (TaskId task : stack->cluster.LiveTasks()) {
    if (stack->cluster.task(task).state == TaskState::kRunning) {
      stack->scheduler->CompleteTask(task, now);
    }
  }
  stack->scheduler->RunSchedulingRound(3 * kSec);
  EXPECT_EQ(stack->cluster.UsedSlots(), 2);
  for (TaskId task : stack->cluster.LiveTasks()) {
    EXPECT_EQ(stack->cluster.task(task).state, TaskState::kRunning);
  }
}

// ---------------------------------------------------------------------------
// Simulator accounting.
// ---------------------------------------------------------------------------

TEST(SimulatorAccountingTest, PlacedEqualsCompletedPlusRunningAtEnd) {
  auto stack = MakeStack(Policy::kQuincy, 1, 8, 4);
  TraceGeneratorParams trace;
  trace.num_machines = 8;
  trace.slots_per_machine = 4;
  trace.tasks_per_machine = 2.5;
  trace.batch_runtime_log_mean = 2.0;
  trace.batch_runtime_log_sigma = 0.4;
  trace.max_job_tasks = 10;
  trace.seed = 5;
  TraceGenerator generator(trace);
  SimulatorParams params;
  params.duration = 90 * kSec;
  ClusterSimulator sim(stack->scheduler.get(), &stack->cluster, nullptr, params);
  sim.LoadTrace(generator.Generate(params.duration));
  SimulationMetrics metrics = sim.Run();

  size_t running = 0;
  for (TaskId task : stack->cluster.LiveTasks()) {
    if (stack->cluster.task(task).state == TaskState::kRunning) {
      ++running;
    }
  }
  // Every placement either completed, is still running, or was re-placed
  // after preemption/migration; with counts, placed = completed + running
  // + (re-placements of evicted tasks). Signed arithmetic: the correction
  // terms can exceed the base counts.
  EXPECT_GE(static_cast<int64_t>(metrics.tasks_placed),
            static_cast<int64_t>(metrics.tasks_completed) + static_cast<int64_t>(running) -
                static_cast<int64_t>(metrics.tasks_preempted) -
                static_cast<int64_t>(metrics.tasks_migrated));
  EXPECT_GT(metrics.tasks_completed, 0u);
  EXPECT_EQ(metrics.batch_task_response_seconds.count(), metrics.tasks_completed);
}

TEST(SimulatorAccountingTest, MinRoundIntervalBatchesRounds) {
  auto run_with_interval = [](SimTime interval) {
    auto stack = MakeStack(Policy::kLoadSpreading, 1, 6, 4);
    TraceGeneratorParams trace;
    trace.num_machines = 6;
    trace.slots_per_machine = 4;
    trace.tasks_per_machine = 2.0;
    trace.batch_runtime_log_mean = 1.5;
    trace.batch_runtime_log_sigma = 0.3;
    trace.max_job_tasks = 5;
    trace.seed = 9;
    TraceGenerator generator(trace);
    SimulatorParams params;
    params.duration = 60 * kSec;
    params.min_round_interval = interval;
    ClusterSimulator sim(stack->scheduler.get(), &stack->cluster, nullptr, params);
    sim.LoadTrace(generator.Generate(params.duration));
    return sim.Run().rounds;
  };
  size_t fine = run_with_interval(1000);          // 1 ms
  size_t coarse = run_with_interval(5 * kSec);    // 5 s
  EXPECT_GT(fine, coarse);
}

// ---------------------------------------------------------------------------
// Metrics utilities used by every experiment.
// ---------------------------------------------------------------------------

TEST(DistributionTest, PercentilesAndCdf) {
  Distribution dist;
  for (int i = 1; i <= 100; ++i) {
    dist.Add(i);
  }
  EXPECT_DOUBLE_EQ(dist.Min(), 1);
  EXPECT_DOUBLE_EQ(dist.Max(), 100);
  EXPECT_NEAR(dist.Median(), 50.5, 0.01);
  EXPECT_NEAR(dist.Percentile(0.99), 99.01, 0.01);
  EXPECT_NEAR(dist.Mean(), 50.5, 0.01);
  EXPECT_NEAR(dist.CdfAt(50), 0.5, 0.01);
  EXPECT_EQ(dist.CdfAt(0.5), 0.0);
  EXPECT_EQ(dist.CdfAt(1000), 1.0);
  EXPECT_FALSE(dist.BoxStats().empty());
  EXPECT_FALSE(FormatCdf(dist, 4).empty());
}

TEST(DistributionTest, SingleSampleAndClear) {
  Distribution dist;
  dist.Add(7.0);
  EXPECT_DOUBLE_EQ(dist.Median(), 7.0);
  EXPECT_DOUBLE_EQ(dist.Percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(dist.Percentile(1.0), 7.0);
  dist.Clear();
  EXPECT_TRUE(dist.empty());
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.NextUint64(10);
    EXPECT_LT(v, 10u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t x = r.NextInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
    double pareto = r.NextBoundedPareto(1.0, 100.0, 0.5);
    EXPECT_GE(pareto, 1.0);
    EXPECT_LE(pareto, 100.0 + 1e-9);
  }
}

}  // namespace
}  // namespace firmament
