// Tests for the simulation substrate: block store, trace generator, fluid
// network model, baseline placers, and the end-to-end event simulator.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/baselines/task_placers.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/quincy_policy.h"
#include "src/sim/block_store.h"
#include "src/sim/network_model.h"
#include "src/sim/simulator.h"
#include "src/sim/trace_generator.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

void BuildCluster(ClusterState* cluster, int racks, int per_rack, MachineSpec spec) {
  for (int r = 0; r < racks; ++r) {
    RackId rack = cluster->AddRack();
    for (int m = 0; m < per_rack; ++m) {
      cluster->AddMachine(rack, spec);
    }
  }
}

// ---------------------------------------------------------------------------
// BlockStore
// ---------------------------------------------------------------------------

TEST(BlockStoreTest, AllocatesReplicatedBlocks) {
  ClusterState cluster;
  BuildCluster(&cluster, 2, 5, {});
  BlockStore store(&cluster, /*seed=*/1, /*block_size_bytes=*/100, /*replication=*/3);
  std::vector<uint64_t> blocks = store.AllocateInput(450);
  EXPECT_EQ(blocks.size(), 5u);  // 4 full + 1 partial block

  TaskDescriptor task;
  task.input_size_bytes = 450;
  task.input_blocks = blocks;
  // Total bytes across machines = replication * input (each block on 3).
  int64_t total = 0;
  for (const MachineDescriptor& machine : cluster.machines()) {
    total += store.BytesOnMachine(task, machine.id);
  }
  EXPECT_EQ(total, 3 * 450);
  // Rack bytes count each block at most once per rack.
  int64_t rack_bytes = store.BytesInRack(task, 0) + store.BytesInRack(task, 1);
  EXPECT_GE(rack_bytes, 450);
  EXPECT_LE(rack_bytes, 2 * 450);
  std::vector<MachineId> candidates;
  store.CandidateMachines(task, &candidates);
  EXPECT_GE(candidates.size(), 3u);
  EXPECT_LE(candidates.size(), 10u);
}

TEST(BlockStoreTest, MachineRemovalDropsReplicas) {
  ClusterState cluster;
  BuildCluster(&cluster, 1, 4, {});
  BlockStore store(&cluster, 7, 1000, 3);
  TaskDescriptor task;
  task.input_size_bytes = 5000;
  task.input_blocks = store.AllocateInput(5000);
  store.OnMachineRemoved(2);
  EXPECT_EQ(store.BytesOnMachine(task, 2), 0);
}

// Random stores: racks, machines, block size and replication vary, and one
// task reads a block twice.
struct RandomStore {
  ClusterState cluster;
  std::unique_ptr<BlockStore> store;
  std::vector<TaskDescriptor> tasks;

  explicit RandomStore(uint64_t seed) {
    Rng rng(seed);
    const int racks = static_cast<int>(rng.NextInt(2, 5));
    BuildCluster(&cluster, racks, static_cast<int>(rng.NextInt(2, 6)), {});
    store = std::make_unique<BlockStore>(&cluster, seed, rng.NextInt(50, 200),
                                         static_cast<int>(rng.NextInt(1, 4)));
    for (int i = 0; i < 30; ++i) {
      TaskDescriptor task;
      task.id = static_cast<TaskId>(i);
      task.input_size_bytes = rng.NextInt(1, 1'500);
      task.input_blocks = store->AllocateInput(task.input_size_bytes);
      tasks.push_back(task);
    }
    tasks.back().input_blocks.push_back(tasks.back().input_blocks.front());
  }

  MachineId PickAliveMachine(Rng* rng) const {
    MachineId machine;
    do {
      machine = static_cast<MachineId>(rng->NextUint64(cluster.machines().size()));
    } while (!cluster.machine(machine).alive);
    return machine;
  }
};

// BlockStore's one-pass ProfileInput must return exactly what the default
// composition of BytesOnMachine / BytesInRack / CandidateMachines does,
// also after machine removals dropped replicas.
TEST(BlockStoreTest, ProfileInputMatchesComposedQueries) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomStore env(seed);
    Rng rng(seed + 100);
    for (int removals = 0; removals < 3; ++removals) {
      for (const TaskDescriptor& task : env.tasks) {
        LocalityProfile got;
        LocalityProfile want;
        env.store->ProfileInput(task, env.cluster, &got);
        env.store->DataLocalityInterface::ProfileInput(task, env.cluster, &want);
        EXPECT_EQ(got.machines, want.machines) << "seed " << seed << " task " << task.id;
        EXPECT_EQ(got.racks, want.racks) << "seed " << seed << " task " << task.id;
      }
      MachineId victim = env.PickAliveMachine(&rng);
      env.cluster.RemoveMachine(victim);
      env.store->OnMachineRemoved(victim);
    }
  }
}

// Forwards the three byte queries and the replica index, but keeps the
// default (composed) ProfileInput.
class ForwardingLocality : public DataLocalityInterface {
 public:
  explicit ForwardingLocality(const DataLocalityInterface* inner) : inner_(inner) {}
  int64_t BytesOnMachine(const TaskDescriptor& task, MachineId machine) const override {
    return inner_->BytesOnMachine(task, machine);
  }
  int64_t BytesInRack(const TaskDescriptor& task, RackId rack) const override {
    return inner_->BytesInRack(task, rack);
  }
  void CandidateMachines(const TaskDescriptor& task, std::vector<MachineId>* out) const override {
    inner_->CandidateMachines(task, out);
  }
  bool BlocksOnMachine(MachineId machine, std::vector<uint64_t>* out) const override {
    return inner_->BlocksOnMachine(machine, out);
  }

 private:
  const DataLocalityInterface* inner_;
};

std::vector<std::tuple<NodeId, int64_t, int64_t, int32_t>> ClassArcs(QuincyPolicy* policy,
                                                                    const TaskDescriptor& task) {
  std::vector<ArcSpec> specs;
  policy->EquivClassArcs(task, 0, &specs);
  std::vector<std::tuple<NodeId, int64_t, int64_t, int32_t>> arcs;
  for (const ArcSpec& spec : specs) {
    arcs.emplace_back(spec.dst, spec.capacity, spec.cost, spec.rank);
  }
  return arcs;
}

// Quincy's class arcs priced from BlockStore's one-pass profile must equal
// those priced from the composed queries: same arcs, costs and order, at
// the default preference threshold and at Fig. 15's extreme 2%.
TEST(QuincyPolicyTest, ClassArcsMatchUnderComposedLocality) {
  for (double threshold : {0.14, 0.02}) {
    QuincyPolicyParams params;
    params.machine_preference_threshold = threshold;
    params.rack_preference_threshold = threshold;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      RandomStore env(seed);
      ForwardingLocality composed(env.store.get());
      QuincyPolicy one_pass_policy(&env.cluster, env.store.get(), params);
      QuincyPolicy composed_policy(&env.cluster, &composed, params);
      FlowGraphManager one_pass(&env.cluster, &one_pass_policy);
      FlowGraphManager reference(&env.cluster, &composed_policy);
      for (const MachineDescriptor& machine : env.cluster.machines()) {
        one_pass.AddMachine(machine.id);
        reference.AddMachine(machine.id);
      }
      Rng rng(seed + 200);
      for (int removals = 0; removals < 3; ++removals) {
        for (const TaskDescriptor& task : env.tasks) {
          EXPECT_EQ(ClassArcs(&one_pass_policy, task), ClassArcs(&composed_policy, task))
              << "threshold " << threshold << " seed " << seed << " task " << task.id;
        }
        MachineId victim = env.PickAliveMachine(&rng);
        one_pass.RemoveMachine(victim);
        reference.RemoveMachine(victim);
        env.cluster.RemoveMachine(victim);
        env.store->OnMachineRemoved(victim);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TraceGenerator
// ---------------------------------------------------------------------------

TEST(TraceGeneratorTest, HeavyTailedJobSizes) {
  TraceGeneratorParams params;
  params.num_machines = 1000;
  params.tasks_per_machine = 10;
  params.seed = 3;
  TraceGenerator generator(params);
  std::vector<TraceJobSpec> jobs = generator.Generate(2000 * kSec);
  size_t batch_jobs = 0;
  size_t big_jobs = 0;
  size_t total_tasks = 0;
  for (const TraceJobSpec& job : jobs) {
    if (job.type != JobType::kBatch) {
      continue;
    }
    ++batch_jobs;
    total_tasks += job.task_runtimes.size();
    if (job.task_runtimes.size() > 1000) {
      ++big_jobs;
    }
  }
  ASSERT_GT(batch_jobs, 100u);
  // ~1.2% of Google jobs have >1,000 tasks (§4.3); accept 0.2%-6%.
  double big_fraction = static_cast<double>(big_jobs) / static_cast<double>(batch_jobs);
  EXPECT_GT(big_fraction, 0.002);
  EXPECT_LT(big_fraction, 0.06);
  EXPECT_GT(total_tasks, 0u);
}

TEST(TraceGeneratorTest, ServiceJobsFillConfiguredShare) {
  TraceGeneratorParams params;
  params.num_machines = 200;
  params.tasks_per_machine = 8;
  params.service_task_fraction = 0.25;
  TraceGenerator generator(params);
  std::vector<TraceJobSpec> jobs = generator.Generate(100 * kSec);
  int64_t service_tasks = 0;
  for (const TraceJobSpec& job : jobs) {
    if (job.type == JobType::kService) {
      EXPECT_EQ(job.arrival, 0u);
      EXPECT_EQ(job.priority, 1);
      service_tasks += static_cast<int64_t>(job.task_runtimes.size());
    }
  }
  EXPECT_EQ(service_tasks, static_cast<int64_t>(200 * 8 * 0.25));
}

TEST(TraceGeneratorTest, SpeedupCompressesRuntimesAndArrivals) {
  TraceGeneratorParams slow;
  slow.num_machines = 100;
  slow.seed = 5;
  TraceGeneratorParams fast = slow;
  fast.speedup = 10.0;
  TraceGenerator slow_gen(slow);
  TraceGenerator fast_gen(fast);
  // 10x speedup => ~10x higher batch arrival rate.
  EXPECT_NEAR(fast_gen.batch_jobs_per_second() / slow_gen.batch_jobs_per_second(), 10.0, 0.5);
}

TEST(TraceGeneratorTest, DeterministicForSeed) {
  TraceGeneratorParams params;
  params.num_machines = 50;
  params.seed = 11;
  std::vector<TraceJobSpec> a = TraceGenerator(params).Generate(50 * kSec);
  std::vector<TraceJobSpec> b = TraceGenerator(params).Generate(50 * kSec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].task_runtimes, b[i].task_runtimes);
  }
}

// ---------------------------------------------------------------------------
// NetworkFluidModel
// ---------------------------------------------------------------------------

TEST(NetworkModelTest, SingleTransferUsesFullLink) {
  NetworkFluidModel model(2, 10'000);  // 10 Gbps
  // 1.25 GB at 1250 MB/s = 1 second.
  uint64_t id = model.StartTransfer(0, 1'250'000'000, 0);
  auto next = model.NextCompletion();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->second, id);
  EXPECT_NEAR(static_cast<double>(next->first) / 1e6, 1.0, 0.01);
}

TEST(NetworkModelTest, ConcurrentTransfersShareFairly) {
  NetworkFluidModel model(1, 10'000);
  model.StartTransfer(0, 1'250'000'000, 0);
  model.StartTransfer(0, 1'250'000'000, 0);
  auto next = model.NextCompletion();
  ASSERT_TRUE(next.has_value());
  // Two transfers sharing the link: each takes ~2 s.
  EXPECT_NEAR(static_cast<double>(next->first) / 1e6, 2.0, 0.01);
}

TEST(NetworkModelTest, BackgroundTrafficPreempts) {
  NetworkFluidModel model(1, 10'000);
  model.SetBackground(0, 7'500);  // 75% of the link is high-priority
  model.StartTransfer(0, 1'250'000'000, 0);
  auto next = model.NextCompletion();
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR(static_cast<double>(next->first) / 1e6, 4.0, 0.05);
}

TEST(NetworkModelTest, FinishEarlyTransferSpeedsUpRemainder) {
  NetworkFluidModel model(1, 10'000);
  uint64_t a = model.StartTransfer(0, 625'000'000, 0);   // 0.5 GB-equivalent
  model.StartTransfer(0, 1'250'000'000, 0);              // full GB+
  auto first = model.NextCompletion();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->second, a);
  model.FinishTransfer(a, first->first);
  auto second = model.NextCompletion();
  ASSERT_TRUE(second.has_value());
  // b ran at half rate until a finished (1s), then full rate: total 1s +
  // (1.25GB - 0.625GB)/1250MBps = 1.5s.
  EXPECT_NEAR(static_cast<double>(second->first) / 1e6, 1.5, 0.02);
}

// ---------------------------------------------------------------------------
// Baseline placers
// ---------------------------------------------------------------------------

TEST(TaskPlacersTest, AllPlacersFillFreeSlots) {
  Rng rng(5);
  std::vector<std::unique_ptr<TaskPlacer>> placers;
  placers.push_back(std::make_unique<SparrowPlacer>());
  placers.push_back(std::make_unique<SwarmKitPlacer>());
  placers.push_back(std::make_unique<KubernetesPlacer>());
  placers.push_back(std::make_unique<MesosPlacer>());
  for (auto& placer : placers) {
    ClusterState cluster;
    BuildCluster(&cluster, 1, 4, {.slots = 2});
    JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
    for (int i = 0; i < 8; ++i) {
      TaskId task = cluster.AddTaskToJob(job, {});
      MachineId machine = placer->Place(cluster, cluster.task(task), &rng);
      ASSERT_NE(machine, kInvalidMachineId) << placer->name() << " task " << i;
      cluster.PlaceTask(task, machine, 0);
    }
    // Full cluster: next placement fails.
    TaskId task = cluster.AddTaskToJob(job, {});
    EXPECT_EQ(placer->Place(cluster, cluster.task(task), &rng), kInvalidMachineId)
        << placer->name();
    EXPECT_EQ(cluster.UsedSlots(), 8) << placer->name();
  }
}

TEST(TaskPlacersTest, SwarmKitSpreadsPerfectly) {
  Rng rng(9);
  ClusterState cluster;
  BuildCluster(&cluster, 1, 4, {.slots = 4});
  SwarmKitPlacer placer;
  JobId job = cluster.SubmitJob(JobType::kBatch, 0, 0);
  for (int i = 0; i < 8; ++i) {
    TaskId task = cluster.AddTaskToJob(job, {});
    cluster.PlaceTask(task, placer.Place(cluster, cluster.task(task), &rng), 0);
  }
  for (const MachineDescriptor& machine : cluster.machines()) {
    EXPECT_EQ(machine.running_tasks, 2);
  }
}

// ---------------------------------------------------------------------------
// End-to-end simulator
// ---------------------------------------------------------------------------

TEST(SimulatorTest, RunsTraceToCompletion) {
  ClusterState cluster;
  QuincyPolicy policy(&cluster, nullptr);
  FirmamentScheduler scheduler(&cluster, &policy);
  for (int r = 0; r < 2; ++r) {
    RackId rack = cluster.AddRack();
    for (int m = 0; m < 10; ++m) {
      scheduler.AddMachine(rack, {.slots = 8});
    }
  }
  TraceGeneratorParams trace_params;
  trace_params.num_machines = 20;
  trace_params.slots_per_machine = 8;
  trace_params.tasks_per_machine = 4;
  trace_params.batch_runtime_log_mean = 2.0;  // short tasks (~7s median)
  trace_params.batch_runtime_log_sigma = 0.5;
  trace_params.max_job_tasks = 50;
  TraceGenerator generator(trace_params);

  SimulatorParams sim_params;
  sim_params.duration = 120 * kSec;
  sim_params.min_round_interval = 100'000;
  ClusterSimulator sim(&scheduler, &cluster, nullptr, sim_params);
  sim.LoadTrace(generator.Generate(sim_params.duration));
  SimulationMetrics metrics = sim.Run();

  EXPECT_GT(metrics.rounds, 5u);
  EXPECT_GT(metrics.tasks_placed, 20u);
  EXPECT_GT(metrics.tasks_completed, 10u);
  EXPECT_FALSE(metrics.placement_latency_seconds.empty());
  // Tiny cluster, fast solver: sub-second placement latency in the median.
  EXPECT_LT(metrics.placement_latency_seconds.Median(), 1.0);
  EXPECT_FALSE(metrics.batch_job_response_seconds.empty());
}

TEST(SimulatorTest, ChargesSolverRuntimeToClock) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  for (int m = 0; m < 4; ++m) {
    scheduler.AddMachine(rack, {.slots = 4});
  }
  // Inflate the charge so a single solve visibly delays placement.
  SimulatorParams params;
  params.duration = 200 * kSec;
  params.solver_charge_scale = 1e4;  // ~ms solve => ~10s charged
  params.min_round_interval = 0;
  ClusterSimulator sim(&scheduler, &cluster, nullptr, params);
  TraceJobSpec job;
  job.arrival = kSec;
  job.task_runtimes = {10 * kSec, 10 * kSec};
  job.task_input_bytes = {0, 0};
  job.task_bandwidth_mbps = {0, 0};
  sim.LoadTrace({job});
  SimulationMetrics metrics = sim.Run();
  ASSERT_EQ(metrics.tasks_placed, 2u);
  // Placement latency must include the charged solver runtime (>= ~some ms
  // at 1e4 scale, and strictly > 0 despite instant solving).
  EXPECT_GT(metrics.placement_latency_seconds.Min(), 0.0);
}

TEST(SimulatorTest, DeterministicMetricCountsForSeed) {
  auto run_once = [](uint64_t seed) {
    ClusterState cluster;
    QuincyPolicy policy(&cluster, nullptr);
    FirmamentScheduler scheduler(&cluster, &policy);
    RackId rack = cluster.AddRack();
    for (int m = 0; m < 10; ++m) {
      scheduler.AddMachine(rack, {.slots = 4});
    }
    TraceGeneratorParams params;
    params.num_machines = 10;
    params.tasks_per_machine = 3;
    params.seed = seed;
    params.max_job_tasks = 20;
    TraceGenerator generator(params);
    SimulatorParams sim_params;
    sim_params.duration = 60 * kSec;
    // Decouple from wall-clock noise: charge a fixed cost per solve.
    sim_params.solver_charge_scale = 0.0;
    ClusterSimulator sim(&scheduler, &cluster, nullptr, sim_params);
    sim.LoadTrace(generator.Generate(sim_params.duration));
    return sim.Run().tasks_placed;
  };
  EXPECT_EQ(run_once(21), run_once(21));
}

}  // namespace
}  // namespace firmament
