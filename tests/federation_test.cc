// Federation tests: deterministic job routing (same seed => same cell
// assignment), the end-of-round move pass (a full cell's stuck job moves to
// a sibling with headroom, keeps its banked wait, and respects the per-job
// move cap; an all-full cluster stays quiescent; capacity opening at home
// wins without a move), cells=1 byte-identical to the centralized
// scheduler, a whole-rack/whole-cell failure storm driven by the seeded
// FaultInjector with per-cell integrity checking on, counter sum-equality
// across the coordinator's summing views, and a starvation solve budget
// degrading the merged round. Every multi-cell round solves its running
// cells concurrently, so the TSan leg exercises the share-nothing claim.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/base/service_clock.h"
#include "src/core/load_spreading_policy.h"
#include "src/core/scheduler.h"
#include "src/federation/federation_coordinator.h"
#include "src/service/scheduler_service.h"
#include "src/sim/fault_injector.h"

namespace firmament {
namespace {

constexpr SimTime kSec = kMicrosPerSecond;

CellPolicyFactory LoadSpreadFactory() {
  return [](ClusterState* cluster, uint32_t /*cell*/) {
    CellPolicyBundle bundle;
    bundle.policy = std::make_unique<LoadSpreadingPolicy>(cluster);
    return bundle;
  };
}

std::vector<TaskDescriptor> MakeTasks(size_t n, SimTime runtime = 3600 * kSec) {
  std::vector<TaskDescriptor> tasks(n);
  for (TaskDescriptor& task : tasks) {
    task.runtime = runtime;
  }
  return tasks;
}

struct FedEnv {
  std::unique_ptr<FederationCoordinator> fed;
  std::vector<RackId> racks;                       // global rack ids
  std::vector<std::vector<MachineId>> rack_machines;  // global, rack-major

  FedEnv(size_t cells, size_t rack_count, int machines_per_rack, int slots,
         FederationOptions options = {}) {
    // Racing makes placements timing-dependent; the assertions here compare
    // exact placements and routes, so pin the deterministic algorithm.
    options.cell.solver.mode = SolverMode::kCostScalingOnly;
    fed = std::make_unique<FederationCoordinator>(cells, LoadSpreadFactory(), options);
    for (size_t r = 0; r < rack_count; ++r) {
      racks.push_back(fed->AddRack());
      rack_machines.emplace_back();
      for (int m = 0; m < machines_per_rack; ++m) {
        rack_machines.back().push_back(
            fed->AddMachine(racks.back(), MachineSpec{.slots = slots}));
      }
    }
  }
};

size_t CountWaiting(const FederationCoordinator& fed) {
  size_t waiting = 0;
  for (size_t c = 0; c < fed.num_cells(); ++c) {
    waiting += fed.cell(c).WaitingTasks();
  }
  return waiting;
}

// ---------------------------------------------------------------------------
// WithdrawTask: the idempotent enabling primitive.
// ---------------------------------------------------------------------------

TEST(WithdrawTaskTest, WaitingTaskRetiresRunningTaskRefuses) {
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy);
  RackId rack = cluster.AddRack();
  scheduler.AddMachine(rack, MachineSpec{.slots = 4});

  JobId job = scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(2), 0);
  std::vector<TaskId> tasks = cluster.job(job).tasks;
  // Withdraw one task while both wait: it retires without ever running.
  EXPECT_TRUE(scheduler.WithdrawTask(tasks[0], kSec));
  EXPECT_FALSE(cluster.HasTask(tasks[0]));
  EXPECT_EQ(scheduler.event_counters().ignored_task_withdrawals, 0u);
  // Duplicate withdraw: counted no-op.
  EXPECT_FALSE(scheduler.WithdrawTask(tasks[0], kSec));
  EXPECT_EQ(scheduler.event_counters().ignored_task_withdrawals, 1u);

  // Place the survivor; a withdraw must now refuse — the claim stands.
  SchedulerRoundResult round = scheduler.RunSchedulingRound(2 * kSec);
  ASSERT_EQ(round.tasks_placed, 1u);
  EXPECT_FALSE(scheduler.WithdrawTask(tasks[1], 3 * kSec));
  EXPECT_EQ(scheduler.event_counters().ignored_task_withdrawals, 2u);
  EXPECT_EQ(cluster.task(tasks[1]).state, TaskState::kRunning);
}

// ---------------------------------------------------------------------------
// Deterministic routing fuzz: same seed => same cell assignment.
// ---------------------------------------------------------------------------

std::vector<uint32_t> RunRoutingFuzz(uint64_t seed) {
  FedEnv env(/*cells=*/4, /*racks=*/8, /*machines_per_rack=*/4, /*slots=*/8);
  Rng rng(seed);
  std::vector<uint32_t> assigned;
  std::vector<TaskId> submitted;
  SimTime now = 0;
  for (int i = 0; i < 80; ++i) {
    std::vector<TaskId> ids;
    JobId job = env.fed->SubmitJob(JobType::kBatch, 0,
                                   MakeTasks(1 + rng.NextUint64(6)), now, nullptr, &ids);
    uint32_t cell = env.fed->CellOfJob(job);
    assigned.push_back(cell);
    for (TaskId id : ids) {
      // Every task of a job routes with the job — never torn across cells.
      EXPECT_EQ(env.fed->CellOfTask(id), cell);
      submitted.push_back(id);
    }
    if (rng.NextBool(0.3)) {
      now += kSec;
      env.fed->RunRound(now);
    }
    if (rng.NextBool(0.25) && !submitted.empty()) {
      TaskId victim = submitted[rng.NextUint64(submitted.size())];
      env.fed->CompleteTask(victim, now);  // stale ones are counted no-ops
    }
  }
  return assigned;
}

TEST(FederationRoutingTest, SameSeedSameAssignment) {
  std::vector<uint32_t> a = RunRoutingFuzz(42);
  std::vector<uint32_t> b = RunRoutingFuzz(42);
  EXPECT_EQ(a, b);
  // Least-loaded routing must actually spread: every cell sees jobs.
  std::set<uint32_t> used(a.begin(), a.end());
  EXPECT_EQ(used.size(), 4u);
}

// ---------------------------------------------------------------------------
// The move pass under a full cell.
// ---------------------------------------------------------------------------

struct SpillSetup {
  FedEnv env;
  std::vector<TaskId> cell0_tasks;  // running fillers, cell 0
  std::vector<TaskId> cell1_tasks;  // running fillers, cell 1
  std::vector<TaskId> stuck;        // the fully-waiting job's tasks (cell 0)
  JobId stuck_job = kInvalidJobId;
  SimTime now = 0;
  SimTime stuck_submit = 0;

  // Both cells filled to capacity, then one 2-task job submitted that must
  // wait in cell 0 (tie-break on equal zero headroom).
  SpillSetup()
      : env(/*cells=*/2, /*racks=*/2, /*machines_per_rack=*/2, /*slots=*/4) {
    // 2 machines x 4 slots per cell; four 4-task filler jobs fill the
    // cluster. Least-loaded routing alternates them across the two cells,
    // so bucket by where each job actually landed.
    for (int j = 0; j < 4; ++j) {
      std::vector<TaskId> ids;
      JobId job = env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(4), now, nullptr, &ids);
      std::vector<TaskId>* filler =
          env.fed->CellOfJob(job) == 0 ? &cell0_tasks : &cell1_tasks;
      filler->insert(filler->end(), ids.begin(), ids.end());
    }
    EXPECT_EQ(cell0_tasks.size(), 8u);
    EXPECT_EQ(cell1_tasks.size(), 8u);
    now += kSec;
    FederationRoundResult round = env.fed->RunRound(now);
    EXPECT_EQ(round.merged.tasks_placed, 16u);
    stuck_submit = now;
    stuck_job = env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(2), now, nullptr, &stuck);
    EXPECT_EQ(env.fed->CellOfJob(stuck_job), 0u);
  }

  FederationRoundResult Round() {
    now += kSec;
    return env.fed->RunRound(now);
  }
};

TEST(FederationMoveTest, FullCellMovesJobToSiblingWithHeadroom) {
  SpillSetup s;
  // Two rounds of waiting; no receiver exists (both cells full).
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(s.Round().spills, 0u);
  }
  // Capacity opens in cell 1: the next round ends with cell 0 a donor and
  // cell 1 a receiver, so the job moves, and the round after places it.
  s.env.fed->CompleteTask(s.cell1_tasks[0], s.now);
  s.env.fed->CompleteTask(s.cell1_tasks[1], s.now);
  FederationRoundResult moved = s.Round();
  EXPECT_EQ(moved.spills, 1u);
  EXPECT_TRUE(moved.needs_followup);
  EXPECT_EQ(s.env.fed->CellOfJob(s.stuck_job), 1u);
  size_t placed_in_cell1 = 0;
  for (const SchedulingDelta& delta : s.Round().merged.deltas) {
    if (delta.kind == SchedulingDelta::Kind::kPlace &&
        (delta.task == s.stuck[0] || delta.task == s.stuck[1])) {
      ++placed_in_cell1;
      EXPECT_EQ(s.env.fed->CellOfMachine(delta.to), 1u);
    }
  }
  EXPECT_EQ(placed_in_cell1, 2u);
  EXPECT_EQ(s.env.fed->counters().spills, 1u);
  EXPECT_EQ(s.env.fed->counters().rebalance_moves, 0u);
  EXPECT_TRUE(s.env.fed->IsTaskRunning(s.stuck[0]));
  EXPECT_TRUE(s.env.fed->IsTaskRunning(s.stuck[1]));
  EXPECT_EQ(CountWaiting(*s.env.fed), 0u);
}

TEST(FederationMoveTest, AllFullClusterStaysQuiescent) {
  SpillSetup s;
  // A donor (cell 0) but no receiver: nothing moves and no follow-up round
  // is requested, however long the job waits.
  for (int i = 0; i < 4; ++i) {
    FederationRoundResult round = s.Round();
    EXPECT_EQ(round.spills, 0u);
    EXPECT_FALSE(round.needs_followup);
  }
  EXPECT_EQ(s.env.fed->CellOfJob(s.stuck_job), 0u);
  EXPECT_EQ(s.env.fed->counters().spills, 0u);
  EXPECT_EQ(CountWaiting(*s.env.fed), 2u);
}

TEST(FederationMoveTest, CapacityAtHomePlacesWithoutMove) {
  SpillSetup s;
  s.Round();
  // Capacity opens in both cells before the next round: the origin cell's
  // own round places the job, so its round ends with no donor to move from.
  s.env.fed->CompleteTask(s.cell1_tasks[0], s.now);
  s.env.fed->CompleteTask(s.cell1_tasks[1], s.now);
  s.env.fed->CompleteTask(s.cell0_tasks[0], s.now);
  s.env.fed->CompleteTask(s.cell0_tasks[1], s.now);
  FederationRoundResult round = s.Round();
  EXPECT_EQ(round.spills, 0u);
  EXPECT_FALSE(round.needs_followup);
  for (const SchedulingDelta& delta : round.merged.deltas) {
    if (delta.task == s.stuck[0] || delta.task == s.stuck[1]) {
      EXPECT_EQ(s.env.fed->CellOfMachine(delta.to), 0u);
    }
  }
  EXPECT_EQ(s.env.fed->CellOfJob(s.stuck_job), 0u);
  EXPECT_TRUE(s.env.fed->IsTaskRunning(s.stuck[0]));
  EXPECT_TRUE(s.env.fed->IsTaskRunning(s.stuck[1]));
  EXPECT_EQ(s.env.fed->counters().spills, 0u);
}

TEST(FederationMoveTest, MovedJobKeepsBankedWait) {
  SpillSetup s;
  s.Round();
  s.env.fed->CompleteTask(s.cell1_tasks[0], s.now);
  s.env.fed->CompleteTask(s.cell1_tasks[1], s.now);
  ASSERT_EQ(s.Round().spills, 1u);
  // The move banks the wait so far and restarts the clock in cell 1.
  for (TaskId task : s.stuck) {
    EXPECT_EQ(s.env.fed->task(task).total_wait, s.now - s.stuck_submit);
    EXPECT_EQ(s.env.fed->task(task).submit_time, s.now);
  }
  s.Round();
  // Placed: the task's total wait runs from its original submission.
  for (TaskId task : s.stuck) {
    ASSERT_TRUE(s.env.fed->IsTaskRunning(task));
    EXPECT_EQ(s.env.fed->task(task).total_wait, s.now - s.stuck_submit);
  }
}

TEST(FederationMoveTest, PerJobMoveCapHolds) {
  // One machine per cell; the job's cell loses its machine before every
  // round while the other cell gets a fresh one, so each round ends with a
  // donor holding the job beside a receiver.
  FedEnv env(/*cells=*/2, /*racks=*/2, /*machines_per_rack=*/1, /*slots=*/4);
  SimTime now = 0;
  JobId job = env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(2), now);
  ASSERT_EQ(env.fed->CellOfJob(job), 0u);
  std::vector<MachineId> machine = {env.rack_machines[0][0], env.rack_machines[1][0]};
  env.fed->RemoveMachine(machine[0], now, nullptr);
  uint32_t home = 0;
  for (int move = 1; move <= 3; ++move) {
    now += kSec;
    FederationRoundResult round = env.fed->RunRound(now);
    ASSERT_EQ(round.spills, 1u) << "move " << move;
    EXPECT_TRUE(round.needs_followup);
    const uint32_t away = 1 - home;
    ASSERT_EQ(env.fed->CellOfJob(job), away);
    env.fed->RemoveMachine(machine[away], now, nullptr);
    machine[home] = env.fed->AddMachine(env.racks[home], MachineSpec{.slots = 4});
    home = away;
  }
  // Capped: the donor/receiver pair is still there, but the job stays put.
  for (int i = 0; i < 2; ++i) {
    now += kSec;
    FederationRoundResult round = env.fed->RunRound(now);
    EXPECT_EQ(round.spills, 0u);
    EXPECT_FALSE(round.needs_followup);
  }
  EXPECT_EQ(env.fed->CellOfJob(job), home);
  EXPECT_EQ(env.fed->cell(home).FreeSlots(), 0);
  EXPECT_EQ(env.fed->cell(1 - home).FreeSlots(), 4);
  EXPECT_EQ(env.fed->counters().spills, 3u);
  EXPECT_EQ(CountWaiting(*env.fed), 2u);
}

TEST(FederationMoveTest, MovesToReceiverWithMostSpareTiesToLowestIndex) {
  // Three one-machine cells. A 2-task job in cell 0 loses its machine;
  // cell 1 runs `cell1_load` single-task jobs, cell 2 runs none.
  for (size_t cell1_load : {1u, 0u}) {
    FedEnv env(/*cells=*/3, /*racks=*/3, /*machines_per_rack=*/1, /*slots=*/4);
    JobId job = env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(2), 0);
    ASSERT_EQ(env.fed->CellOfJob(job), 0u);
    for (size_t i = 0; i < cell1_load; ++i) {
      ASSERT_EQ(env.fed->CellOfJob(env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(1), 0)), 1u);
    }
    env.fed->RunRound(kSec);
    env.fed->RemoveMachine(env.rack_machines[0][0], kSec, nullptr);
    ASSERT_EQ(env.fed->RunRound(2 * kSec).spills, 1u);
    // Spare 3 vs 4 picks cell 2; 4 vs 4 ties to cell 1.
    EXPECT_EQ(env.fed->CellOfJob(job), cell1_load == 1 ? 2u : 1u);
  }
}

TEST(FederationMoveTest, ImbalanceAfterMachineLossMovesOldestJobsFirst) {
  FedEnv env(/*cells=*/2, /*racks=*/2, /*machines_per_rack=*/2, /*slots=*/8);
  SimTime now = 0;
  // 14 single-task jobs per cell (16 slots each).
  std::vector<std::pair<JobId, TaskId>> cell_jobs[2];
  for (int j = 0; j < 28; ++j) {
    std::vector<TaskId> ids;
    JobId job = env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(1), now, nullptr, &ids);
    cell_jobs[env.fed->CellOfJob(job)].push_back({job, ids[0]});
  }
  now += kSec;
  env.fed->RunRound(now);
  ASSERT_EQ(CountWaiting(*env.fed), 0u);
  ASSERT_EQ(cell_jobs[0].size(), 14u);

  // Kill one of cell 0's machines: its tasks evict into a queue the
  // remaining 8 slots cannot absorb (6 left waiting), while cell 1 has
  // only 2 spare slots, so the two oldest waiting jobs move.
  env.fed->RemoveMachine(env.rack_machines[0][0], now, nullptr);
  now += kSec;
  FederationRoundResult round = env.fed->RunRound(now);
  EXPECT_EQ(round.spills, 2u);
  EXPECT_TRUE(round.needs_followup);
  std::vector<JobId> moved;
  std::vector<JobId> waiting;
  for (const auto& [job, task] : cell_jobs[0]) {
    if (env.fed->CellOfJob(job) == 1) {
      moved.push_back(job);
    } else if (!env.fed->IsTaskRunning(task)) {
      waiting.push_back(job);
    }
  }
  ASSERT_EQ(moved.size(), 2u);
  ASSERT_EQ(waiting.size(), 4u);
  EXPECT_LT(*std::max_element(moved.begin(), moved.end()),
            *std::min_element(waiting.begin(), waiting.end()));
  // The moved jobs run in cell 1; cell 0's remaining queue has no receiver.
  now += kSec;
  EXPECT_FALSE(env.fed->RunRound(now).needs_followup);
  EXPECT_EQ(env.fed->cell(1).FreeSlots(), 0);
  EXPECT_EQ(CountWaiting(*env.fed), 4u);
  EXPECT_EQ(env.fed->counters().spills, 2u);
}

// ---------------------------------------------------------------------------
// cells=1 must be byte-identical to the centralized scheduler.
// ---------------------------------------------------------------------------

struct DeltaLog {
  std::vector<SchedulingDelta> deltas;
  std::vector<std::pair<TaskId, MachineId>> final_placements;
};

bool operator==(const SchedulingDelta& a, const SchedulingDelta& b) {
  return a.kind == b.kind && a.task == b.task && a.from == b.from && a.to == b.to;
}

// The same scripted event sequence (submits, completions, a machine
// removal, rounds) against either backend. `Backend` exposes the shared
// producer surface.
template <typename SubmitFn, typename CompleteFn, typename RemoveFn, typename RoundFn>
DeltaLog DriveScript(SubmitFn submit, CompleteFn complete, RemoveFn remove,
                     RoundFn round) {
  DeltaLog log;
  Rng rng(7);
  std::vector<TaskId> live;
  SimTime now = 0;
  for (int wave = 0; wave < 6; ++wave) {
    for (int j = 0; j < 3; ++j) {
      std::vector<TaskId> ids = submit(1 + rng.NextUint64(5), now);
      live.insert(live.end(), ids.begin(), ids.end());
    }
    now += kSec;
    for (const SchedulingDelta& delta : round(now)) {
      log.deltas.push_back(delta);
    }
    // Complete a few (some will be stale duplicates on purpose).
    for (int k = 0; k < 3 && !live.empty(); ++k) {
      TaskId victim = live[rng.NextUint64(live.size())];
      complete(victim, now);
    }
    if (wave == 3) {
      remove(1, now);  // machine id 1 dies mid-script
    }
  }
  // Drain: a few extra rounds so both backends settle identically.
  for (int i = 0; i < 3; ++i) {
    now += kSec;
    for (const SchedulingDelta& delta : round(now)) {
      log.deltas.push_back(delta);
    }
  }
  std::map<TaskId, MachineId> placements;
  for (const SchedulingDelta& delta : log.deltas) {
    if (delta.kind == SchedulingDelta::Kind::kPreempt) {
      placements[delta.task] = kInvalidMachineId;
    } else {
      placements[delta.task] = delta.to;
    }
  }
  log.final_placements.assign(placements.begin(), placements.end());
  return log;
}

TEST(FederationEquivalenceTest, OneCellByteIdenticalToCentralized) {
  // Centralized reference. Deterministic solver on both sides: byte-identity
  // is only meaningful when the algorithm itself is reproducible.
  FirmamentSchedulerOptions scheduler_options;
  scheduler_options.solver.mode = SolverMode::kCostScalingOnly;
  ClusterState cluster;
  LoadSpreadingPolicy policy(&cluster);
  FirmamentScheduler scheduler(&cluster, &policy, scheduler_options);
  RackId rack0 = cluster.AddRack();
  RackId rack1 = cluster.AddRack();
  for (int m = 0; m < 3; ++m) scheduler.AddMachine(rack0, MachineSpec{.slots = 4});
  for (int m = 0; m < 3; ++m) scheduler.AddMachine(rack1, MachineSpec{.slots = 4});
  DeltaLog central = DriveScript(
      [&](size_t n, SimTime now) { return cluster.job(scheduler.SubmitJob(JobType::kBatch, 0, MakeTasks(n), now)).tasks; },
      [&](TaskId task, SimTime now) { scheduler.CompleteTask(task, now); },
      [&](MachineId machine, SimTime now) { scheduler.RemoveMachine(machine, now); },
      [&](SimTime now) { return scheduler.RunSchedulingRound(now).deltas; });

  // One-cell federation: global ids coincide with cell-local ids.
  FederationOptions fed_options;
  fed_options.cell = scheduler_options;
  FederationCoordinator fed(1, LoadSpreadFactory(), fed_options);
  RackId frack0 = fed.AddRack();
  RackId frack1 = fed.AddRack();
  for (int m = 0; m < 3; ++m) fed.AddMachine(frack0, MachineSpec{.slots = 4});
  for (int m = 0; m < 3; ++m) fed.AddMachine(frack1, MachineSpec{.slots = 4});
  DeltaLog federated = DriveScript(
      [&](size_t n, SimTime now) {
        std::vector<TaskId> ids;
        fed.SubmitJob(JobType::kBatch, 0, MakeTasks(n), now, nullptr, &ids);
        return ids;
      },
      [&](TaskId task, SimTime now) { fed.CompleteTask(task, now); },
      [&](MachineId machine, SimTime now) { fed.RemoveMachine(machine, now); },
      [&](SimTime now) { return fed.RunRound(now).merged.deltas; });

  ASSERT_EQ(central.deltas.size(), federated.deltas.size());
  for (size_t i = 0; i < central.deltas.size(); ++i) {
    EXPECT_TRUE(central.deltas[i] == federated.deltas[i]) << "delta " << i;
  }
  EXPECT_EQ(central.final_placements, federated.final_placements);
  // The one-cell coordinator never moves a job.
  EXPECT_EQ(fed.counters().spills, 0u);
}

// ---------------------------------------------------------------------------
// Failure storm: a whole cell's rack dies (seeded FaultInjector decisions);
// integrity stays clean per cell per round and the dead cell's work fails
// over to its siblings through the move pass.
// ---------------------------------------------------------------------------

TEST(FederationStormTest, WholeCellRackDeathFailsOverClean) {
  FederationOptions options;
  options.cell.check_integrity = true;  // IntegrityChecker per cell per round
  FedEnv env(/*cells=*/4, /*racks=*/4, /*machines_per_rack=*/8, /*slots=*/8, options);

  // ~62% load so three surviving cells can absorb the fourth's work.
  SimTime now = 0;
  std::vector<TaskId> all_tasks;
  for (int j = 0; j < 20; ++j) {
    env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(8), now, nullptr, &all_tasks);
  }
  size_t clean_rounds = 0;
  auto run_round = [&]() {
    now += kSec;
    FederationRoundResult round = env.fed->RunRound(now);
    EXPECT_TRUE(round.merged.recovery_actions.empty())
        << "integrity repair in round " << clean_rounds;
    ++clean_rounds;
    return round;
  };
  while (CountWaiting(*env.fed) > 0) {
    run_round();
    ASSERT_LT(clean_rounds, 20u);
  }

  // The injector's seeded decisions pick the doomed rack; the harness
  // executes them (FaultInjector is a decision oracle by contract).
  FaultInjectorParams fault_params;
  fault_params.seed = 99;
  fault_params.storm_rack_fraction = 1.0;  // the whole rack goes
  FaultInjector injector(fault_params);
  const size_t doomed_rack = injector.PickIndex(env.racks.size());
  const uint32_t doomed_cell = static_cast<uint32_t>(doomed_rack % 4);
  size_t removed = 0;
  for (MachineId machine : env.rack_machines[doomed_rack]) {
    env.fed->RemoveMachine(machine, now, nullptr);
    ++removed;
  }
  EXPECT_EQ(removed, 8u);
  EXPECT_EQ(env.fed->cell(doomed_cell).FreeSlots(), 0);

  // Failover: every task placed again, no integrity repairs, and the dead
  // cell's jobs moved out through the move pass.
  size_t rounds_after = 0;
  while (CountWaiting(*env.fed) > 0) {
    run_round();
    ++rounds_after;
    ASSERT_LT(rounds_after, 30u);
  }
  EXPECT_GT(env.fed->counters().spills, 0u);
  EXPECT_EQ(env.fed->cell(doomed_cell).WaitingTasks(), 0u);
  for (TaskId task : all_tasks) {
    if (env.fed->HasTask(task)) {
      EXPECT_TRUE(env.fed->IsTaskRunning(task));
      EXPECT_NE(env.fed->CellOfTask(task), doomed_cell);
    }
  }
}

// ---------------------------------------------------------------------------
// Counter sum-equality: cell-local counters + coordinator ignores must add
// up exactly in the summing views.
// ---------------------------------------------------------------------------

TEST(FederationCountersTest, SummedViewsEqualPerCellSums) {
  FederationOptions options;
  options.cell.enable_templates = true;
  FedEnv env(/*cells=*/2, /*racks=*/2, /*machines_per_rack=*/2, /*slots=*/8, options);
  SimTime now = 0;
  std::vector<TaskId> tasks;
  // Identical job shapes so the template cache records and (later) hits.
  for (int j = 0; j < 6; ++j) {
    env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(4, 10 * kSec), now, nullptr, &tasks);
    now += kSec;
    env.fed->RunRound(now);
  }
  // Every completion delivered twice: the duplicate is unroutable at the
  // coordinator (route erased by the fresh delivery), mirroring what the
  // centralized scheduler would count locally.
  size_t duplicates = 0;
  for (TaskId task : tasks) {
    if (!env.fed->IsTaskRunning(task)) continue;
    env.fed->CompleteTask(task, now);
    env.fed->CompleteTask(task, now);
    ++duplicates;
  }
  ASSERT_GT(duplicates, 0u);
  env.fed->CompleteTask(999999, now);  // never existed

  SchedulerEventCounters summed = env.fed->SummedEventCounters();
  SchedulerEventCounters manual;
  for (size_t c = 0; c < env.fed->num_cells(); ++c) {
    const SchedulerEventCounters& cc = env.fed->cell(c).scheduler().event_counters();
    manual.ignored_machine_removals += cc.ignored_machine_removals;
    manual.ignored_task_completions += cc.ignored_task_completions;
    manual.ignored_task_submissions += cc.ignored_task_submissions;
    manual.ignored_task_withdrawals += cc.ignored_task_withdrawals;
  }
  // The summing view = per-cell sums + the coordinator's unroutable events
  // (duplicates whose routes were erased + the unknown id).
  EXPECT_EQ(summed.ignored_task_completions,
            manual.ignored_task_completions + duplicates + 1);
  EXPECT_EQ(summed.ignored_machine_removals, manual.ignored_machine_removals);
  EXPECT_EQ(summed.ignored_task_withdrawals, manual.ignored_task_withdrawals);

  PlacementTemplateStats templates = env.fed->SummedTemplateStats();
  PlacementTemplateStats manual_templates;
  for (size_t c = 0; c < env.fed->num_cells(); ++c) {
    const PlacementTemplateStats& ct = env.fed->cell(c).scheduler().template_stats();
    manual_templates.hits += ct.hits;
    manual_templates.misses += ct.misses;
    manual_templates.validation_failures += ct.validation_failures;
    manual_templates.recordings += ct.recordings;
    manual_templates.evictions += ct.evictions;
  }
  EXPECT_EQ(templates.hits, manual_templates.hits);
  EXPECT_EQ(templates.misses, manual_templates.misses);
  EXPECT_EQ(templates.recordings, manual_templates.recordings);
  EXPECT_GT(templates.hits + templates.misses, 0u);
}

// ---------------------------------------------------------------------------
// Solve budget: each cell keeps the whole per-cell budget; a starvation
// budget degrades the merged round and leaves no cell round in flight.
// ---------------------------------------------------------------------------

TEST(FederationBudgetTest, StarvationBudgetDegradesMergedRound) {
  FederationOptions options;
  options.cell.solver.solve_budget_us = 1;  // nothing useful can finish
  FedEnv env(/*cells=*/2, /*racks=*/2, /*machines_per_rack=*/24, /*slots=*/8, options);
  for (int j = 0; j < 12; ++j) {
    env.fed->SubmitJob(JobType::kBatch, 0, MakeTasks(24), 0);
  }
  FederationRoundResult round = env.fed->RunRound(kSec);
  EXPECT_EQ(round.merged.outcome, SolveOutcome::kDegraded);
  EXPECT_TRUE(round.needs_followup);
  for (size_t c = 0; c < env.fed->num_cells(); ++c) {
    EXPECT_EQ(env.fed->cell(c).scheduler().solver().options().solve_budget_us, 1u);
    EXPECT_FALSE(env.fed->cell(c).scheduler().round_in_flight());
  }
}

// ---------------------------------------------------------------------------
// SchedulerService with cells=4: the producer API drives the federation
// backend unchanged, from multiple threads.
// ---------------------------------------------------------------------------

TEST(FederationServiceTest, FederatedServiceEndToEnd) {
  WallServiceClock clock(100.0);
  SchedulerServiceOptions options;
  options.cells = 4;
  options.cell_policy_factory = LoadSpreadFactory();
  options.machines_per_rack = 8;
  SchedulerService service(nullptr, &clock, options);
  for (int m = 0; m < 32; ++m) {
    service.AddMachine(kInvalidRackId, MachineSpec{.slots = 8});
  }
  ASSERT_NE(service.federation(), nullptr);
  EXPECT_EQ(service.federation()->TotalSlots(), 32 * 8);

  service.Start();
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&service, p] {
      Rng rng(1000 + p);
      for (int j = 0; j < 12; ++j) {
        service.Submit(JobType::kBatch, 0, MakeTasks(1 + rng.NextUint64(5)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.Stop();

  ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.tasks_placed, counters.tasks_submitted);
  EXPECT_EQ(counters.pending_first_placements, 0u);
  EXPECT_GT(counters.rounds, 0u);
  // Machines spread across all four cells (8 per auto-rack, round-robin).
  std::set<uint32_t> cells_used;
  for (MachineId m = 0; m < 32; ++m) {
    cells_used.insert(service.federation()->CellOfMachine(m));
  }
  EXPECT_EQ(cells_used.size(), 4u);
}

}  // namespace
}  // namespace firmament
