#include "src/core/integrity_checker.h"

#include <unordered_map>

namespace firmament {

void IntegrityChecker::CheckCluster(IntegrityReport* report) const {
  // Recompute the per-machine statistics the incremental path maintains and
  // diff them against what the descriptors claim; any divergence means an
  // out-of-band mutation bypassed the lifecycle methods.
  std::unordered_map<MachineId, int32_t> running;
  std::unordered_map<MachineId, int64_t> bandwidth;
  for (const MachineDescriptor& machine : cluster_->machines()) {
    running.emplace(machine.id, 0);
    bandwidth.emplace(machine.id, 0);
  }
  size_t waiting = 0;
  for (TaskId task_id : cluster_->LiveTasks()) {
    const TaskDescriptor& task = cluster_->task(task_id);
    if (task.state == TaskState::kWaiting) {
      ++waiting;
    }
    if (task.state != TaskState::kRunning) {
      continue;
    }
    if (task.machine >= cluster_->machines().size()) {
      report->violations.push_back("task " + std::to_string(task_id) +
                                   ": running on unknown machine " +
                                   std::to_string(task.machine));
      continue;
    }
    if (!cluster_->machine(task.machine).alive) {
      report->violations.push_back("task " + std::to_string(task_id) +
                                   ": running on dead machine " +
                                   std::to_string(task.machine));
    }
    running[task.machine] += 1;
    bandwidth[task.machine] += task.bandwidth_request_mbps;
    ++report->entities_verified;
  }
  for (const MachineDescriptor& machine : cluster_->machines()) {
    if (machine.running_tasks != running[machine.id] ||
        machine.used_bandwidth_mbps != bandwidth[machine.id]) {
      report->violations.push_back("machine " + std::to_string(machine.id) +
                                   ": statistics drifted from task state");
    }
    ++report->entities_verified;
  }
  // Federated routing and the move pass read this count instead of
  // scanning the tasks.
  if (cluster_->num_waiting_tasks() != waiting) {
    report->violations.push_back("waiting count " +
                                 std::to_string(cluster_->num_waiting_tasks()) +
                                 " drifted from task state (" + std::to_string(waiting) + ")");
  }
}

void IntegrityChecker::CheckParity(IntegrityReport* report) const {
  size_t mapped_machines = 0;
  for (const MachineDescriptor& machine : cluster_->machines()) {
    const bool mapped = manager_->NodeForMachine(machine.id) != kInvalidNodeId;
    if (machine.alive && !mapped) {
      report->violations.push_back("machine " + std::to_string(machine.id) +
                                   ": alive but absent from the graph");
    } else if (!machine.alive && mapped) {
      report->violations.push_back("machine " + std::to_string(machine.id) +
                                   ": dead but still mapped in the graph");
    }
    if (mapped) {
      ++mapped_machines;
    }
    ++report->entities_verified;
  }
  size_t live_tasks = 0;
  for (TaskId task_id : cluster_->LiveTasks()) {
    ++live_tasks;
    if (!manager_->HasTask(task_id)) {
      report->violations.push_back("task " + std::to_string(task_id) +
                                   ": live but absent from the graph");
    }
    ++report->entities_verified;
  }
  // The reverse direction: the graph must not track more entities than the
  // cluster has live ones (a tracked-but-dead entity would have tripped the
  // per-entity checks above only if ids matched; counts close the gap).
  if (manager_->num_task_nodes() != live_tasks) {
    report->violations.push_back(
        "graph tracks " + std::to_string(manager_->num_task_nodes()) + " tasks, cluster has " +
        std::to_string(live_tasks) + " live");
  }
}

void IntegrityChecker::CheckFlowBounds(IntegrityReport* report) const {
  const FlowGraphManager& manager = *manager_;  // const overload: reference
  const FlowNetwork& network = manager.network();
  for (ArcId arc = 0; arc < network.ArcCapacityBound(); ++arc) {
    if (!network.IsValidArc(arc)) {
      continue;
    }
    int64_t flow = network.Flow(arc);
    if (flow < 0 || flow > network.Capacity(arc)) {
      report->violations.push_back("arc " + std::to_string(arc) + ": flow " +
                                   std::to_string(flow) + " outside [0, " +
                                   std::to_string(network.Capacity(arc)) + "]");
    }
    ++report->entities_verified;
  }
}

IntegrityReport IntegrityChecker::Check() const {
  IntegrityReport report;
  CheckCluster(&report);
  CheckParity(&report);
  report.entities_verified += manager_->CheckIntegrity(&report.violations);
  CheckFlowBounds(&report);
  return report;
}

std::vector<RecoveryAction> IntegrityChecker::Recover(SimTime now) {
  std::vector<RecoveryAction> actions;
  // Cluster first: the rebuild below derives the graph from the cluster, so
  // cluster-level damage must be repaired before the replay reads it.
  cluster_->RefreshStatistics();
  actions.push_back({RecoveryActionKind::kRefreshedClusterStats, "recomputed machine stats"});
  for (TaskId task_id : cluster_->LiveTasks()) {
    const TaskDescriptor& task = cluster_->task(task_id);
    if (task.state == TaskState::kRunning &&
        (task.machine >= cluster_->machines().size() ||
         !cluster_->machine(task.machine).alive)) {
      // A stranded task's machine slot no longer exists; send it back to
      // waiting so the next round can place it somewhere real. EvictTask's
      // stats decrement targets the dead machine's descriptor, which the
      // RefreshStatistics above zeroed — re-refresh after the sweep.
      cluster_->EvictTask(task_id, now);
      actions.push_back(
          {RecoveryActionKind::kEvictedOrphanTask, "task " + std::to_string(task_id)});
    }
  }
  if (actions.size() > 1) {
    cluster_->RefreshStatistics();  // settle stats after orphan evictions
  }
  // Graph: drop everything derived and replay the (now repaired) cluster.
  manager_->RebuildFromCluster(now);
  actions.push_back({RecoveryActionKind::kRebuiltGraph, "replayed cluster state"});
  return actions;
}

}  // namespace firmament
