// One scheduling cell of a federated deployment: a private ClusterState +
// SchedulingPolicy + FirmamentScheduler stack (which brings its own
// FlowGraphManager, RacingSolver, and PlacementTemplateCache), plus the
// local<->global id bridge the FederationCoordinator uses to route events.
//
// Cells are fully share-nothing. Everything in here runs on the
// coordinator's thread except the cell's own solve, which runs on its
// scheduler's dispatch worker and reads only the cell's network.

#ifndef SRC_FEDERATION_CELL_SCHEDULER_H_
#define SRC_FEDERATION_CELL_SCHEDULER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/scheduler.h"
#include "src/core/scheduling_policy.h"

namespace firmament {

// What the per-cell policy factory hands back: the policy itself plus an
// opaque context handle keeping whatever the policy reads alive for the
// cell's lifetime (a per-cell locality store, cost-model tables, ...).
struct CellPolicyBundle {
  std::unique_ptr<SchedulingPolicy> policy;
  std::shared_ptr<void> context;
};

// Builds the policy stack for one cell. Called once per cell at coordinator
// construction with the cell's (empty) ClusterState; the policy must read
// that cluster, not a global one.
using CellPolicyFactory =
    std::function<CellPolicyBundle(ClusterState* cluster, uint32_t cell)>;

class CellScheduler {
 public:
  CellScheduler(uint32_t index, const CellPolicyFactory& factory,
                const FirmamentSchedulerOptions& options);

  CellScheduler(const CellScheduler&) = delete;
  CellScheduler& operator=(const CellScheduler&) = delete;

  uint32_t index() const { return index_; }
  ClusterState& cluster() { return cluster_; }
  const ClusterState& cluster() const { return cluster_; }
  FirmamentScheduler& scheduler() { return *scheduler_; }
  const FirmamentScheduler& scheduler() const { return *scheduler_; }
  SchedulingPolicy& policy() { return *bundle_.policy; }

  // --- local <-> global id bridge ----------------------------------------
  // Global ids are minted by the coordinator; each cell only remembers the
  // forward (local -> global) direction — the coordinator's route tables
  // hold the reverse.
  void MapTask(TaskId local, TaskId global) { task_to_global_[local] = global; }
  void UnmapTask(TaskId local) { task_to_global_.erase(local); }
  TaskId ToGlobalTask(TaskId local) const;
  void MapMachine(MachineId local, MachineId global);
  MachineId ToGlobalMachine(MachineId local) const;

  // --- load metrics (routing, move pass) ---------------------------------
  size_t WaitingTasks() const { return cluster_.num_waiting_tasks(); }
  int64_t FreeSlots() const {
    return cluster_.TotalSlots() - cluster_.UsedSlots();
  }

 private:
  const uint32_t index_;
  ClusterState cluster_;
  CellPolicyBundle bundle_;
  std::unique_ptr<FirmamentScheduler> scheduler_;
  std::unordered_map<TaskId, TaskId> task_to_global_;
  std::vector<MachineId> machine_to_global_;  // dense: local machine ids
};

}  // namespace firmament

#endif  // SRC_FEDERATION_CELL_SCHEDULER_H_
