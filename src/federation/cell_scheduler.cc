#include "src/federation/cell_scheduler.h"

#include "src/base/check.h"

namespace firmament {

CellScheduler::CellScheduler(uint32_t index, const CellPolicyFactory& factory,
                             const FirmamentSchedulerOptions& options)
    : index_(index) {
  bundle_ = factory(&cluster_, index);
  CHECK(bundle_.policy != nullptr);
  scheduler_ = std::make_unique<FirmamentScheduler>(&cluster_, bundle_.policy.get(),
                                                    options);
}

TaskId CellScheduler::ToGlobalTask(TaskId local) const {
  auto it = task_to_global_.find(local);
  CHECK(it != task_to_global_.end());
  return it->second;
}

void CellScheduler::MapMachine(MachineId local, MachineId global) {
  CHECK_EQ(static_cast<size_t>(local), machine_to_global_.size());
  machine_to_global_.push_back(global);
}

MachineId CellScheduler::ToGlobalMachine(MachineId local) const {
  CHECK_LT(static_cast<size_t>(local), machine_to_global_.size());
  return machine_to_global_[local];
}

}  // namespace firmament
