#include "src/sim/block_store.h"

#include <algorithm>

#include "src/base/check.h"

namespace firmament {

namespace {

// Sorts (key, bytes) pairs by key and merges equal keys by summing.
template <typename Key>
void SumByKey(std::vector<std::pair<Key, int64_t>>* entries) {
  std::sort(entries->begin(), entries->end());
  size_t kept = 0;
  for (size_t i = 0; i < entries->size(); ++i) {
    if (kept > 0 && (*entries)[kept - 1].first == (*entries)[i].first) {
      (*entries)[kept - 1].second += (*entries)[i].second;
    } else {
      (*entries)[kept++] = (*entries)[i];
    }
  }
  entries->resize(kept);
}

}  // namespace

std::vector<uint64_t> BlockStore::AllocateInput(int64_t bytes) {
  std::vector<uint64_t> ids;
  const std::vector<MachineDescriptor>& machines = cluster_->machines();
  CHECK(!machines.empty());
  std::vector<MachineId> alive;
  for (const MachineDescriptor& machine : machines) {
    if (machine.alive) {
      alive.push_back(machine.id);
    }
  }
  CHECK(!alive.empty());
  while (bytes > 0) {
    Block block;
    block.size = std::min(bytes, block_size_);
    bytes -= block.size;
    for (int r = 0; r < replication_ && r < static_cast<int>(alive.size()); ++r) {
      MachineId machine;
      do {
        machine = alive[rng_.NextUint64(alive.size())];
      } while (std::find(block.replicas.begin(), block.replicas.end(), machine) !=
               block.replicas.end());
      block.replicas.push_back(machine);
      machine_blocks_[machine].push_back(blocks_.size());
    }
    ids.push_back(blocks_.size());
    blocks_.push_back(std::move(block));
  }
  return ids;
}

void BlockStore::OnMachineRemoved(MachineId machine) {
  auto it = machine_blocks_.find(machine);
  if (it == machine_blocks_.end()) {
    return;
  }
  for (uint64_t id : it->second) {
    Block& block = blocks_[id];
    block.replicas.erase(std::remove(block.replicas.begin(), block.replicas.end(), machine),
                         block.replicas.end());
  }
  machine_blocks_.erase(it);
}

bool BlockStore::BlocksOnMachine(MachineId machine, std::vector<uint64_t>* out) const {
  auto it = machine_blocks_.find(machine);
  if (it != machine_blocks_.end()) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  return true;
}

int64_t BlockStore::BytesOnMachine(const TaskDescriptor& task, MachineId machine) const {
  int64_t bytes = 0;
  for (uint64_t id : task.input_blocks) {
    const Block& block = blocks_[id];
    if (std::find(block.replicas.begin(), block.replicas.end(), machine) !=
        block.replicas.end()) {
      bytes += block.size;
    }
  }
  return bytes;
}

int64_t BlockStore::BytesInRack(const TaskDescriptor& task, RackId rack) const {
  int64_t bytes = 0;
  for (uint64_t id : task.input_blocks) {
    const Block& block = blocks_[id];
    for (MachineId machine : block.replicas) {
      if (cluster_->RackOf(machine) == rack) {
        bytes += block.size;
        break;  // count each block once per rack
      }
    }
  }
  return bytes;
}

void BlockStore::CandidateMachines(const TaskDescriptor& task,
                                   std::vector<MachineId>* out) const {
  for (uint64_t id : task.input_blocks) {
    for (MachineId machine : blocks_[id].replicas) {
      out->push_back(machine);
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void BlockStore::ProfileInput(const TaskDescriptor& task, const ClusterState& cluster,
                              LocalityProfile* out) const {
  (void)cluster;
  out->machines.clear();
  out->racks.clear();
  for (uint64_t id : task.input_blocks) {
    const Block& block = blocks_[id];
    for (size_t r = 0; r < block.replicas.size(); ++r) {
      const RackId rack = cluster_->RackOf(block.replicas[r]);
      out->machines.push_back({block.replicas[r], block.size});
      bool rack_seen = false;  // count each block once per rack
      for (size_t q = 0; q < r && !rack_seen; ++q) {
        rack_seen = cluster_->RackOf(block.replicas[q]) == rack;
      }
      if (!rack_seen) {
        out->racks.push_back({rack, block.size});
      }
    }
  }
  // Ascending machine ids: CandidateMachines' order.
  SumByKey(&out->machines);
  SumByKey(&out->racks);
}

}  // namespace firmament
