// HDFS-like replicated block store (locality substrate for the Quincy
// policy).
//
// The paper replays the Google trace "augmented with locality preferences
// for batch processing jobs" (§2.2); the trace itself has no file system
// metadata, so — per the substitution rule — we synthesize one: task inputs
// are split into fixed-size blocks, each replicated on `replication` random
// machines, exactly the shape of the HDFS installation used in §7.5.

#ifndef SRC_SIM_BLOCK_STORE_H_
#define SRC_SIM_BLOCK_STORE_H_

#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/core/cluster.h"
#include "src/core/data_locality.h"
#include "src/core/types.h"

namespace firmament {

class BlockStore : public DataLocalityInterface {
 public:
  BlockStore(const ClusterState* cluster, uint64_t seed, int64_t block_size_bytes = 256'000'000,
             int replication = 3)
      : cluster_(cluster), rng_(seed), block_size_(block_size_bytes), replication_(replication) {}

  // Splits `bytes` into blocks placed on random alive machines; returns the
  // block ids (stored in TaskDescriptor::input_blocks).
  std::vector<uint64_t> AllocateInput(int64_t bytes);

  // Drops all replicas on a failed machine (blocks may lose locality).
  // O(blocks on the machine) via the machine -> blocks index, not O(all
  // blocks).
  void OnMachineRemoved(MachineId machine);

  // DataLocalityInterface:
  int64_t BytesOnMachine(const TaskDescriptor& task, MachineId machine) const override;
  int64_t BytesInRack(const TaskDescriptor& task, RackId rack) const override;
  void CandidateMachines(const TaskDescriptor& task, std::vector<MachineId>* out) const override;
  // One pass over the task's blocks; racks come from the store's own
  // cluster, as in BytesInRack, so `cluster` is unused.
  void ProfileInput(const TaskDescriptor& task, const ClusterState& cluster,
                    LocalityProfile* out) const override;
  bool BlocksOnMachine(MachineId machine, std::vector<uint64_t>* out) const override;

  size_t num_blocks() const { return blocks_.size(); }
  int64_t block_size() const { return block_size_; }

 private:
  struct Block {
    int64_t size = 0;
    std::vector<MachineId> replicas;
  };

  const ClusterState* cluster_;
  Rng rng_;
  int64_t block_size_;
  int replication_;
  std::vector<Block> blocks_;
  // Reverse replica index: machine -> blocks with a replica there. Kept in
  // sync by AllocateInput/OnMachineRemoved; consumed by BlocksOnMachine.
  std::unordered_map<MachineId, std::vector<uint64_t>> machine_blocks_;
};

}  // namespace firmament

#endif  // SRC_SIM_BLOCK_STORE_H_
