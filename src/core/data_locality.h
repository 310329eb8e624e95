// Data-locality oracle consumed by the Quincy policy (Fig. 6b).
//
// Abstracted so the policy can be driven either by the simulated HDFS-like
// block store (src/sim/block_store.*) or by any other metadata source.

#ifndef SRC_CORE_DATA_LOCALITY_H_
#define SRC_CORE_DATA_LOCALITY_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/types.h"

namespace firmament {

// Every byte count the Quincy policy prices a task's arcs from
// (DataLocalityInterface::ProfileInput).
struct LocalityProfile {
  // (candidate machine, BytesOnMachine), in CandidateMachines order.
  std::vector<std::pair<MachineId, int64_t>> machines;
  // (rack, BytesInRack) for every rack holding a candidate, ascending rack
  // id. A block counts once per rack, however many replicas it has there.
  std::vector<std::pair<RackId, int64_t>> racks;
};

class DataLocalityInterface {
 public:
  virtual ~DataLocalityInterface() = default;

  // Bytes of `task`'s input stored on `machine`.
  virtual int64_t BytesOnMachine(const TaskDescriptor& task, MachineId machine) const = 0;
  // Bytes of `task`'s input stored anywhere within `rack`.
  virtual int64_t BytesInRack(const TaskDescriptor& task, RackId rack) const = 0;
  // Machines holding at least one block of `task`'s input — the candidate
  // targets for preference arcs.
  virtual void CandidateMachines(const TaskDescriptor& task,
                                 std::vector<MachineId>* out) const = 0;
  // Replaces `*out` with the task's profile: the same numbers the three
  // queries above return, with racks taken from `cluster`. The default
  // composes those queries (one pass over the blocks per query); a source
  // that can walk the blocks once overrides it — BlockStore does, which is
  // what makes a class-cache miss in QuincyPolicy::EquivClassArcs cheap.
  virtual void ProfileInput(const TaskDescriptor& task, const ClusterState& cluster,
                            LocalityProfile* out) const;

  // Appends the blocks with a replica currently on `machine` and returns
  // true. The Quincy policy collects them on a machine removal: only tasks
  // reading one of these blocks can see their preference/transfer costs
  // move, so only they (and their equivalence classes) are dirtied at the
  // next round — not the whole task set. Must be queried BEFORE
  // the store itself drops the machine's replicas (the policy's
  // OnMachineRemoved hook runs first; see FirmamentScheduler::RemoveMachine
  // ordering). Sources without a reverse replica index keep the default and
  // return false; the policy then falls back to dirtying every task.
  virtual bool BlocksOnMachine(MachineId machine, std::vector<uint64_t>* out) const {
    (void)machine;
    (void)out;
    return false;
  }
};

inline void DataLocalityInterface::ProfileInput(const TaskDescriptor& task,
                                                const ClusterState& cluster,
                                                LocalityProfile* out) const {
  std::vector<MachineId> candidates;
  CandidateMachines(task, &candidates);
  out->machines.clear();
  out->racks.clear();
  for (MachineId machine : candidates) {
    out->machines.push_back({machine, BytesOnMachine(task, machine)});
    out->racks.push_back({cluster.RackOf(machine), 0});
  }
  std::sort(out->racks.begin(), out->racks.end());
  out->racks.erase(std::unique(out->racks.begin(), out->racks.end()), out->racks.end());
  for (auto& [rack, bytes] : out->racks) {
    bytes = BytesInRack(task, rack);
  }
}

}  // namespace firmament

#endif  // SRC_CORE_DATA_LOCALITY_H_
