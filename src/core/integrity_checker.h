// Cross-layer detect-and-rebuild integrity checking (robustness layer).
//
// ValidateIntegrity (the manager's internal audit) grew up: the
// IntegrityChecker verifies consistency ACROSS the layers that the
// incremental machinery keeps in sync by construction — cluster state,
// flow graph + bookkeeping maps, the persistent equivalence-class cache —
// and, instead of CHECK-aborting the control loop when they have drifted
// (out-of-band mutation, a bug in a new policy, memory corruption under
// fault injection), classifies the damage and repairs it:
//
//  * cluster-internal damage (stats drift, running task on a dead machine)
//    is repaired in place (RefreshStatistics / eviction);
//  * graph-layer damage of any kind is repaired wholesale by
//    FlowGraphManager::RebuildFromCluster — drop the caches, rebuild the
//    graph from the cluster's current state, force every solver view to
//    rebuild (fresh network uid).
//
// The scheduler runs Check() each round (when enabled), invokes Recover()
// on a dirty report, re-checks, and CHECK-aborts only if the state is
// still inconsistent after a full rebuild — a provably-impossible state
// (the rebuild derives the graph from the cluster alone, so only
// irreparable cluster damage can survive it). Recovery actions are counted
// in SchedulerRoundResult so storms of silent repairs stay observable.

#ifndef SRC_CORE_INTEGRITY_CHECKER_H_
#define SRC_CORE_INTEGRITY_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/flow_graph_manager.h"
#include "src/core/types.h"

namespace firmament {

// One structured repair step taken by Recover(); surfaced (counted) in
// SchedulerRoundResult::recovery_actions.
enum class RecoveryActionKind : uint8_t {
  kRefreshedClusterStats,  // machine stats + waiting count recomputed from tasks
  kEvictedOrphanTask,      // running task's machine dead/unknown -> waiting
  kRebuiltGraph,           // RebuildFromCluster: graph + caches replayed
};

struct RecoveryAction {
  RecoveryActionKind kind;
  std::string detail;
};

struct IntegrityReport {
  // Human-readable description of every violation found, across layers.
  std::vector<std::string> violations;
  size_t entities_verified = 0;
  bool clean() const { return violations.empty(); }
};

class IntegrityChecker {
 public:
  IntegrityChecker(ClusterState* cluster, FlowGraphManager* manager)
      : cluster_(cluster), manager_(manager) {}

  // Verifies, without mutating anything:
  //  1. cluster-internal invariants (stats and the waiting count match task
  //     state, running tasks sit on alive machines, rack membership matches
  //     liveness);
  //  2. cluster <-> graph parity (every alive machine / live task is
  //     mapped, nothing dead or unknown is);
  //  3. graph-internal + class-cache invariants
  //     (FlowGraphManager::CheckIntegrity);
  //  4. flow sanity: 0 <= flow <= capacity on every valid arc.
  IntegrityReport Check() const;

  // Repairs a dirty state: refreshes cluster statistics, evicts running
  // tasks stranded on dead machines, then rebuilds the graph from the
  // cluster (RebuildFromCluster). Returns the actions taken. The caller
  // should re-Check() afterwards and treat a still-dirty report as
  // impossible (abort): the rebuild derives every graph invariant from the
  // cluster alone.
  std::vector<RecoveryAction> Recover(SimTime now);

 private:
  void CheckCluster(IntegrityReport* report) const;
  void CheckParity(IntegrityReport* report) const;
  void CheckFlowBounds(IntegrityReport* report) const;

  ClusterState* cluster_;
  FlowGraphManager* manager_;
};

}  // namespace firmament

#endif  // SRC_CORE_INTEGRITY_CHECKER_H_
