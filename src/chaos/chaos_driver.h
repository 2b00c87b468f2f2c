#ifndef ECDB_CHAOS_CHAOS_DRIVER_H_
#define ECDB_CHAOS_CHAOS_DRIVER_H_

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/sim_cluster.h"
#include "cluster/thread_node.h"

namespace ecdb {

/// Applies a FaultPlan to a running SimCluster. Every fault event (and
/// every duration-expiry restore it implies) is executed as a scheduler
/// event, so a run with a given (cluster seed, plan) pair is bit-for-bit
/// deterministic and a dumped plan replays exactly.
class ChaosDriver {
 public:
  explicit ChaosDriver(SimCluster* cluster);

  /// Schedules every event of `plan` on the cluster's scheduler. Call
  /// once, after SimCluster::Start() and before running the horizon.
  void Schedule(const FaultPlan& plan);

  /// Restores a fault-free cluster: loss back to the configured base
  /// rate, all links up, extra delays cleared, every crashed node
  /// recovered (WAL replay + independent recovery). The consistency audit
  /// calls this first — an isolated recovered node would otherwise re-run
  /// elections forever and the drain would never quiesce.
  void ClearFaults();

  /// Fault events actually applied so far (restores not counted).
  uint64_t faults_applied() const { return faults_applied_; }

 private:
  void Apply(const FaultEvent& ev);

  SimCluster* cluster_;
  double base_drop_probability_;
  uint64_t faults_applied_ = 0;
  std::unordered_set<uint64_t> cut_links_;            // undirected key
  std::unordered_set<uint64_t> delayed_links_;        // directed key
  std::vector<std::pair<NodeId, NodeId>> partition_cuts_;
};

/// Applies the crash/recover + link/loss/delay subset of `plan` to a
/// running ThreadCluster in wall clock, each event at `at_us /
/// time_scale` after the call (time_scale > 1 compresses the plan; sim
/// plans assume microsecond-level latencies the threaded runtime does not
/// have). Blocks until the last event has fired, then restores a
/// fault-free network and recovers every crashed node. Partition events
/// are expanded to link cuts; WAL replay runs in the node core on recovery.
void ApplyPlanToThreadCluster(const FaultPlan& plan, ThreadCluster* cluster,
                              double time_scale = 1.0);

}  // namespace ecdb

#endif  // ECDB_CHAOS_CHAOS_DRIVER_H_
