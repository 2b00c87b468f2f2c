#ifndef ECDB_CHAOS_CHAOS_DRIVER_H_
#define ECDB_CHAOS_CHAOS_DRIVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/sim_cluster.h"
#include "cluster/thread_node.h"

namespace ecdb {

/// The levers the fault applier pulls on one host. A host implements them
/// over its own cluster and network; which links a partition cuts, when a
/// loss burst or delay spike ends and what the clear step resets are
/// decided once, in ChaosDriver.
class FaultHost {
 public:
  virtual ~FaultHost() = default;

  virtual size_t num_nodes() const = 0;

  /// Fail-stops `node`; no-op when it is already down.
  virtual void Crash(NodeId node) = 0;

  /// Restarts `node` (WAL replay + independent recovery); no-op when up.
  virtual void Recover(NodeId node) = 0;

  /// Cuts or restores the bidirectional link a<->b.
  virtual void SetLinkDown(NodeId a, NodeId b, bool down) = 0;

  /// Probability that any message is dropped.
  virtual void SetDropProbability(double p) = 0;

  /// Extra latency, in plan microseconds, on the a -> b direction; 0 clears.
  virtual void SetExtraDelay(NodeId a, NodeId b, Micros extra_us) = 0;

  /// Current plan time.
  virtual Micros Now() const = 0;

  /// Runs `fn` `delay_us` of plan time after Now(). Equal-time actions run
  /// in the order they were scheduled.
  virtual void After(Micros delay_us, std::function<void()> fn) = 0;
};

/// Applies a FaultPlan to a host. Every fault event, and every restore a
/// duration implies, is an action on the host's plan clock, scheduled in
/// plan order before the run advances, so on the simulator a (cluster
/// seed, plan) pair replays bit for bit.
///
/// Link rule: a link is down while it is cut on its own (kLinkCut not yet
/// healed by its kLinkHeal) or while it crosses the cells of an active
/// partition (kPartition or kSplit3 not yet ended by a kPartitionHeal,
/// which ends every active partition).
///
/// Burst and spike rule: a loss burst holds the drop probability, and a
/// delay spike its link's extra delay, for its whole duration. While
/// several bursts (or spikes on one link) overlap, the latest one still
/// active sets the value; when one ends, the value falls back to the
/// latest one still active, and to the fault-free value only when none is.
class ChaosDriver {
 public:
  /// `base_drop_probability` is the host's loss rate without faults: loss
  /// bursts and the clear step restore it.
  ChaosDriver(FaultHost* host, double base_drop_probability);

  /// Schedules every event of `plan` on the host's plan clock. Call once,
  /// after the cluster started and before running the horizon.
  void Schedule(const FaultPlan& plan);

  /// Restores a fault-free host: loss back to base, all links up, extra
  /// delays cleared, every crashed node recovered. Restores already
  /// scheduled still fire, as no-ops.
  void ClearFaults();

  /// Fault events applied so far (restores not counted).
  uint64_t faults_applied() const { return faults_applied_; }

 private:
  using Link = std::pair<NodeId, NodeId>;

  /// One active burst or spike: its id and the value it sets.
  template <typename T>
  struct Active {
    uint64_t id;
    T value;
  };

  /// Applies one event now (scheduling its restore, if it has a duration).
  void Apply(const FaultEvent& ev);

  /// Sets every link of the host to what the link rule says.
  void SyncLinks();

  /// Sets both directions of `link` to its latest active spike's delay,
  /// or 0 without one.
  void SyncDelay(const Link& link);

  FaultHost* host_;
  double base_drop_probability_;
  uint64_t faults_applied_ = 0;
  std::set<Link> cut_links_;    // undirected (lo, hi), cut on their own
  std::vector<std::vector<uint8_t>> partitions_;  // active: cell per node
  std::set<Link> links_down_;   // undirected (lo, hi), as set on the host
  uint64_t next_fault_id_ = 0;
  std::vector<Active<double>> bursts_;  // in start order
  std::map<Link, std::vector<Active<Micros>>> spikes_;  // undirected
};

/// SimCluster's levers: the plan clock is the cluster's scheduler.
class SimFaultHost : public FaultHost {
 public:
  explicit SimFaultHost(SimCluster* cluster) : cluster_(cluster) {}

  size_t num_nodes() const override { return cluster_->num_nodes(); }
  void Crash(NodeId node) override;
  void Recover(NodeId node) override;
  void SetLinkDown(NodeId a, NodeId b, bool down) override;
  void SetDropProbability(double p) override;
  void SetExtraDelay(NodeId a, NodeId b, Micros extra_us) override;
  Micros Now() const override;
  void After(Micros delay_us, std::function<void()> fn) override;

 private:
  SimCluster* cluster_;
};

/// Applies `plan` to a running ThreadCluster in wall clock: plan time t
/// fires at t / time_scale after the call (time_scale > 1 compresses the
/// plan; extra delays shrink by the same factor). Blocks until the plan
/// horizon (or the last action, if that is later), then runs the clear
/// step. Returns the number of fault events applied.
uint64_t ApplyPlanToThreadCluster(const FaultPlan& plan,
                                  ThreadCluster* cluster,
                                  double time_scale = 1.0);

}  // namespace ecdb

#endif  // ECDB_CHAOS_CHAOS_DRIVER_H_
