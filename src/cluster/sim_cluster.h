#ifndef ECDB_CLUSTER_SIM_CLUSTER_H_
#define ECDB_CLUSTER_SIM_CLUSTER_H_

#include <memory>
#include <vector>

#include "cluster/config.h"
#include "cluster/sim_node.h"
#include "commit/invariants.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "sim/scheduler.h"
#include "stats/metrics.h"
#include "workload/workload.h"

namespace ecdb {

/// A complete simulated deployment: scheduler + network + N server nodes,
/// each hosting one partition with its own clients (the paper's
/// partition-per-server, client-per-server layout on Azure).
///
/// Typical benchmark use:
///   SimCluster cluster(config, std::move(workload));
///   cluster.Start();
///   cluster.RunFor(warmup_seconds);
///   cluster.BeginMeasurement();
///   cluster.RunFor(measure_seconds);
///   ClusterStats stats = cluster.CollectStats(measure_seconds);
class SimCluster {
 public:
  SimCluster(const ClusterConfig& config, std::unique_ptr<Workload> workload);

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// On the calling thread and in node order: loads every node's partition
  /// (each load maps its tables' memory and writes none of it), then joins
  /// each node to the network and launches the clients.
  void Start();

  /// Advances simulated time by `seconds`.
  void RunFor(double seconds);

  /// Runs until the event queue drains or `max_events` fire. Used by
  /// failure tests to reach quiescence.
  size_t RunToQuiescence(size_t max_events = 10'000'000);

  /// Opens a fresh measurement window: snapshots the registry as the
  /// window's baseline.
  void BeginMeasurement();

  /// Stats since BeginMeasurement (else since construction): after a gauge
  /// poll, the registry snapshot minus the baseline, plus idle time derived
  /// from worker busy time vs. the `duration_seconds` window.
  ClusterStats CollectStats(double duration_seconds);

  SimNode& node(NodeId id) { return *nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }
  Scheduler& scheduler() { return scheduler_; }
  SimNetwork& network() { return *network_; }
  SafetyMonitor& monitor() { return monitor_; }
  Workload& workload() { return *workload_; }
  const ClusterConfig& config() const { return config_; }

  /// Crashes / recovers a node (network + node state).
  void CrashNode(NodeId id);
  /// Returns false, doing nothing, when the node is up.
  bool RecoverNode(NodeId id);

  /// Quiesces every node's closed loop (see NodeCore::Quiesce); a
  /// subsequent RunToQuiescence drains all in-flight work. Also stops the
  /// telemetry sampling chain — a perpetual self-rescheduling event would
  /// otherwise keep the scheduler from ever draining.
  void Quiesce() {
    StopTelemetry();
    for (auto& node : nodes_) node->Quiesce();
  }

  /// Takes a final sample and cancels the periodic sampling event. Safe to
  /// call repeatedly; no-op without a sampler.
  void StopTelemetry();

  /// The time-series sampler, or nullptr when config.telemetry.enabled is
  /// false.
  TelemetrySampler* telemetry() { return sampler_.get(); }

  /// Turns on protocol tracing on every node.
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity);

  /// Per-node recorders, for CollectEvents + the exporters.
  std::vector<const TraceRecorder*> recorders() const;

 private:
  /// Copies the network's, trace rings' and clients' cumulative counts
  /// into the registry's gauges.
  void PollGauges();
  void SampleTick();

  ClusterConfig config_;
  Scheduler scheduler_;
  std::unique_ptr<SimNetwork> network_;
  std::unique_ptr<Workload> workload_;
  SafetyMonitor monitor_;

  // The registry lives on the cluster and every node records through
  // shard 0 (the sim is single-threaded). BeginMeasurement snapshots the
  // window's baseline. With config_.telemetry.enabled a sampler driven by
  // a virtual-time event chain turns it into byte-deterministic exports.
  MetricsRegistry metrics_registry_;
  CoreMetrics core_metrics_;
  MetricsSnapshot window_base_;
  std::vector<std::unique_ptr<SimNode>> nodes_;

  std::unique_ptr<TelemetrySampler> sampler_;
  Scheduler::TaskId sampler_task_ = 0;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_SIM_CLUSTER_H_
