#ifndef ECDB_CLUSTER_THREAD_NODE_H_
#define ECDB_CLUSTER_THREAD_NODE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/node_core.h"
#include "cluster/worker.h"
#include "commit/invariants.h"
#include "net/channel.h"
#include "obs/telemetry.h"
#include "stats/metrics.h"
#include "trace/trace_recorder.h"
#include "workload/workload.h"

namespace ecdb {

/// Configuration of the threaded (real OS threads, wall-clock time)
/// runtime. Protocol timeouts are interpreted as real microseconds.
struct ThreadClusterConfig : NodeConfig {
  ThreadClusterConfig() {
    num_nodes = 4;
    clients_per_node = 4;
    commit = CommitEngineConfig{.timeout_us = 50'000,
                                .termination_window_us = 20'000,
                                .keep_decision_ledger = true};
    backoff_base_us = 200;
  }

  /// Worker-pool size for the shard-per-core runtime: nodes are hosted
  /// M:N on `worker_threads` event-loop workers (node_id % workers), each
  /// with one mailbox and one shared timer heap. 0 keeps the historical
  /// thread-per-node behaviour (one worker per node). Values above
  /// num_nodes are clamped. For a fixed pool sized to the machine, pass
  /// std::thread::hardware_concurrency().
  uint32_t worker_threads = 0;

  /// Optional directory for file-backed WALs (one per node). Empty keeps
  /// the logs in memory.
  std::string wal_dir;
};

/// One server node of the threaded runtime: a NodeCore hosted on a
/// ThreadWorker (node_id % workers), thread-confined to that worker.
/// Cross-worker communication goes through ThreadNetwork mailboxes;
/// same-worker sends ride the worker's local queue. Node work runs inline
/// on the worker thread and timers live in the worker's shared heap. Every
/// send is buffered per destination and leaves at the end of the loop
/// iteration, after the iteration's WAL appends are group-committed:
/// coalesce_transport sets the frame cap (a whole buffer per frame, or one
/// message per frame).
class ThreadNode : public NodeCore {
 public:
  ThreadNode(NodeId id, const ThreadClusterConfig& config,
             ThreadNetwork* network, Workload* workload,
             SafetyMonitor* monitor, uint64_t seed,
             const MetricsHandle& metrics);
  ~ThreadNode() override;

  /// Crash (fail-stop), callable from any thread: at the start of its next
  /// loop iteration the hosting worker cuts the node from the network and
  /// drops its volatile state. Co-hosted nodes are untouched.
  void Crash();

  /// Restart, callable from any thread: the network readmits the node and
  /// the hosting worker runs the core's WAL recovery pass. Returns false,
  /// doing nothing, when the node is up and no crash is pending.
  bool Recover();

  Micros NowUs() const override;

 private:
  friend class ThreadWorker;

  // --- Host interface ---
  TimerId ScheduleTimer(Micros at, const NodeTimer& timer) override;
  void UnscheduleTimer(TimerId id) override;
  void Run(Work work, TaskFn fn) override;
  void Transmit(Message msg) override;
  bool Fenced() const override { return network_->IsCrashed(self()); }

  // --- Hooks for the hosting ThreadWorker (worker thread only) ---

  /// Registers the hosting worker (once, before it starts).
  void BindHost(ThreadWorker* host) { host_ = host; }

  /// Drains pending crash/recover requests (once per loop iteration).
  void ProcessControl();

  /// Flush point (end of every loop iteration): first makes this
  /// iteration's WAL appends durable as one group, then ships each dirty
  /// per-destination send buffer — as one frame under coalesce_transport,
  /// else one frame per message. A failed WAL flush fail-stops the node
  /// the way Crash() does, and the buffered frames die with it.
  void FlushOutput();

  /// wal().Flush() when records are staged, counted and timed into the
  /// registry.
  Status FlushWal();

  /// Sends one frame to `dst`, draining `frame` (capacity kept).
  void ShipFrame(NodeId dst, std::vector<Message>* frame);

  const ThreadClusterConfig& config_;
  ThreadNetwork* network_;
  ThreadWorker* host_ = nullptr;
  uint64_t flushed_size_;  // wal().Size() at the last flush

  // One open send buffer per destination plus the list of destinations
  // touched this iteration; buffers are drained by SendBatch (or the
  // worker's local queue) keeping their capacity, so steady state
  // allocates nothing. single_frame_ carries one message at a time when
  // the frame cap is one.
  std::vector<std::vector<Message>> send_buffers_;
  std::vector<NodeId> dirty_dsts_;
  std::vector<Message> single_frame_;

  std::atomic<bool> crash_requested_{false};
  std::atomic<bool> recover_requested_{false};
};

/// The threaded deployment: N ThreadNodes hosted M:N on a pool of
/// ThreadWorkers over a ThreadNetwork with one mailbox per worker.
class ThreadCluster {
 public:
  ThreadCluster(const ThreadClusterConfig& config,
                std::unique_ptr<Workload> workload);
  ~ThreadCluster();

  /// Bootstraps every node and starts the worker pool.
  void Start();

  /// Lets the cluster run for `seconds` of wall-clock time.
  void RunFor(double seconds);

  /// Stops all workers and joins their threads.
  void Stop();

  /// Quiesces every node and waits for in-flight transactions to drain.
  void Quiesce(double drain_seconds = 0.5);

  ThreadNode& node(NodeId id) { return *nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_workers() const { return workers_.size(); }
  ThreadNetwork& network() { return *network_; }
  SafetyMonitor& monitor() { return monitor_; }

  /// Total committed transactions across nodes (live, approximate).
  uint64_t TotalCommitted() const;

  /// The whole run's stats, reported for a window of `duration_seconds`:
  /// a registry snapshot after a gauge poll. Trace drops are folded in at
  /// Stop(), so call only after it.
  ClusterStats CollectStats(double duration_seconds);

  /// Per-worker event-loop counters (occupancy, mailbox/local message
  /// split). Read only after Stop().
  std::vector<WorkerStats> CollectWorkerStats() const;

  /// Turns on protocol tracing on every node. Call before Start().
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity);

  /// Per-node recorders, for CollectEvents + the exporters. Read only
  /// after Stop().
  std::vector<const TraceRecorder*> recorders() const;

  /// The time-series sampler, or nullptr when config.telemetry.enabled is
  /// false. Slices are safe to read after Stop() (the sampler thread is
  /// joined there, taking one final sample).
  TelemetrySampler* telemetry() { return sampler_.get(); }

 private:
  /// Copies the network's cumulative counts into the registry's gauges.
  /// Reads only atomics: the sampler thread calls it mid-run.
  void PollGauges();

  ThreadClusterConfig config_;
  std::unique_ptr<ThreadNetwork> network_;
  std::unique_ptr<Workload> workload_;
  SafetyMonitor monitor_;  // guarded by monitor_mu_ inside nodes

  // One registry shard per worker, recorded by the worker and the nodes it
  // hosts. The wall-clock sampler thread (config_.telemetry.enabled) only
  // touches the registry's and ThreadNetwork's atomics.
  MetricsRegistry metrics_registry_;
  CoreMetrics core_metrics_;

  std::vector<std::unique_ptr<ThreadNode>> nodes_;
  // Declared after nodes_: workers are destroyed (joined) first, so no
  // worker thread can touch a node mid-destruction.
  std::vector<std::unique_ptr<ThreadWorker>> workers_;
  bool started_ = false;

  std::unique_ptr<TelemetrySampler> sampler_;
  WallClockSampler sampling_;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_THREAD_NODE_H_
