#ifndef ECDB_CLUSTER_THREAD_NODE_H_
#define ECDB_CLUSTER_THREAD_NODE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
/// on the worker thread, timers live in the worker's shared heap, and with
/// coalesce_transport each loop iteration ships one batch per destination
/// after group-committing the iteration's WAL appends.
class ThreadNode : public NodeCore {
 public:
  ThreadNode(NodeId id, const ThreadClusterConfig& config,
             ThreadNetwork* network, Workload* workload,
             SafetyMonitor* monitor, uint64_t seed);
  ~ThreadNode() override;

  /// Crash (fail-stop), callable from any thread: the network cuts the
  /// node at once; the hosting worker then drops its volatile state.
  /// Co-hosted nodes are untouched.
  void Crash();

  /// Restart, callable from any thread: the network readmits the node and
  /// the hosting worker runs the core's WAL recovery pass. Returns false,
  /// doing nothing, when the node is up.
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

  /// First thing the worker loop does: adopts the worker's clock base (all
  /// co-hosted nodes share one time axis for the shared timer heap) and
  /// starts the clients.
  void OnLoopStart(std::chrono::steady_clock::time_point epoch);

  /// Drains pending crash/recover requests (once per loop iteration).
  void ProcessControl();

  /// Coalescing flush point (end of every loop iteration): first makes
  /// this iteration's WAL appends durable as one group, then ships each
  /// dirty per-destination send buffer as one frame — same-worker buffers
  /// hop onto the worker's local queue, cross-worker ones go out as one
  /// SendBatch.
  void FlushOutput();

  /// True when a message to `dst` may take the same-worker local queue:
  /// faults unarmed and neither endpoint crashed, so the fast path cannot
  /// change loss/link/delay or fail-stop semantics.
  bool LocalFastPathOpen(NodeId dst) const;

  const ThreadClusterConfig& config_;
  ThreadNetwork* network_;
  ThreadWorker* host_ = nullptr;

  // Coalescing state (coalesce_transport only). One open send buffer per
  // destination plus the list of destinations touched this iteration;
  // buffers are drained by SendBatch (or the worker's local queue) keeping
  // their capacity, so steady state allocates nothing.
  std::vector<std::vector<Message>> send_buffers_;
  std::vector<NodeId> dirty_dsts_;

  std::atomic<bool> crash_requested_{false};
  std::atomic<bool> recover_requested_{false};

  std::chrono::steady_clock::time_point epoch_start_;
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

  /// Merges per-node stats into a ClusterStats for a window of
  /// `duration_seconds`. Per-node counters are thread-confined, so call
  /// only after Stop().
  ClusterStats CollectStats(double duration_seconds) const;

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
  /// Wall-clock microseconds since the cluster's telemetry epoch.
  Micros TelemetryNowUs() const;

  ThreadClusterConfig config_;
  std::unique_ptr<ThreadNetwork> network_;
  std::unique_ptr<Workload> workload_;
  SafetyMonitor monitor_;  // guarded by monitor_mu_ inside nodes
  std::vector<std::unique_ptr<ThreadNode>> nodes_;
  // Declared after nodes_: workers are destroyed (joined) first, so no
  // worker thread can touch a node mid-destruction.
  std::vector<std::unique_ptr<ThreadWorker>> workers_;
  bool started_ = false;

  // Telemetry (config_.telemetry.enabled): one registry shard per worker,
  // sampled on wall time by a dedicated thread. The sampler thread only
  // touches the registry's atomics and ThreadNetwork's atomic counters —
  // never thread-confined node state.
  MetricsRegistry metrics_registry_;
  CoreMetrics core_metrics_;
  std::unique_ptr<TelemetrySampler> sampler_;
  std::thread sampler_thread_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;  // guarded by sampler_mu_
  std::chrono::steady_clock::time_point telemetry_epoch_;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_THREAD_NODE_H_
