#ifndef ECDB_CLUSTER_WORKER_H_
#define ECDB_CLUSTER_WORKER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "obs/metrics_registry.h"
#include "sim/scheduler.h"

namespace ecdb {

class ThreadNode;
class ThreadNetwork;

/// Per-worker event-loop counters: the four message/turn counts come from
/// the worker's registry shard. Read them only after ThreadCluster::Stop().
struct WorkerStats {
  uint32_t nodes_hosted = 0;
  uint64_t iterations = 0;        ///< event-loop turns
  uint64_t mailbox_batches = 0;   ///< PopAll calls that returned messages
  uint64_t mailbox_messages = 0;  ///< messages drained from the worker mailbox
  uint64_t local_messages = 0;    ///< same-worker sends that skipped the channel
  uint64_t timers_fired = 0;      ///< live timers dispatched to hosted nodes
  uint64_t max_batch = 0;         ///< largest single mailbox drain
  uint64_t busy_us = 0;           ///< wall time spent outside the mailbox wait
  uint64_t wall_us = 0;           ///< total loop wall time

  /// Fraction of the loop's wall time spent processing rather than blocked
  /// on the mailbox — the per-worker load signal tools print.
  double Occupancy() const {
    return wall_us == 0 ? 0.0
                        : static_cast<double>(busy_us) /
                              static_cast<double>(wall_us);
  }
};

/// One worker of the shard-per-core threaded runtime: an OS thread running
/// a single event loop that hosts every ThreadNode with
/// `node_id % stride == index` (stride = worker-pool size). The worker owns
/// the shared timer queue, the per-worker mailbox drain, and the same-worker
/// local delivery queue; hosted nodes stay thread-confined because exactly
/// one worker ever touches them. Thread-per-node is the degenerate case
/// stride == num_nodes: one node per worker, and the per-worker mailbox is
/// that node's old per-node mailbox.
class ThreadWorker {
 public:
  /// `metrics` records into this worker's own shard.
  ThreadWorker(uint32_t index, uint32_t stride, ThreadNetwork* network,
               const MetricsHandle& metrics);
  ~ThreadWorker();

  ThreadWorker(const ThreadWorker&) = delete;
  ThreadWorker& operator=(const ThreadWorker&) = delete;

  /// Registers a hosted node. Nodes must be added in ascending id order
  /// (the cluster's construction order) before Start().
  void AddNode(ThreadNode* node);

  /// Spawns the worker thread. NowUs() counts from `epoch`: the workers of
  /// one cluster share it, so their clocks agree.
  void Start(std::chrono::steady_clock::time_point epoch);

  /// Asks the loop to exit without joining — lets the cluster signal every
  /// worker before blocking on the first join.
  void SignalStop();

  /// Signals and joins.
  void Stop();

  uint32_t index() const { return index_; }
  bool Hosts(NodeId node) const { return node % stride_ == index_; }

  /// Microseconds since the epoch passed to Start(). Reads only that
  /// epoch, so any thread may call it once Start() has returned.
  Micros NowUs() const;

  // --- Called only from this worker's thread, by hosted nodes ---

  /// The timer queue shared by every hosted node, keyed in NowUs() time.
  Scheduler& timers() { return timers_; }

  /// Same-worker fast path: a frame lands in the worker's local queue and
  /// is handled this iteration, skipping the channel lock + wake. `msgs`
  /// is drained (capacity kept) like ThreadNetwork::SendBatch.
  void EnqueueLocalBatch(std::vector<Message>* msgs);

  /// Read only after Stop().
  WorkerStats stats() const;

 private:
  void Loop();
  ThreadNode* NodeFor(NodeId id) const { return nodes_[id / stride_]; }
  void DispatchBatch(std::vector<Message>& batch);
  void FlushAll();
  void DrainLocal();

  const uint32_t index_;
  const uint32_t stride_;
  ThreadNetwork* network_;
  std::vector<ThreadNode*> nodes_;
  Scheduler timers_;
  std::vector<Message> local_queue_;       // same-worker deliveries
  std::vector<Message> local_processing_;  // double buffer for the drain
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_start_;
  WorkerStats stats_;  // the fields the registry does not hold
  const MetricsHandle metrics_;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_WORKER_H_
