#ifndef ECDB_CLUSTER_WORKER_H_
#define ECDB_CLUSTER_WORKER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "cluster/node_core.h"
#include "common/types.h"
#include "net/message.h"
#include "obs/metrics_registry.h"

namespace ecdb {

class ThreadNode;
class ThreadNetwork;

/// Wall-clock timer queue shared by every node a worker hosts: the
/// simulator scheduler's generation-slot 4-ary heap (src/sim/scheduler.h),
/// specialized for POD NodeTimer payloads. Schedule is a heap push with no
/// node allocation, Cancel is amortized O(1) (stale entries are skipped at
/// pop time, or dropped in bulk once they outnumber live ones), and
/// PeekDeadline lets the event loop sleep exactly until the next due timer
/// across all hosted nodes.
class WorkerTimerHeap {
 public:
  using Id = uint64_t;  // (slot << 32) | generation; 0 = unset

  Id Schedule(Micros when, const NodeTimer& timer) {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.timer = timer;
    const Id id = (static_cast<Id>(slot) << 32) | s.gen;
    heap_.push_back(Entry{when, next_seq_++, id});
    SiftUp(heap_.size() - 1);
    ++live_;
    return id;
  }

  /// Returns false if the timer already fired or was cancelled.
  bool Cancel(Id id) {
    const uint32_t slot = static_cast<uint32_t>(id >> 32);
    if (slot >= slots_.size() ||
        slots_[slot].gen != static_cast<uint32_t>(id)) {
      return false;
    }
    Retire(slot);
    --live_;
    // Cancelled entries stay queued until they reach the top. Nearly every
    // timer is cancelled long before its deadline (protocol timeouts, the
    // execution watchdog), so drop them in bulk once they are the
    // majority: the heap then holds only live timers and stays shallow.
    if (heap_.size() > 64 && heap_.size() > 2 * live_) Compact();
    return true;
  }

  /// Earliest live deadline, if any timer is pending.
  bool PeekDeadline(Micros* when) {
    const Entry* head = PeekLive();
    if (head == nullptr) return false;
    *when = head->when;
    return true;
  }

  /// Pops the earliest live timer if its deadline is <= now.
  bool PopDue(Micros now, NodeTimer* out) {
    const Entry* head = PeekLive();
    if (head == nullptr || head->when > now) return false;
    const uint32_t slot = static_cast<uint32_t>(head->id >> 32);
    *out = slots_[slot].timer;
    Retire(slot);
    --live_;
    PopHeap();
    return true;
  }

  size_t pending() const { return live_; }

 private:
  struct Entry {
    Micros when;
    uint64_t seq;
    Id id;
  };
  struct Slot {
    uint32_t gen = 1;  // never 0: Id 0 stays an "unset" sentinel
    NodeTimer timer;
  };

  static bool Earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;  // FIFO among same-deadline timers
  }

  const Entry* PeekLive() {
    while (!heap_.empty()) {
      const Entry& head = heap_[0];
      const uint32_t slot = static_cast<uint32_t>(head.id >> 32);
      if (slots_[slot].gen == static_cast<uint32_t>(head.id)) return &head;
      PopHeap();  // stale: cancelled (or slot since recycled)
    }
    return nullptr;
  }

  /// Drops cancelled entries and re-heapifies. (when, seq) is a total
  /// order, so the pop sequence is unchanged.
  void Compact() {
    size_t kept = 0;
    for (const Entry& e : heap_) {
      const uint32_t slot = static_cast<uint32_t>(e.id >> 32);
      if (slots_[slot].gen == static_cast<uint32_t>(e.id)) heap_[kept++] = e;
    }
    heap_.resize(kept);
    for (size_t i = kept / 4 + 1; i-- > 0;) {
      if (i < kept) SiftDown(i);
    }
  }

  void PopHeap() {
    const size_t last = heap_.size() - 1;
    if (last > 0) {
      heap_[0] = heap_[last];
      heap_.pop_back();
      SiftDown(0);
    } else {
      heap_.pop_back();
    }
  }

  void Retire(uint32_t slot) {
    Slot& s = slots_[slot];
    if (++s.gen == 0) s.gen = 1;
    free_.push_back(slot);
  }

  void SiftUp(size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    const Entry e = heap_[i];
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t limit = first + 4 < n ? first + 4 : n;
      for (size_t c = first + 1; c < limit; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
};

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
/// the shared timer heap, the per-worker mailbox drain, and the same-worker
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

  /// Spawns the worker thread.
  void Start();

  /// Asks the loop to exit without joining — lets the cluster signal every
  /// worker before blocking on the first join.
  void SignalStop();

  /// Signals and joins.
  void Stop();

  uint32_t index() const { return index_; }
  bool Hosts(NodeId node) const { return node % stride_ == index_; }

  // --- Called only from this worker's thread, by hosted nodes ---
  Micros NowUs() const;
  WorkerTimerHeap::Id ScheduleTimer(Micros deadline, const NodeTimer& timer) {
    return timers_.Schedule(deadline, timer);
  }
  bool CancelTimer(WorkerTimerHeap::Id id) { return timers_.Cancel(id); }

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
  void FireDueTimers();
  void FlushAll();
  void DrainLocal();

  const uint32_t index_;
  const uint32_t stride_;
  ThreadNetwork* network_;
  std::vector<ThreadNode*> nodes_;
  WorkerTimerHeap timers_;
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
