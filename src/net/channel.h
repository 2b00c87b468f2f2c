#ifndef ECDB_NET_CHANNEL_H_
#define ECDB_NET_CHANNEL_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace ecdb {

/// Thread-safe blocking message queue: the mailbox of one node in the
/// threaded runtime. Multiple producers, single consumer.
///
/// Built as a two-queue swap mailbox: producers append to a flat vector
/// under a short critical section; the consumer swaps the whole vector out
/// with `PopAll` and drains it lock-free. A producer signals the condition
/// variable only on the empty -> non-empty transition, so a burst of n
/// messages costs n short lock holds but at most one wake — under load the
/// consumer is already draining and producers never touch the futex.
class MessageChannel {
 public:
  MessageChannel() = default;
  MessageChannel(const MessageChannel&) = delete;
  MessageChannel& operator=(const MessageChannel&) = delete;

  /// Enqueues a message; wakes a blocked consumer if the mailbox was empty.
  /// No-op after Close().
  void Push(Message msg);

  /// Enqueues a whole batch under one lock hold with at most one wake —
  /// the coalescing layer's channel hop: a frame of n messages costs one
  /// mutex acquisition instead of n. `msgs` is drained (cleared, capacity
  /// kept) so callers recycle their send buffer. No-op after Close().
  void PushBatch(std::vector<Message>* msgs);

  /// Swaps the entire mailbox contents into `*out` (cleared first; its
  /// capacity is recycled as the next produce buffer), blocking up to
  /// `timeout` for the first message. Returns false on timeout or when the
  /// channel is closed and drained. This is the consumer hot path: one
  /// lock + one swap per burst, regardless of burst size.
  bool PopAll(std::vector<Message>* out, std::chrono::microseconds timeout);

  /// Closes the channel; blocked consumers wake up once it drains.
  void Close();

  size_t Size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Message> queue_;
  bool closed_ = false;
};

/// Message router for the threaded in-process runtime: one mailbox per
/// *worker* (the shard-per-core pool), `SendBatch` routes by destination id
/// modulo the mailbox count — the hosting worker demuxes per node. With
/// `num_mailboxes` omitted (or equal to num_nodes) this degenerates to the
/// historical one-mailbox-per-node shape. Crash state stays per *node*:
/// crashing a node stops delivery to and from it, giving the same
/// fail-stop semantics as the simulator, without muting co-hosted nodes
/// that share its mailbox.
class ThreadNetwork {
 public:
  explicit ThreadNetwork(size_t num_nodes, size_t num_mailboxes = 0);
  virtual ~ThreadNetwork();

  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// Sends `msg` as a frame of one through SendBatch.
  void Send(Message msg);

  /// Routes a frame: every message in `msgs` travels src -> dst as one
  /// PushBatch (one lock, at most one wake) instead of one Push per
  /// message. Messages involving crashed nodes are dropped (fail-stop) and
  /// counted in `messages_from_crashed` / `messages_to_crashed`, mirroring
  /// the simulator's NetworkStats; the checks are evaluated once per frame
  /// and counted per message. When the fault path is armed the frame
  /// decays to per-message FaultSend so loss/link/delay semantics stay per
  /// message. `msgs` is drained (capacity kept) so the caller recycles its
  /// buffer. Virtual so the socket runtime can route remote destinations
  /// onto the wire while local traffic keeps the in-process mailbox.
  virtual void SendBatch(NodeId src, NodeId dst, std::vector<Message>* msgs);

  /// The receiving mailbox of `node` (shared with every node whose id is
  /// congruent modulo the mailbox count).
  MessageChannel& channel(NodeId node) { return MailboxFor(node); }

  /// The mailbox a worker drains (index into the worker pool).
  MessageChannel& worker_channel(size_t worker) { return *channels_[worker]; }

  size_t num_mailboxes() const { return channels_.size(); }

  /// True once any fault setter armed the loss/link/delay path. The
  /// same-worker fast path checks this: with faults armed every message
  /// must travel through the network so drops are sampled uniformly.
  bool FaultsArmed() const {
    return faults_armed_.load(std::memory_order_acquire);
  }

  void CrashNode(NodeId node);
  void RecoverNode(NodeId node);
  bool IsCrashed(NodeId node) const;

  // --- Fault injection (the SimNetwork subset chaos campaigns use) ---
  //
  // All setters are thread-safe and may race with Send. The first setter
  // call arms the fault path *and* the NetworkStats counters; until then
  // SendBatch keeps its two-load fast path and the sent, delivered,
  // dropped and bytes counters read zero.
  // Loss sampling hashes a per-network seed with a send counter, so a
  // fixed seed gives a reproducible drop *rate* (not a reproducible drop
  // *set* — thread interleaving orders the counter).

  /// Cuts or restores the bidirectional link between `a` and `b`.
  void SetLinkDown(NodeId a, NodeId b, bool down);

  /// Probability that any message is dropped (chaos loss bursts).
  void SetDropProbability(double p);

  /// Adds a fixed extra delay to every message on the (a -> b) direction.
  /// Delayed messages are delivered by a background pump thread; 0 clears.
  void SetExtraDelay(NodeId a, NodeId b, Micros extra_us);

  /// Seed for loss sampling (call before arming faults).
  void SetFaultSeed(uint64_t seed);

  /// Snapshot of the SimNetwork-style counters. Counting starts when the
  /// fault path is first armed; crashed-node drops and the coalescing
  /// counters (frames_sent / messages_coalesced) are always counted.
  NetworkStats stats() const;

  /// Closes every mailbox; node threads drain and exit.
  void Shutdown();

  size_t num_nodes() const { return crashed_.size(); }

 private:
  MessageChannel& MailboxFor(NodeId node) {
    return *channels_[node % channels_.size()];
  }

  static uint64_t UndirectedKey(NodeId a, NodeId b) {
    NodeId lo = a < b ? a : b;
    NodeId hi = a < b ? b : a;
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }
  static uint64_t DirectedKey(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  void Arm() { faults_armed_.store(true, std::memory_order_release); }
  void FaultSend(Message msg);  // slow path, taken only once armed
  void Deliver(Message msg);    // final hop: crashed-dst check + Push
  void DelayPump();
  void EnsurePumpLocked();  // requires delay_mu_

  std::vector<std::unique_ptr<MessageChannel>> channels_;
  std::vector<std::atomic<bool>> crashed_;
  std::atomic<uint64_t> from_crashed_{0};
  std::atomic<uint64_t> to_crashed_{0};
  // Every worker bumps these on every frame: they get a cache line of
  // their own, apart from the fields every send reads (channels_, crashed_,
  // faults_armed_).
  alignas(64) std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> coalesced_{0};

  // Fault state (guarded by fault_mu_; armed flag checked lock-free).
  alignas(64) std::atomic<bool> faults_armed_{false};
  mutable std::mutex fault_mu_;
  double drop_probability_ = 0.0;
  std::unordered_set<uint64_t> links_down_;          // undirected
  std::unordered_map<uint64_t, Micros> extra_delay_;  // directed
  std::atomic<uint64_t> fault_seed_{0x6563646273656564ULL};  // "ecdbseed"
  std::atomic<uint64_t> fault_counter_{0};

  // Delayed-delivery pump (lazily spawned on first SetExtraDelay). The
  // queue is keyed in steady-clock microseconds; the pump delivers due
  // messages while holding delay_mu_, so the lock order is delay_mu_ ->
  // mailbox mutex and no path may take delay_mu_ under a mailbox mutex.
  std::thread delay_thread_;
  std::mutex delay_mu_;
  std::condition_variable delay_cv_;
  Scheduler delayed_;
  bool delay_stop_ = false;

  // SimNetwork-style counters (armed fault path only).
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> bytes_{0};
  std::array<std::atomic<uint64_t>, MsgTypeCounts::kNumTypes> per_type_{};
};

}  // namespace ecdb

#endif  // ECDB_NET_CHANNEL_H_
