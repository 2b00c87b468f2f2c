#ifndef ECDB_NET_NETWORK_H_
#define ECDB_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/frame.h"
#include "net/message.h"
#include "sim/scheduler.h"

namespace ecdb {

/// Point-to-point latency and loss model for the simulated network.
struct NetworkConfig {
  /// Mean one-way latency between two distinct nodes, in microseconds.
  /// Default approximates an intra-datacenter LAN hop.
  Micros base_latency_us = 400;

  /// Uniform jitter added to each delivery: U[0, jitter_us].
  Micros jitter_us = 100;

  /// Probability that any given message is silently dropped. The paper's
  /// Section 4 discusses commit protocols under message loss; this knob
  /// exercises that analysis.
  double drop_probability = 0.0;
};

/// Dense per-message-type counters. Replaces an unordered_map<MsgType,
/// uint64_t> on the Send hot path with a flat array indexed by the enum;
/// keeps the map-flavored accessors (`at`, `count`, `operator[]`) the
/// ablations and tests already use. `at` of a never-sent type reads 0
/// instead of throwing; `count` reports whether the type was ever counted.
class MsgTypeCounts {
 public:
  static constexpr size_t kNumTypes =
      static_cast<size_t>(MsgType::kMsgTypeCount);
  static_assert(kNumTypes == static_cast<size_t>(MsgType::kPaxosAccepted) + 1,
                "MsgType enumerators must stay contiguous with the "
                "kMsgTypeCount sentinel last");

  uint64_t& operator[](MsgType t) { return counts_[Index(t)]; }
  uint64_t at(MsgType t) const { return counts_[Index(t)]; }
  size_t count(MsgType t) const { return counts_[Index(t)] != 0 ? 1 : 0; }

 private:
  static size_t Index(MsgType t) { return static_cast<size_t>(t); }

  std::array<uint64_t, kNumTypes> counts_{};
};

/// Counters describing network activity; used by the message-complexity
/// ablation (EC is O(n^2), 2PC/3PC are O(n)).
///
/// A message from a crashed source never entered the network, so it counts
/// *only* in `messages_from_crashed` — not in `messages_sent`, `bytes_sent`
/// or `per_type`. (Messages the loss model or a cut link eats *were* sent;
/// they count in both `messages_sent` and `messages_dropped`.)
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;       // by the loss model
  uint64_t messages_to_crashed = 0;    // destination was down
  uint64_t messages_from_crashed = 0;  // source was down at send time
  uint64_t bytes_sent = 0;

  /// Frames put on the wire and the sends they saved (messages that rode
  /// in a frame behind an earlier one). Every message travels in a frame,
  /// so with coalescing off each one is a frame of one and
  /// `messages_coalesced` stays zero; `messages_sent - messages_coalesced
  /// == frames_sent` over any window where every open frame has been
  /// flushed.
  uint64_t frames_sent = 0;
  uint64_t messages_coalesced = 0;

  MsgTypeCounts per_type;
};

/// Simulated message-passing network. Delivery is asynchronous: `Send`
/// puts the message in a frame, and a flushed frame is delivered by an
/// event on the shared `Scheduler` after a sampled latency. Fault injection covers the failure models discussed in the
/// paper: node crashes (fail-stop), recovery, message loss, link cuts and
/// targeted per-link delays (the Section 4 message-delay scenario).
class SimNetwork {
 public:
  using Handler = std::function<void(const Message&)>;

  SimNetwork(Scheduler* scheduler, NetworkConfig config, uint64_t seed);
  ~SimNetwork() {
    // Uninstall the flush hook so a scheduler outliving this network can't
    // call into freed memory.
    if (coalesce_) scheduler_->SetPostStepHook(nullptr, nullptr);
  }

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Registers the delivery callback for `node`. Must be called before any
  /// message addressed to `node` is delivered.
  void RegisterNode(NodeId node, Handler handler);

  /// Sends `msg` from `msg.src` to `msg.dst`. The message is dropped if the
  /// source is currently crashed, the destination is crashed *at delivery
  /// time*, the link is cut, or the loss model fires.
  void Send(Message msg);

  // --- Fault injection ---

  /// Fail-stop crash: the node stops sending and receiving. In-flight
  /// messages to it are dropped at delivery time.
  void CrashNode(NodeId node);

  /// Brings a crashed node back. (Protocol-level recovery is the recovery
  /// manager's job; the network only resumes delivery.)
  void RecoverNode(NodeId node);

  bool IsCrashed(NodeId node) const {
    return node < crashed_.size() && crashed_[node] != 0;
  }

  /// Cuts or restores the bidirectional link between `a` and `b`.
  void SetLinkDown(NodeId a, NodeId b, bool down);

  /// Adds a fixed extra delay to every message on the (a -> b) direction.
  void SetExtraDelay(NodeId a, NodeId b, Micros extra_us);

  /// Installs a hook invoked just before each delivery; returning false
  /// suppresses the delivery. Tests use this to crash nodes at exact
  /// protocol points or to reorder/drop specific messages.
  using DeliveryInterceptor = std::function<bool(const Message&)>;
  void SetDeliveryInterceptor(DeliveryInterceptor interceptor);

  /// Installs a hook invoked at Send() time, before the message enters the
  /// network; returning false suppresses the send. Crashing a node from
  /// inside this hook models fail-stop mid-broadcast: the current and all
  /// later sends of the loop never leave the node (the paper's "coordinator
  /// fails after transmitting to X but before Y and Z").
  using SendFilter = std::function<bool(const Message&)>;
  void SetSendFilter(SendFilter filter);

  /// Changes the Bernoulli loss rate mid-run (chaos loss bursts). Only
  /// affects messages sent after the call; in-flight deliveries stand.
  void SetDropProbability(double p) { config_.drop_probability = p; }

  /// Transport-level coalescing decides only when a frame closes. Off, a
  /// frame closes at its first message and is flushed inside Send(). On,
  /// Send() appends to a per-(src,dst) open frame and the scheduler's
  /// post-step hook flushes every open frame at the end of the step that
  /// produced it. Flushing draws one loss coin and one jitter sample per
  /// *frame* (a dropped frame loses every message inside it) and collapses
  /// frames with the same arrival time into a single delivery event —
  /// EasyCommit's O(n^2) transmit phase becomes O(n) frames and, on a
  /// jitter-free network, O(1) scheduler events per step. Per-message
  /// semantics are preserved at the edges: send filter, crashed-source,
  /// link cuts and byte accounting still apply at Send() time;
  /// crashed-dest and the delivery interceptor at delivery time. Turning
  /// it off flushes any open frames first.
  void EnableCoalescing(bool on);
  bool coalescing() const { return coalesce_; }

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats(); }

  const NetworkConfig& config() const { return config_; }

 private:
  /// An open frame accumulating this step's messages toward one
  /// destination. Pooled: slots (and their message vectors' capacity) are
  /// recycled across steps. `latency`/`consumed` are FlushCoalesced
  /// scratch.
  struct OpenFrame {
    Micros latency = 0;
    bool consumed = false;
    MessageFrame frame;
  };

  /// Open-frame slot for one (src,dst) link. Epoch-stamped so a flush
  /// invalidates every entry in O(1); an entry is live only when its epoch
  /// matches `flush_epoch_`. A batched delivery event runs every
  /// recipient's handler in one scheduler step, so a single step can open
  /// O(n^2) frames (the EC transmit phase) — lookup must be O(1), not a
  /// scan over open frames.
  struct LinkSlot {
    uint64_t epoch = 0;
    uint32_t idx = 0;
  };

  /// Frames sharing one arrival time, delivered by one scheduler event.
  /// Pooled and referenced from the event by index, so scheduling a
  /// delivery allocates nothing in steady state.
  struct FlightBatch {
    std::vector<MessageFrame> frames;
    size_t used = 0;
  };

  /// One frame's latency on the `src` -> `dst` link: base, jitter and
  /// any injected extra delay.
  Micros SampleLatency(NodeId src, NodeId dst);
  bool LinkDown(NodeId a, NodeId b) const;
  void AppendToFrame(Message msg);
  void FlushCoalesced();
  void DeliverBatch(uint32_t batch_idx);
  uint32_t AcquireFlightBatch();

  static void FlushHookThunk(void* self) {
    static_cast<SimNetwork*>(self)->FlushCoalesced();
  }

  static uint64_t LinkKey(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  Scheduler* scheduler_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Handler> handlers_;    // indexed by NodeId
  std::vector<uint8_t> crashed_;     // indexed by NodeId; 1 = down
  // All per-link state is keyed by packed (src,dst) and sized by *active*
  // links — links that actually carried traffic or were explicitly faulted
  // — never by num_nodes^2. (The previous stride^2 slot table cost 268 MB
  // at n=4096 before a single message moved.)
  FlatMap<uint64_t, uint8_t> links_down_;    // undirected, min/max key
  FlatMap<uint64_t, Micros> extra_delay_;    // directed
  DeliveryInterceptor interceptor_;
  SendFilter send_filter_;
  NetworkStats stats_;

  bool coalesce_ = false;
  std::vector<OpenFrame> open_frames_;  // [0, num_open_) are this step's
  size_t num_open_ = 0;
  FlatMap<uint64_t, LinkSlot> slot_by_link_;  // links with traffic, ever
  uint64_t flush_epoch_ = 1;
  std::vector<FlightBatch> flight_;
  std::vector<uint32_t> free_flight_;
};

}  // namespace ecdb

#endif  // ECDB_NET_NETWORK_H_
