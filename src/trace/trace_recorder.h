#ifndef ECDB_TRACE_TRACE_RECORDER_H_
#define ECDB_TRACE_TRACE_RECORDER_H_

#include <cstdint>
#include <vector>

#include "trace/trace_event.h"

namespace ecdb {

/// Per-node ring buffer of protocol trace events.
///
/// Designed for the hot path of both runtimes: recording is one branch on
/// the runtime enable flag plus a store into a preallocated power-of-two
/// ring — no allocation, no locking (each recorder is owned by one node
/// and, in the threaded runtime, touched only from that node's thread).
/// When the ring wraps, the oldest events are overwritten and counted in
/// dropped(); exports therefore always see the most recent window.
///
/// Tracing is off unless Enable() is called.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit TraceRecorder(NodeId node = 0) : node_(node) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_node(NodeId node) { node_ = node; }
  NodeId node() const { return node_; }

  /// Allocates the ring (capacity rounded up to a power of two) and turns
  /// recording on. Safe to call again to resize/restart.
  void Enable(size_t capacity = kDefaultCapacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    ring_.assign(cap, TraceEvent{});
    mask_ = cap - 1;
    total_ = 0;
    seq_ = 0;
    enabled_ = true;
  }

  void Disable() { enabled_ = false; }

  bool enabled() const { return enabled_; }

  /// Records one event. Allocation-free: one branch + one ring store.
  void Record(TraceEventType type, Micros at, TxnId txn, uint64_t arg = 0,
              NodeId peer = kInvalidNode, uint8_t a = 0, uint8_t b = 0) {
    if (!enabled_) return;
    TraceEvent& ev = ring_[total_ & mask_];
    ev.at = at;
    ev.txn = txn;
    ev.arg = arg;
    ev.node = node_;
    ev.peer = peer;
    ev.type = type;
    ev.a = a;
    ev.b = b;
    total_++;
  }

  /// Next per-sender message sequence number (stamped into
  /// Message::trace_seq so receive events can name the exact send).
  uint64_t NextSeq() { return ++seq_; }

  /// Events recorded and still in the ring, oldest first.
  std::vector<TraceEvent> Events() const {
    std::vector<TraceEvent> out;
    if (ring_.empty()) return out;
    const uint64_t cap = ring_.size();
    const uint64_t n = total_ < cap ? total_ : cap;
    out.reserve(n);
    const uint64_t start = total_ - n;
    for (uint64_t i = 0; i < n; ++i) {
      out.push_back(ring_[(start + i) & mask_]);
    }
    return out;
  }

  /// Events overwritten because the ring wrapped.
  uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// Total events ever recorded (including dropped).
  uint64_t total() const { return total_; }

 private:
  NodeId node_;
  bool enabled_ = false;
  uint64_t total_ = 0;
  uint64_t seq_ = 0;
  uint64_t mask_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace ecdb

#endif  // ECDB_TRACE_TRACE_RECORDER_H_
