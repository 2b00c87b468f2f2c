#ifndef ECDB_NET_FRAME_H_
#define ECDB_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.h"

namespace ecdb {

/// A transport frame: every protocol message one node emitted toward one
/// destination within a single scheduler step (simulator) or mailbox drain
/// (threaded runtime), packed into one network-level unit. The coalescing
/// layer delivers (and drops) frames atomically — a lost frame loses every
/// message inside it, exactly like a lost TCP segment carrying a batch.
struct MessageFrame {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::vector<Message> messages;

  void Clear() {
    src = kInvalidNode;
    dst = kInvalidNode;
    messages.clear();
  }
};

/// Serializes `frame` into `out` (appended; callers reuse the buffer). The
/// in-memory transports hand Message structs around directly — this codec
/// exists so the wire format is pinned by tests and available to a real
/// socket transport.
void EncodeFrame(const MessageFrame& frame, std::vector<uint8_t>* out);

/// Parses one frame from `data`. Returns false (leaving `out` untouched
/// beyond scratch) on a short buffer, bad magic, checksum mismatch, or
/// trailing garbage.
bool DecodeFrame(const uint8_t* data, size_t size, MessageFrame* out);

inline bool DecodeFrame(const std::vector<uint8_t>& data, MessageFrame* out) {
  return DecodeFrame(data.data(), data.size(), out);
}

/// Frames larger than this are rejected by the stream layer before any
/// allocation happens — a torn length prefix (or a peer speaking another
/// protocol) must not make the decoder reserve gigabytes.
constexpr size_t kMaxFrameWireBytes = 16u << 20;

/// Appends `[u32 length][frame]` to `out`: the length-prefixed stream
/// encoding used on byte-stream transports (TCP), where frame boundaries
/// are not preserved by the medium. The prefix counts the frame bytes only
/// (magic through checksum), not itself.
void EncodeFrameToStream(const MessageFrame& frame, std::vector<uint8_t>* out);

/// Incremental decoder for a length-prefixed frame stream. Feed it bytes in
/// whatever chunks the transport produces — any split point is fine,
/// including mid-prefix and mid-checksum — and call Next() until it returns
/// false to drain every complete frame. One decoder instance per peer
/// connection; it owns the partial-frame reassembly buffer and reuses it
/// across frames (no per-message allocation once capacities warm up).
///
/// A malformed frame (oversized prefix, bad magic, checksum mismatch,
/// trailing garbage) is unrecoverable: byte-stream framing is lost, so the
/// decoder latches `corrupt()` and ignores further input. The connection
/// owner is expected to drop and re-establish the connection.
class FrameStreamDecoder {
 public:
  FrameStreamDecoder() = default;
  FrameStreamDecoder(const FrameStreamDecoder&) = delete;
  FrameStreamDecoder& operator=(const FrameStreamDecoder&) = delete;

  /// Buffers `size` bytes from the stream. Cheap append; parsing happens in
  /// Next(). No-op once corrupt.
  void Feed(const uint8_t* data, size_t size);

  /// Decodes the next complete frame into `*out` (overwritten). Returns
  /// false when the buffered bytes hold no complete frame — or when the
  /// stream latched corrupt. Call in a loop after each Feed.
  bool Next(MessageFrame* out);

  /// True once the stream broke framing; the connection must be reset.
  bool corrupt() const { return corrupt_; }

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buf_.size() - pos_; }

  /// Resets to a pristine stream position (new connection, same peer).
  void Reset() {
    buf_.clear();
    pos_ = 0;
    corrupt_ = false;
  }

 private:
  std::vector<uint8_t> buf_;  // unconsumed stream bytes start at pos_
  size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace ecdb

#endif  // ECDB_NET_FRAME_H_
