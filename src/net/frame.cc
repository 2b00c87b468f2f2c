#include "net/frame.h"

#include <cstring>

namespace ecdb {
namespace {

// [magic u16][src u32][dst u32][count u32] (messages...) [fnv1a u32]
constexpr uint16_t kFrameMagic = 0xECF5;
constexpr size_t kFrameHeaderBytes = 2 + 4 + 4 + 4;
constexpr size_t kFrameChecksumBytes = 4;

// flags byte inside a message encoding
constexpr uint8_t kFlagForwarded = 1u << 0;
constexpr uint8_t kFlagHasDecision = 1u << 1;
constexpr uint8_t kFlagTxnHasWrites = 1u << 2;
constexpr uint8_t kFlagQuorumNack = 1u << 3;

// The quorum vocabulary (E3PC + Paxos Commit) is a contiguous tail of the
// MsgType enum; only those messages carry the quorum_epoch /
// quorum_attempt / quorum_instance extension.
bool IsQuorumMsg(MsgType type) {
  return type >= MsgType::kQuorumElect && type <= MsgType::kPaxosAccepted;
}

template <typename T>
void Put(std::vector<uint8_t>* out, T v) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &v, sizeof(T));
}

template <typename T>
bool Get(const uint8_t* data, size_t size, size_t* at, T* v) {
  if (size - *at < sizeof(T)) return false;
  std::memcpy(v, data + *at, sizeof(T));
  *at += sizeof(T);
  return true;
}

uint32_t Fnv1a(const uint8_t* data, size_t size) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

// The frame header carries src/dst once for every message inside — that
// shared header (plus the single checksum) is the wire-level saving the
// coalescing layer buys, so per-message encodings omit both.
void EncodeMessage(const Message& m, std::vector<uint8_t>* out) {
  Put<uint8_t>(out, static_cast<uint8_t>(m.type));
  uint8_t flags = 0;
  if (m.forwarded) flags |= kFlagForwarded;
  if (m.has_decision) flags |= kFlagHasDecision;
  if (m.txn_has_writes) flags |= kFlagTxnHasWrites;
  if (m.quorum_nack) flags |= kFlagQuorumNack;
  Put<uint8_t>(out, flags);
  Put<uint8_t>(out, static_cast<uint8_t>(m.term_state));
  Put<uint8_t>(out, static_cast<uint8_t>(m.decision));
  Put<uint64_t>(out, m.txn);
  Put<uint64_t>(out, m.trace_seq);
  if (IsQuorumMsg(m.type)) {
    Put<uint64_t>(out, m.quorum_epoch);
    Put<uint64_t>(out, m.quorum_attempt);
    Put<NodeId>(out, m.quorum_instance);
  }
  Put<uint32_t>(out, static_cast<uint32_t>(m.participants.size()));
  for (NodeId n : m.participants) Put<NodeId>(out, n);
  Put<uint32_t>(out, static_cast<uint32_t>(m.ops.size()));
  for (const Operation& op : m.ops) {
    Put<TableId>(out, op.table);
    Put<Key>(out, op.key);
    Put<uint8_t>(out, static_cast<uint8_t>(op.mode));
  }
}

bool DecodeMessage(const uint8_t* data, size_t size, size_t* at, NodeId src,
                   NodeId dst, Message* m) {
  uint8_t type, flags, term_state, decision;
  if (!Get(data, size, at, &type) || !Get(data, size, at, &flags) ||
      !Get(data, size, at, &term_state) || !Get(data, size, at, &decision)) {
    return false;
  }
  if (type >= static_cast<uint8_t>(MsgType::kMsgTypeCount)) return false;
  m->type = static_cast<MsgType>(type);
  m->src = src;
  m->dst = dst;
  m->forwarded = (flags & kFlagForwarded) != 0;
  m->has_decision = (flags & kFlagHasDecision) != 0;
  m->txn_has_writes = (flags & kFlagTxnHasWrites) != 0;
  m->quorum_nack = (flags & kFlagQuorumNack) != 0;
  m->term_state = static_cast<CohortState>(term_state);
  m->decision = static_cast<Decision>(decision);
  if (!Get(data, size, at, &m->txn) || !Get(data, size, at, &m->trace_seq)) {
    return false;
  }
  if (IsQuorumMsg(m->type) &&
      (!Get(data, size, at, &m->quorum_epoch) ||
       !Get(data, size, at, &m->quorum_attempt) ||
       !Get(data, size, at, &m->quorum_instance))) {
    return false;
  }
  uint32_t nparticipants;
  if (!Get(data, size, at, &nparticipants)) return false;
  if ((size - *at) / sizeof(NodeId) < nparticipants) return false;
  m->participants.clear();
  for (uint32_t i = 0; i < nparticipants; ++i) {
    NodeId n = 0;
    Get(data, size, at, &n);
    m->participants.push_back(n);
  }
  uint32_t nops;
  if (!Get(data, size, at, &nops)) return false;
  constexpr size_t kOpBytes = sizeof(TableId) + sizeof(Key) + 1;
  if ((size - *at) / kOpBytes < nops) return false;
  m->ops.clear();
  for (uint32_t i = 0; i < nops; ++i) {
    Operation op;
    uint8_t mode = 0;
    Get(data, size, at, &op.table);
    Get(data, size, at, &op.key);
    Get(data, size, at, &mode);
    op.mode = static_cast<AccessMode>(mode);
    m->ops.push_back(op);
  }
  return true;
}

}  // namespace

void EncodeFrame(const MessageFrame& frame, std::vector<uint8_t>* out) {
  const size_t start = out->size();
  Put<uint16_t>(out, kFrameMagic);
  Put<NodeId>(out, frame.src);
  Put<NodeId>(out, frame.dst);
  Put<uint32_t>(out, static_cast<uint32_t>(frame.messages.size()));
  for (const Message& m : frame.messages) EncodeMessage(m, out);
  Put<uint32_t>(out, Fnv1a(out->data() + start, out->size() - start));
}

bool DecodeFrame(const uint8_t* data, size_t size, MessageFrame* out) {
  if (size < kFrameHeaderBytes + kFrameChecksumBytes) return false;
  size_t at = 0;
  uint16_t magic;
  Get(data, size, &at, &magic);
  if (magic != kFrameMagic) return false;
  uint32_t expected;
  std::memcpy(&expected, data + size - kFrameChecksumBytes,
              kFrameChecksumBytes);
  if (Fnv1a(data, size - kFrameChecksumBytes) != expected) return false;
  const size_t body_end = size - kFrameChecksumBytes;

  NodeId src, dst;
  uint32_t count;
  Get(data, body_end, &at, &src);
  Get(data, body_end, &at, &dst);
  Get(data, body_end, &at, &count);
  constexpr size_t kMinMsgBytes = 4 + 8 * 2 + 4 + 4;
  if ((body_end - at) / kMinMsgBytes < count) return false;
  MessageFrame frame;
  frame.src = src;
  frame.dst = dst;
  frame.messages.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!DecodeMessage(data, body_end, &at, src, dst, &frame.messages[i])) {
      return false;
    }
  }
  if (at != body_end) return false;  // trailing garbage
  *out = std::move(frame);
  return true;
}

void EncodeFrameToStream(const MessageFrame& frame, std::vector<uint8_t>* out) {
  const size_t prefix_at = out->size();
  Put<uint32_t>(out, 0);  // patched below once the frame length is known
  const size_t frame_at = out->size();
  EncodeFrame(frame, out);
  const uint32_t len = static_cast<uint32_t>(out->size() - frame_at);
  std::memcpy(out->data() + prefix_at, &len, sizeof(len));
}

void FrameStreamDecoder::Feed(const uint8_t* data, size_t size) {
  if (corrupt_ || size == 0) return;
  // Compact before growing: once the parser consumed a prefix of the
  // buffer, slide the live tail down instead of letting the vector creep.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

bool FrameStreamDecoder::Next(MessageFrame* out) {
  if (corrupt_) return false;
  const size_t avail = buf_.size() - pos_;
  uint32_t len = 0;
  if (avail < sizeof(len)) return false;
  std::memcpy(&len, buf_.data() + pos_, sizeof(len));
  if (len < kFrameHeaderBytes + kFrameChecksumBytes ||
      len > kMaxFrameWireBytes) {
    corrupt_ = true;
    return false;
  }
  if (avail - sizeof(len) < len) return false;
  if (!DecodeFrame(buf_.data() + pos_ + sizeof(len), len, out)) {
    corrupt_ = true;
    return false;
  }
  pos_ += sizeof(len) + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return true;
}

}  // namespace ecdb
