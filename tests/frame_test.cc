// Frame codec hardening tests: the length-prefixed stream layer must
// reassemble frames fed at ANY byte boundary — TCP preserves bytes, not
// frames — and must latch corrupt (never crash, never resync wrongly) on
// torn or malformed input.

#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace ecdb {
namespace {

Message MakeMessage(uint32_t i) {
  Message m;
  m.type = static_cast<MsgType>(i % static_cast<uint32_t>(MsgType::kMsgTypeCount));
  m.src = i % 7;
  m.dst = (i + 1) % 7;
  m.txn = MakeTxnId(m.src, 1000 + i);
  m.forwarded = (i % 3) == 0;
  m.has_decision = (i % 2) == 0;
  m.decision = (i % 4) < 2 ? Decision::kCommit : Decision::kAbort;
  m.trace_seq = 77u * i;
  if (m.type >= MsgType::kQuorumElect && m.type <= MsgType::kPaxosAccepted) {
    m.quorum_epoch = 91u * i;  // only quorum messages ship the epoch
  }
  if (i % 5 == 0) {
    for (uint32_t k = 0; k < i % 6; ++k) m.participants.push_back(k);
  }
  return m;
}

MessageFrame MakeFrame(NodeId src, NodeId dst, uint32_t count,
                       uint32_t salt) {
  MessageFrame f;
  f.src = src;
  f.dst = dst;
  for (uint32_t i = 0; i < count; ++i) {
    f.messages.push_back(MakeMessage(salt + i));
  }
  return f;
}

void ExpectFrameEq(const MessageFrame& want, const MessageFrame& got) {
  EXPECT_EQ(want.src, got.src);
  EXPECT_EQ(want.dst, got.dst);
  ASSERT_EQ(want.messages.size(), got.messages.size());
  for (size_t i = 0; i < want.messages.size(); ++i) {
    EXPECT_EQ(want.messages[i].type, got.messages[i].type);
    EXPECT_EQ(want.messages[i].txn, got.messages[i].txn);
    EXPECT_EQ(want.messages[i].trace_seq, got.messages[i].trace_seq);
    EXPECT_EQ(want.messages[i].quorum_epoch, got.messages[i].quorum_epoch);
    EXPECT_EQ(want.messages[i].participants, got.messages[i].participants);
  }
}

/// Encodes `frames` as one contiguous stream.
std::vector<uint8_t> EncodeStream(const std::vector<MessageFrame>& frames) {
  std::vector<uint8_t> stream;
  for (const MessageFrame& f : frames) EncodeFrameToStream(f, &stream);
  return stream;
}

/// Feeds `stream` to a decoder in chunks split at `cuts` (sorted offsets)
/// and asserts the decoded frames match `want` exactly.
void RoundTripWithCuts(const std::vector<uint8_t>& stream,
                       const std::vector<size_t>& cuts,
                       const std::vector<MessageFrame>& want) {
  FrameStreamDecoder dec;
  std::vector<MessageFrame> got;
  size_t at = 0;
  MessageFrame frame;
  auto drain = [&] {
    while (dec.Next(&frame)) got.push_back(frame);
  };
  for (size_t cut : cuts) {
    ASSERT_LE(cut, stream.size());
    dec.Feed(stream.data() + at, cut - at);
    drain();
    at = cut;
  }
  dec.Feed(stream.data() + at, stream.size() - at);
  drain();
  ASSERT_FALSE(dec.corrupt());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) ExpectFrameEq(want[i], got[i]);
}

TEST(FrameStreamTest, SingleFrameEveryByteBoundary) {
  // A 3-message frame fed as [0,k) + [k,end) for every k: the decoder must
  // produce the identical frame regardless of where the read() happened to
  // split — including mid-length-prefix and mid-checksum.
  const MessageFrame f = MakeFrame(2, 5, 3, /*salt=*/11);
  const std::vector<uint8_t> stream = EncodeStream({f});
  for (size_t k = 0; k <= stream.size(); ++k) {
    RoundTripWithCuts(stream, {k}, {f});
  }
}

TEST(FrameStreamTest, MultiFrameRandomSplitFuzz) {
  // Fuzz: 200 rounds of a 6-frame stream (mixed sizes, including empty
  // payload vectors inside messages) cut at 1..12 random points.
  std::vector<MessageFrame> frames;
  for (uint32_t i = 0; i < 6; ++i) {
    frames.push_back(MakeFrame(i % 4, (i + 1) % 4, 1 + i * 2, 100 * i));
  }
  const std::vector<uint8_t> stream = EncodeStream(frames);
  Rng rng(0xF5A17);
  for (int round = 0; round < 200; ++round) {
    std::vector<size_t> cuts;
    const size_t num_cuts = 1 + rng.Next() % 12;
    for (size_t c = 0; c < num_cuts; ++c) {
      cuts.push_back(rng.Next() % (stream.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    RoundTripWithCuts(stream, cuts, frames);
  }
}

TEST(FrameStreamTest, ByteAtATime) {
  // The degenerate chunking: one byte per Feed. Also proves Next() returns
  // false (not garbage) at every intermediate state.
  std::vector<MessageFrame> frames = {MakeFrame(0, 1, 2, 7),
                                      MakeFrame(1, 0, 1, 31)};
  const std::vector<uint8_t> stream = EncodeStream(frames);
  FrameStreamDecoder dec;
  std::vector<MessageFrame> got;
  MessageFrame frame;
  for (uint8_t byte : stream) {
    dec.Feed(&byte, 1);
    while (dec.Next(&frame)) got.push_back(frame);
  }
  ASSERT_EQ(got.size(), 2u);
  ExpectFrameEq(frames[0], got[0]);
  ExpectFrameEq(frames[1], got[1]);
}

TEST(FrameStreamTest, TornFrameNeverDecodes) {
  // Every strict prefix of a frame yields no decode and no corruption —
  // a torn frame is indistinguishable from one still in flight.
  const MessageFrame f = MakeFrame(1, 2, 4, 3);
  const std::vector<uint8_t> stream = EncodeStream({f});
  for (size_t len = 0; len < stream.size(); ++len) {
    FrameStreamDecoder dec;
    dec.Feed(stream.data(), len);
    MessageFrame out;
    EXPECT_FALSE(dec.Next(&out)) << "decoded from a " << len << "-byte prefix";
    EXPECT_FALSE(dec.corrupt());
    EXPECT_EQ(dec.buffered_bytes(), len);
  }
}

TEST(FrameStreamTest, CorruptPayloadLatches) {
  // Flip one payload byte: checksum mismatch must latch corrupt, and the
  // decoder must stay dead (no resync) even when fed a clean frame after.
  const MessageFrame f = MakeFrame(0, 3, 2, 9);
  std::vector<uint8_t> stream = EncodeStream({f});
  stream[stream.size() / 2] ^= 0x40;
  const std::vector<uint8_t> clean = EncodeStream({f});

  FrameStreamDecoder dec;
  dec.Feed(stream.data(), stream.size());
  MessageFrame out;
  EXPECT_FALSE(dec.Next(&out));
  EXPECT_TRUE(dec.corrupt());
  dec.Feed(clean.data(), clean.size());
  EXPECT_FALSE(dec.Next(&out));
  EXPECT_TRUE(dec.corrupt());

  // Reset models the connection owner re-establishing the stream: the
  // decoder is pristine again and the clean frame decodes.
  dec.Reset();
  EXPECT_FALSE(dec.corrupt());
  dec.Feed(clean.data(), clean.size());
  ASSERT_TRUE(dec.Next(&out));
  ExpectFrameEq(f, out);
}

TEST(FrameStreamTest, OversizedPrefixLatchesWithoutAllocating) {
  // A torn/hostile length prefix claiming a multi-gigabyte frame must be
  // rejected immediately (before any reserve), not waited out.
  uint32_t huge = static_cast<uint32_t>(kMaxFrameWireBytes) + 1;
  uint8_t prefix[4];
  std::memcpy(prefix, &huge, 4);
  FrameStreamDecoder dec;
  dec.Feed(prefix, 4);
  MessageFrame out;
  EXPECT_FALSE(dec.Next(&out));
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameStreamTest, UndersizedPrefixLatches) {
  // A prefix smaller than the smallest legal frame (header + checksum) is
  // structurally impossible; the stream is broken.
  uint32_t tiny = 3;
  uint8_t prefix[4];
  std::memcpy(prefix, &tiny, 4);
  FrameStreamDecoder dec;
  dec.Feed(prefix, 4);
  MessageFrame out;
  EXPECT_FALSE(dec.Next(&out));
  EXPECT_TRUE(dec.corrupt());
}

TEST(FrameStreamTest, EmptyFrameRoundTrips) {
  // Zero-message frames are legal (the codec's header carries src/dst).
  MessageFrame f;
  f.src = 4;
  f.dst = 6;
  const std::vector<uint8_t> stream = EncodeStream({f});
  for (size_t k = 0; k <= stream.size(); ++k) {
    RoundTripWithCuts(stream, {k}, {f});
  }
}

TEST(FrameStreamTest, StreamPrefixMatchesFlatEncoding) {
  // The stream layer is exactly [u32 length][EncodeFrame bytes]: the
  // prefix's value must equal the flat encoding's size, so either codec
  // path (in-memory frames vs the socket stream) sees identical bytes.
  const MessageFrame f = MakeFrame(3, 1, 5, 21);
  std::vector<uint8_t> flat;
  EncodeFrame(f, &flat);
  std::vector<uint8_t> stream;
  EncodeFrameToStream(f, &stream);
  ASSERT_EQ(stream.size(), flat.size() + 4);
  uint32_t prefix = 0;
  std::memcpy(&prefix, stream.data(), 4);
  EXPECT_EQ(prefix, flat.size());
  EXPECT_EQ(0, std::memcmp(stream.data() + 4, flat.data(), flat.size()));
}

}  // namespace
}  // namespace ecdb
