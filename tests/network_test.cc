// Unit tests for the simulated network, its fault injection, the frame
// codec and the transport-coalescing layer.

#include "net/network.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "sim/scheduler.h"

namespace ecdb {
namespace {

Message Make(NodeId src, NodeId dst, MsgType type = MsgType::kPrepare) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.txn = MakeTxnId(src, 1);
  return m;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(&sched_, Config(), 42) {
    for (NodeId id = 0; id < 4; ++id) {
      net_.RegisterNode(id, [this, id](const Message& msg) {
        received_.emplace_back(id, msg);
      });
    }
  }

  static NetworkConfig Config() {
    NetworkConfig cfg;
    cfg.base_latency_us = 100;
    cfg.jitter_us = 50;
    return cfg;
  }

  Scheduler sched_;
  SimNetwork net_;
  std::vector<std::pair<NodeId, Message>> received_;
};

TEST_F(NetworkTest, DeliversToDestination) {
  net_.Send(Make(0, 1));
  sched_.RunAll();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, 1u);
  EXPECT_EQ(received_[0].second.src, 0u);
}

TEST_F(NetworkTest, DeliveryRespectsLatencyBounds) {
  net_.Send(Make(0, 1));
  sched_.RunAll();
  EXPECT_GE(sched_.Now(), 100u);
  EXPECT_LE(sched_.Now(), 150u);
}

TEST_F(NetworkTest, CrashedDestinationDropsInFlightMessage) {
  net_.Send(Make(0, 1));
  net_.CrashNode(1);  // crash while in flight
  sched_.RunAll();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.stats().messages_to_crashed, 1u);
}

TEST_F(NetworkTest, CrashedSourceCannotSend) {
  net_.CrashNode(0);
  net_.Send(Make(0, 1));
  sched_.RunAll();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.stats().messages_from_crashed, 1u);
}

TEST_F(NetworkTest, CrashedSourceSendsAreNotCountedAsTraffic) {
  // A message from a crashed node never reaches the wire: it must count
  // ONLY in messages_from_crashed — not in messages_sent, bytes_sent or
  // the per-type histogram. (An earlier implementation bumped the send
  // counters before the crash check, inflating protocol message counts
  // in crash experiments; this pins the fix.)
  net_.CrashNode(0);
  net_.Send(Make(0, 1, MsgType::kVoteCommit));
  sched_.RunAll();

  EXPECT_EQ(net_.stats().messages_from_crashed, 1u);
  EXPECT_EQ(net_.stats().messages_sent, 0u);
  EXPECT_EQ(net_.stats().bytes_sent, 0u);
  EXPECT_EQ(net_.stats().per_type.at(MsgType::kVoteCommit), 0u);
  EXPECT_EQ(net_.stats().messages_dropped, 0u);
}

TEST_F(NetworkTest, LiveTrafficStillCountedAlongsideCrashedSends) {
  net_.CrashNode(0);
  net_.Send(Make(0, 1, MsgType::kVoteCommit));  // suppressed
  net_.Send(Make(2, 1, MsgType::kVoteCommit));  // live
  sched_.RunAll();

  EXPECT_EQ(net_.stats().messages_from_crashed, 1u);
  EXPECT_EQ(net_.stats().messages_sent, 1u);
  EXPECT_GT(net_.stats().bytes_sent, 0u);
  EXPECT_EQ(net_.stats().per_type.at(MsgType::kVoteCommit), 1u);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second.src, 2u);
}

TEST_F(NetworkTest, RecoveredNodeReceivesAgain) {
  net_.CrashNode(1);
  net_.RecoverNode(1);
  net_.Send(Make(0, 1));
  sched_.RunAll();
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_FALSE(net_.IsCrashed(1));
}

TEST_F(NetworkTest, LinkDownDropsBothDirections) {
  net_.SetLinkDown(0, 1, true);
  net_.Send(Make(0, 1));
  net_.Send(Make(1, 0));
  net_.Send(Make(0, 2));  // unaffected
  sched_.RunAll();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, 2u);
}

TEST_F(NetworkTest, LinkRestoredDelivers) {
  net_.SetLinkDown(0, 1, true);
  net_.SetLinkDown(0, 1, false);
  net_.Send(Make(0, 1));
  sched_.RunAll();
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(NetworkTest, ExtraDelayIsDirectional) {
  net_.SetExtraDelay(0, 1, 10'000);
  net_.Send(Make(0, 1));
  sched_.RunAll();
  EXPECT_GE(sched_.Now(), 10'100u);

  received_.clear();
  const Micros before = sched_.Now();
  net_.Send(Make(1, 0));  // reverse direction unaffected
  sched_.RunAll();
  EXPECT_LE(sched_.Now() - before, 150u);
}

TEST_F(NetworkTest, InterceptorCanDropMessages) {
  net_.SetDeliveryInterceptor(
      [](const Message& msg) { return msg.dst != 2; });
  net_.Send(Make(0, 2));
  net_.Send(Make(0, 1));
  sched_.RunAll();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, 1u);
}

TEST_F(NetworkTest, SendFilterSuppressesAtSendTime) {
  net_.SetSendFilter([](const Message& msg) { return msg.dst != 3; });
  net_.Send(Make(0, 3));
  net_.Send(Make(0, 1));
  sched_.RunAll();
  ASSERT_EQ(received_.size(), 1u);
  // Suppressed sends are not even counted as sent.
  EXPECT_EQ(net_.stats().messages_sent, 1u);
}

TEST_F(NetworkTest, StatsCountPerType) {
  net_.Send(Make(0, 1, MsgType::kPrepare));
  net_.Send(Make(0, 2, MsgType::kPrepare));
  net_.Send(Make(1, 0, MsgType::kVoteCommit));
  sched_.RunAll();
  EXPECT_EQ(net_.stats().messages_sent, 3u);
  EXPECT_EQ(net_.stats().messages_delivered, 3u);
  EXPECT_EQ(net_.stats().per_type.at(MsgType::kPrepare), 2u);
  EXPECT_EQ(net_.stats().per_type.at(MsgType::kVoteCommit), 1u);
}

TEST_F(NetworkTest, ResetStatsClears) {
  net_.Send(Make(0, 1));
  sched_.RunAll();
  net_.ResetStats();
  EXPECT_EQ(net_.stats().messages_sent, 0u);
  EXPECT_EQ(net_.stats().messages_delivered, 0u);
}

TEST(NetworkLossTest, DropProbabilityLosesMessages) {
  Scheduler sched;
  NetworkConfig cfg;
  cfg.base_latency_us = 10;
  cfg.jitter_us = 0;
  cfg.drop_probability = 0.5;
  SimNetwork net(&sched, cfg, 1);
  int delivered = 0;
  net.RegisterNode(1, [&](const Message&) { delivered++; });
  for (int i = 0; i < 1000; ++i) {
    Message m;
    m.src = 0;
    m.dst = 1;
    net.Send(m);
  }
  sched.RunAll();
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
  EXPECT_EQ(net.stats().messages_dropped + delivered, 1000u);
}

TEST(NetworkMessageTest, ApproximateBytesGrowsWithPayload) {
  Message m;
  const size_t base = m.ApproximateBytes();
  m.participants = {1, 2, 3, 4};
  EXPECT_GT(m.ApproximateBytes(), base);
  const size_t with_parts = m.ApproximateBytes();
  m.ops = std::vector<Operation>(10);
  EXPECT_GT(m.ApproximateBytes(), with_parts);
}

// --------------------------------------------------------------------------
// Frame codec
// --------------------------------------------------------------------------

TEST(FrameCodecTest, RoundTripPreservesAllFields) {
  MessageFrame frame;
  frame.src = 3;
  frame.dst = 9;

  Message full;
  full.type = MsgType::kTermStateReply;
  full.src = 3;  // per-message src/dst ride in the frame header
  full.dst = 9;
  full.txn = MakeTxnId(3, 77);
  full.trace_seq = 42;
  full.forwarded = true;
  full.has_decision = true;
  full.txn_has_writes = true;
  full.term_state = CohortState::kPreCommit;
  full.decision = Decision::kAbort;
  full.participants = {0, 1, 2, 7};
  Operation op;
  op.table = 1;
  op.key = 0xdeadbeef;
  op.mode = AccessMode::kWrite;
  full.ops = {op, op};

  Message minimal;
  minimal.type = MsgType::kVoteCommit;
  minimal.src = 3;
  minimal.dst = 9;
  minimal.txn = MakeTxnId(3, 78);

  frame.messages = {full, minimal};

  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);

  MessageFrame decoded;
  ASSERT_TRUE(DecodeFrame(wire, &decoded));
  std::vector<uint8_t> rewire;
  EncodeFrame(decoded, &rewire);
  EXPECT_EQ(rewire, wire);
  EXPECT_EQ(decoded.src, 3u);
  EXPECT_EQ(decoded.dst, 9u);
  ASSERT_EQ(decoded.messages.size(), 2u);

  const Message& d = decoded.messages[0];
  EXPECT_EQ(d.type, MsgType::kTermStateReply);
  EXPECT_EQ(d.src, 3u);
  EXPECT_EQ(d.dst, 9u);
  EXPECT_EQ(d.txn, full.txn);
  EXPECT_EQ(d.trace_seq, full.trace_seq);
  EXPECT_TRUE(d.forwarded);
  EXPECT_TRUE(d.has_decision);
  EXPECT_TRUE(d.txn_has_writes);
  EXPECT_EQ(d.term_state, CohortState::kPreCommit);
  EXPECT_EQ(d.decision, Decision::kAbort);
  EXPECT_EQ(d.participants, full.participants);
  ASSERT_EQ(d.ops.size(), 2u);
  EXPECT_EQ(d.ops[1].key, op.key);
  EXPECT_EQ(d.ops[1].mode, AccessMode::kWrite);

  EXPECT_EQ(decoded.messages[1].type, MsgType::kVoteCommit);
  EXPECT_EQ(decoded.messages[1].txn, minimal.txn);
}

TEST(FrameCodecTest, QuorumMessagesRoundTripTheirExtension) {
  // The quorum vocabulary carries an extension (ballot/epoch, attempt,
  // instance, nack flag) that only those message types pay wire bytes for.
  MessageFrame frame;
  frame.src = 1;
  frame.dst = 4;

  Message promise;
  promise.type = MsgType::kPaxosPromise;
  promise.src = 1;
  promise.dst = 4;
  promise.txn = MakeTxnId(1, 5);
  promise.quorum_epoch = (7ull << 16) | 1u;
  promise.quorum_attempt = (3ull << 16) | 2u;
  promise.quorum_instance = 2;
  promise.quorum_nack = true;
  promise.participants = {2, 0x30001u, 0, 0};  // packed accepted list

  Message plain;
  plain.type = MsgType::kGlobalCommit;
  plain.src = 1;
  plain.dst = 4;
  plain.txn = MakeTxnId(1, 6);

  frame.messages = {promise, plain};
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  // The quorum extension costs exactly epoch + attempt + instance over a
  // same-payload non-quorum message, which ships none of them.
  Message as_plain = promise;
  as_plain.type = MsgType::kTermStateReply;
  MessageFrame baseline;
  baseline.src = 1;
  baseline.dst = 4;
  baseline.messages = {as_plain, plain};
  std::vector<uint8_t> baseline_wire;
  EncodeFrame(baseline, &baseline_wire);
  EXPECT_EQ(wire.size(), baseline_wire.size() + 8 + 8 + sizeof(NodeId));
  MessageFrame baseline_decoded;
  ASSERT_TRUE(DecodeFrame(baseline_wire, &baseline_decoded));
  EXPECT_EQ(baseline_decoded.messages[0].quorum_epoch, 0u);
  EXPECT_EQ(baseline_decoded.messages[0].quorum_attempt, 0u);

  MessageFrame decoded;
  ASSERT_TRUE(DecodeFrame(wire, &decoded));
  ASSERT_EQ(decoded.messages.size(), 2u);
  const Message& d = decoded.messages[0];
  EXPECT_EQ(d.type, MsgType::kPaxosPromise);
  EXPECT_EQ(d.quorum_epoch, promise.quorum_epoch);
  EXPECT_EQ(d.quorum_attempt, promise.quorum_attempt);
  EXPECT_EQ(d.quorum_instance, promise.quorum_instance);
  EXPECT_TRUE(d.quorum_nack);
  EXPECT_EQ(d.participants, promise.participants);
  EXPECT_EQ(decoded.messages[1].quorum_epoch, 0u);
  EXPECT_EQ(decoded.messages[1].quorum_attempt, 0u);
  EXPECT_FALSE(decoded.messages[1].quorum_nack);
}

TEST(FrameCodecTest, FrameOfMinimalMessagesRoundTrips) {
  // The decoder's message-count bound must admit a frame in which every
  // message has the smallest encoding: no quorum extension, empty lists.
  MessageFrame frame;
  frame.src = 1;
  frame.dst = 2;
  for (uint32_t i = 0; i < 64; ++i) {
    Message m;
    m.type = MsgType::kVoteCommit;
    m.src = 1;
    m.dst = 2;
    m.txn = MakeTxnId(1, i);
    frame.messages.push_back(m);
  }
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  MessageFrame decoded;
  ASSERT_TRUE(DecodeFrame(wire, &decoded));
  ASSERT_EQ(decoded.messages.size(), 64u);
  EXPECT_EQ(decoded.messages[63].txn, MakeTxnId(1, 63));
}

TEST(FrameCodecTest, EmptyFrameRoundTrips) {
  MessageFrame frame;
  frame.src = 1;
  frame.dst = 2;
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  MessageFrame decoded;
  ASSERT_TRUE(DecodeFrame(wire, &decoded));
  EXPECT_EQ(decoded.src, 1u);
  EXPECT_TRUE(decoded.messages.empty());
}

TEST(FrameCodecTest, RejectsCorruptionAndTruncation) {
  MessageFrame frame;
  frame.src = 0;
  frame.dst = 1;
  Message m;
  m.type = MsgType::kPrepare;
  m.src = 0;
  m.dst = 1;
  m.txn = MakeTxnId(0, 5);
  m.participants = {0, 1};
  frame.messages = {m};
  std::vector<uint8_t> wire;
  EncodeFrame(frame, &wire);
  MessageFrame out;

  // Any single flipped byte must fail the checksum (or the magic).
  for (size_t i : {size_t{0}, size_t{3}, wire.size() / 2, wire.size() - 1}) {
    std::vector<uint8_t> bad = wire;
    bad[i] ^= 0x40;
    EXPECT_FALSE(DecodeFrame(bad, &out)) << "flipped byte " << i;
  }
  // Torn writes: every strict prefix must be rejected.
  for (size_t len : {size_t{0}, size_t{5}, wire.size() - 1}) {
    EXPECT_FALSE(DecodeFrame(wire.data(), len, &out)) << "prefix " << len;
  }
  // Trailing garbage after a well-formed frame.
  std::vector<uint8_t> padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFrame(padded, &out));
}

// --------------------------------------------------------------------------
// Transport coalescing
// --------------------------------------------------------------------------

class CoalescingTest : public ::testing::Test {
 protected:
  CoalescingTest() : net_(&sched_, Config(), 42) {
    for (NodeId id = 0; id < 4; ++id) {
      net_.RegisterNode(id, [this, id](const Message& msg) {
        received_.emplace_back(id, msg);
      });
    }
    net_.EnableCoalescing(true);
  }

  static NetworkConfig Config() {
    NetworkConfig cfg;
    cfg.base_latency_us = 100;
    cfg.jitter_us = 0;  // deterministic arrival for exact assertions
    return cfg;
  }

  Scheduler sched_;
  SimNetwork net_;
  std::vector<std::pair<NodeId, Message>> received_;
};

TEST_F(CoalescingTest, MessagesToOneDestinationShareAFrame) {
  net_.Send(Make(0, 1, MsgType::kPrepare));
  net_.Send(Make(0, 1, MsgType::kVoteCommit));
  net_.Send(Make(0, 2, MsgType::kPrepare));
  sched_.RunAll();

  ASSERT_EQ(received_.size(), 3u);
  EXPECT_EQ(net_.stats().messages_sent, 3u);
  EXPECT_EQ(net_.stats().messages_delivered, 3u);
  EXPECT_EQ(net_.stats().frames_sent, 2u);  // dst 1 and dst 2
  EXPECT_EQ(net_.stats().messages_coalesced, 1u);
  EXPECT_EQ(net_.stats().messages_sent - net_.stats().messages_coalesced,
            net_.stats().frames_sent);
  // Per-link FIFO order within the frame.
  EXPECT_EQ(received_[0].second.type, MsgType::kPrepare);
  EXPECT_EQ(received_[1].second.type, MsgType::kVoteCommit);
}

TEST_F(CoalescingTest, EqualLatencyFramesCollapseToOneArrivalTime) {
  // A jitter-free broadcast step: every frame arrives at the same instant.
  net_.Send(Make(0, 1));
  net_.Send(Make(0, 2));
  net_.Send(Make(0, 3));
  sched_.RunAll();
  EXPECT_EQ(received_.size(), 3u);
  EXPECT_EQ(sched_.Now(), 100u);
  EXPECT_EQ(net_.stats().frames_sent, 3u);
}

TEST_F(CoalescingTest, DroppedFrameDropsEveryMessageInside) {
  net_.SetDropProbability(1.0);
  net_.Send(Make(0, 1, MsgType::kPrepare));
  net_.Send(Make(0, 1, MsgType::kVoteCommit));
  net_.Send(Make(0, 1, MsgType::kGlobalCommit));
  sched_.RunAll();

  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.stats().messages_sent, 3u);
  EXPECT_EQ(net_.stats().messages_dropped, 3u);  // one coin, three losses
  EXPECT_EQ(net_.stats().frames_sent, 1u);
}

TEST_F(CoalescingTest, CrashedDestinationDropsWholeInFlightFrame) {
  net_.Send(Make(0, 1));
  net_.Send(Make(0, 1));
  net_.CrashNode(1);  // crash while the frame is in flight
  sched_.RunAll();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.stats().messages_to_crashed, 2u);
}

TEST_F(CoalescingTest, DisablingCoalescingFlushesOpenFrames) {
  net_.Send(Make(0, 1));
  net_.EnableCoalescing(false);  // must not strand the buffered message
  sched_.RunAll();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(net_.stats().frames_sent, 1u);
}

TEST_F(CoalescingTest, InterceptorSeesEveryCoalescedMessage) {
  size_t intercepted = 0;
  net_.SetDeliveryInterceptor([&](const Message&) {
    intercepted++;
    return true;
  });
  net_.Send(Make(0, 1));
  net_.Send(Make(0, 1));
  net_.Send(Make(0, 2));
  sched_.RunAll();
  EXPECT_EQ(intercepted, 3u);
  EXPECT_EQ(received_.size(), 3u);
}

// Every message travels in a frame: with coalescing off each one is a
// frame of one, flushed inside Send. A handler's send therefore flushes
// (and takes a flight batch) in the middle of DeliverBatch; here 256 of
// them grow the flight pool while the batch being delivered is in use.
TEST(SimNetworkFrameOfOneTest, HandlerSendsMayGrowTheFlightPool) {
  Scheduler sched;
  NetworkConfig cfg;
  cfg.jitter_us = 0;  // equal latencies: replies arrive in send order
  SimNetwork net(&sched, cfg, 1);
  std::vector<TxnId> got;
  net.RegisterNode(0, [&](const Message& m) { got.push_back(m.txn); });
  net.RegisterNode(1, [&](const Message&) {
    for (uint64_t i = 1; i <= 256; ++i) {
      Message reply = Make(1, 0);
      reply.txn = MakeTxnId(1, i);
      net.Send(std::move(reply));
    }
  });
  net.Send(Make(0, 1));
  sched.RunAll();
  ASSERT_EQ(got.size(), 256u);
  for (uint64_t i = 1; i <= 256; ++i) EXPECT_EQ(got[i - 1], MakeTxnId(1, i));
  EXPECT_EQ(net.stats().messages_delivered, 257u);
  EXPECT_EQ(net.stats().frames_sent, 257u);
  EXPECT_EQ(net.stats().messages_coalesced, 0u);
}

// The uncoalesced simulator under every fault it models: 20% loss,
// jitter, a cut link, an interceptor drop and a crash in the middle of
// the run, with replies sent from inside deliveries. Each row of the log
// is time, link, type, txn and outcome. The pinned digest and counters
// were recorded with a per-message send path that drew its own loss coin
// and latency and scheduled its own delivery; the frame-of-one path must
// keep every draw and event in the same order.
TEST(SimNetworkFrameOfOneTest, UncoalescedDeliveryLogIsPinned) {
  Scheduler sched;
  NetworkConfig cfg;
  cfg.base_latency_us = 400;
  cfg.jitter_us = 100;
  cfg.drop_probability = 0.2;
  SimNetwork net(&sched, cfg, 2024);
  std::string log;
  size_t rows = 0;
  const auto row = [&](const Message& m, const char* outcome) {
    log += std::to_string(sched.Now()) + " " + std::to_string(m.src) + ">" +
           std::to_string(m.dst) + " " + ToString(m.type) + " " +
           std::to_string(m.txn) + " " + outcome + "\n";
    rows++;
  };
  for (NodeId id = 0; id < 3; ++id) {
    net.RegisterNode(id, [&, id](const Message& m) {
      row(m, "delivered");
      if (m.type != MsgType::kPrepare) return;
      Message reply = Make(id, m.src, MsgType::kVoteCommit);
      reply.txn = m.txn;
      net.Send(std::move(reply));
    });
  }
  net.SetLinkDown(0, 2, true);
  net.SetDeliveryInterceptor([&](const Message& m) {
    if (m.txn % 7 != 3) return true;
    row(m, "intercepted");
    return false;
  });
  uint64_t seq = 0;
  const auto wave = [&] {
    for (NodeId src = 0; src < 3; ++src) {
      for (NodeId dst = 0; dst < 3; ++dst) {
        for (int i = 0; src != dst && i < 10; ++i) {
          Message m = Make(src, dst);
          m.txn = MakeTxnId(src, ++seq);
          net.Send(std::move(m));
        }
      }
    }
  };
  wave();
  sched.ScheduleAt(450, [&] {
    net.CrashNode(1);  // replies in flight to node 1 are lost
    wave();
  });
  sched.ScheduleAt(1500, [&] {
    net.RecoverNode(1);
    wave();
  });
  sched.RunAll();

  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : log) {
    digest = (digest ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  const NetworkStats& st = net.stats();
  EXPECT_EQ(rows, 84u);  // 75 delivered, 9 intercepted
  EXPECT_EQ(digest, 3109414687654884515ULL);
  EXPECT_EQ(st.messages_sent, 206u);
  EXPECT_EQ(st.messages_delivered, 75u);
  EXPECT_EQ(st.messages_dropped, 101u);  // 60 cut, 9 intercepted, 32 lost
  EXPECT_EQ(st.messages_to_crashed, 30u);
  EXPECT_EQ(st.messages_from_crashed, 20u);
  EXPECT_EQ(sched.Now(), 2463u);
  // One frame per message that got past the cut link (20 prepares a wave).
  EXPECT_EQ(st.frames_sent, st.messages_sent - 60);
  EXPECT_EQ(st.messages_coalesced, 0u);
}

TEST(NetworkMessageTest, ToStringCoversAllTypes) {
  EXPECT_EQ(ToString(MsgType::kPrepare), "Prepare");
  EXPECT_EQ(ToString(MsgType::kGlobalCommit), "GlobalCommit");
  EXPECT_EQ(ToString(MsgType::kTermStateReply), "TermStateReply");
  EXPECT_EQ(ToString(MsgType::kRemoteRollback), "RemoteRollback");
  EXPECT_EQ(ToString(CohortState::kTransmitC), "TRANSMIT-C");
  EXPECT_EQ(ToString(CohortState::kPreCommit), "PRE-COMMIT");
}

}  // namespace
}  // namespace ecdb
