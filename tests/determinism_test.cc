// Determinism regression test for the simulator hot path.
//
// The scheduler contract — events fire in exact (time, insertion-order)
// order — is what makes every seeded experiment in this repo replayable.
// The allocation-free scheduler, the shared-payload message changes and
// the network fast path all preserve that contract bit-for-bit; this test
// pins it with a golden trace: a fixed-seed EasyCommit scenario whose
// complete delivery sequence was recorded when the trace was established.
// Any change that reorders events, consumes RNG draws differently, or
// alters message counts/sizes fails loudly here instead of silently
// shifting every simulation result.
//
// If a deliberate semantic change invalidates the trace (e.g. a protocol
// fix that changes the message pattern), regenerate the constants by
// printing the quantities asserted below from a scratch run of the same
// scenario — and say so in the commit message, because every seeded
// result in docs/ shifts with it.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commit/testbed.h"
#include "trace/trace_export.h"

namespace ecdb {
namespace {

using testbed::ProtocolTestbed;

// One observed message delivery: simulated time plus routing fields.
struct Delivery {
  Micros at = 0;
  MsgType type = MsgType::kPrepare;
  NodeId src = 0;
  NodeId dst = 0;

  bool operator==(const Delivery&) const = default;
};

struct TraceResult {
  std::vector<Delivery> deliveries;
  uint64_t hash = 0;
  NetworkStats stats;
  Micros final_now = 0;
};

// Three back-to-back EasyCommit rounds on a 5-node cluster with jittered
// latency, seed fixed. Returns the full delivery trace, an FNV-1a hash
// over (time, type, src, dst, txn) per delivery, and the network totals.
// With `coalesce`, the same scenario runs over the coalescing transport:
// loss/jitter are drawn once per frame, in frame-creation order (see the
// coalesced golden below for why that makes this scenario's trace coincide
// with the uncoalesced one).
TraceResult RunGoldenScenario(bool coalesce = false,
                              CommitProtocol protocol =
                                  CommitProtocol::kEasyCommit) {
  NetworkConfig net;
  net.base_latency_us = 400;
  net.jitter_us = 100;
  CommitEngineConfig commit;
  ProtocolTestbed bed(protocol, 5, net, commit, 20180326);
  if (coalesce) bed.network().EnableCoalescing(true);

  TraceResult r;
  r.hash = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&r](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      r.hash ^= (v >> (8 * i)) & 0xff;
      r.hash *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  bed.network().SetDeliveryInterceptor([&](const Message& m) {
    const Micros at = bed.scheduler().Now();
    r.deliveries.push_back(Delivery{at, m.type, m.src, m.dst});
    mix(at);
    mix(static_cast<uint64_t>(m.type));
    mix(m.src);
    mix(m.dst);
    mix(m.txn);
    return true;
  });

  for (int round = 0; round < 3; ++round) {
    bed.StartAll();
    bed.Settle();
  }
  r.stats = bed.network().stats();
  r.final_now = bed.scheduler().Now();
  return r;
}

TEST(DeterminismTest, GoldenTracePrefixMatches) {
  const TraceResult r = RunGoldenScenario();

  // First round of the golden trace: the coordinator's Prepare fan-out,
  // the votes, and the start of the Global-Commit flood (direct sends and
  // the EC participant-to-participant forwards are indistinguishable on
  // the wire, so the trace sees 60 GlobalCommits for 3 rounds).
  const std::vector<Delivery> kGoldenPrefix = {
      {443u, MsgType::kPrepare, 0, 3},      {450u, MsgType::kPrepare, 0, 1},
      {470u, MsgType::kPrepare, 0, 4},      {482u, MsgType::kPrepare, 0, 2},
      {857u, MsgType::kVoteCommit, 1, 0},   {898u, MsgType::kVoteCommit, 4, 0},
      {904u, MsgType::kVoteCommit, 3, 0},   {921u, MsgType::kVoteCommit, 2, 0},
      {1333u, MsgType::kGlobalCommit, 0, 4}, {1361u, MsgType::kGlobalCommit, 0, 3},
      {1363u, MsgType::kGlobalCommit, 0, 2}, {1411u, MsgType::kGlobalCommit, 0, 1},
  };

  ASSERT_GE(r.deliveries.size(), kGoldenPrefix.size());
  for (size_t i = 0; i < kGoldenPrefix.size(); ++i) {
    EXPECT_EQ(r.deliveries[i], kGoldenPrefix[i]) << "delivery #" << i;
  }
}

TEST(DeterminismTest, GoldenTraceHashAndTotals) {
  const TraceResult r = RunGoldenScenario();

  EXPECT_EQ(r.deliveries.size(), 84u);
  EXPECT_EQ(r.hash, 3149154581355681350ULL);

  EXPECT_EQ(r.stats.messages_sent, 84u);
  EXPECT_EQ(r.stats.messages_delivered, 84u);
  EXPECT_EQ(r.stats.bytes_sent, 3696u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kPrepare), 12u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kVoteCommit), 12u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kGlobalCommit), 60u);

  EXPECT_EQ(r.final_now, 5769u);
}

// The golden scenario over the coalescing transport. In this scenario the
// coalesced trace coincides *exactly* with the uncoalesced golden: every
// scheduler step delivers one message, whose handler emits messages toward
// distinct destinations — so each frame carries a single message, and the
// per-frame jitter draws happen in the same RNG order as the per-message
// draws did. Pinning that equality is the strongest possible statement:
// the coalescing layer adds no observable perturbation until a step
// genuinely multi-sends to one destination. Message-level conservation
// must also hold exactly.
TEST(DeterminismTest, CoalescedGoldenTraceAndTotals) {
  const TraceResult r = RunGoldenScenario(/*coalesce=*/true);

  EXPECT_EQ(r.deliveries.size(), 84u);
  EXPECT_EQ(r.stats.messages_sent, 84u);
  EXPECT_EQ(r.stats.messages_delivered, 84u);
  EXPECT_EQ(r.stats.bytes_sent, 3696u);
  EXPECT_EQ(r.stats.messages_sent - r.stats.messages_coalesced,
            r.stats.frames_sent);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kGlobalCommit), 60u);

  EXPECT_EQ(r.stats.frames_sent, 84u);  // one-message frames throughout
  EXPECT_EQ(r.stats.messages_coalesced, 0u);
  EXPECT_EQ(r.hash, 3149154581355681350ULL);  // == the uncoalesced golden
  EXPECT_EQ(r.final_now, 5769u);
}

// Same seed, fresh testbed, coalescing on: bit-stable replay — the whole
// point of drawing per-frame randomness in deterministic creation order.
TEST(DeterminismTest, CoalescedRunsReplayIdentically) {
  const TraceResult a = RunGoldenScenario(/*coalesce=*/true);
  const TraceResult b = RunGoldenScenario(/*coalesce=*/true);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.stats.frames_sent, b.stats.frames_sent);
  EXPECT_EQ(a.stats.messages_coalesced, b.stats.messages_coalesced);
}

// --------------------------------------------------------------------------
// Quorum-variant goldens (PR 9). The failure-free scenarios pin the new
// message types' wire behavior: E3PC must coincide with the 3PC pattern
// (epochs only surface during termination — no quorum messages at all),
// and Paxos Commit's acceptor round (votes broadcast to every acceptor,
// accepts reported to the ballot-0 leader) is pinned by count and hash.
// The EC golden above staying at 84/3696 proves the Message-struct
// additions (quorum_epoch/attempt/instance) did not perturb the existing
// protocols' traces.
// --------------------------------------------------------------------------

TEST(DeterminismTest, E3pcGoldenTraceHashAndTotals) {
  const TraceResult r = RunGoldenScenario(
      /*coalesce=*/false, CommitProtocol::kThreePhaseE3PC);

  EXPECT_EQ(r.deliveries.size(), 72u);
  EXPECT_EQ(r.hash, 18411026045321679974ULL);
  EXPECT_EQ(r.stats.bytes_sent, 3168u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kPreCommit), 12u);
  // Failure-free E3PC never elects: no quorum-termination traffic.
  EXPECT_EQ(r.stats.per_type.at(MsgType::kQuorumElect), 0u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kQuorumPropose), 0u);
  EXPECT_EQ(r.final_now, 8514u);
}

TEST(DeterminismTest, PaxosGoldenTraceHashAndTotals) {
  const TraceResult r = RunGoldenScenario(
      /*coalesce=*/false, CommitProtocol::kPaxosCommit);

  EXPECT_EQ(r.deliveries.size(), 144u);
  EXPECT_EQ(r.hash, 10911024810468365493ULL);
  EXPECT_EQ(r.stats.bytes_sent, 5136u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kPaxosVote), 60u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kPaxosAccepted), 60u);
  // Ballot 0 concludes every instance: no promotion traffic.
  EXPECT_EQ(r.stats.per_type.at(MsgType::kPaxosPrepare), 0u);
  EXPECT_EQ(r.stats.per_type.at(MsgType::kPaxosPropose), 0u);
  EXPECT_EQ(r.final_now, 5576u);
}

TEST(DeterminismTest, QuorumRunsReplayIdentically) {
  for (CommitProtocol protocol : {CommitProtocol::kThreePhaseE3PC,
                                  CommitProtocol::kPaxosCommit}) {
    const TraceResult a = RunGoldenScenario(
        /*coalesce=*/false, protocol);
    const TraceResult b = RunGoldenScenario(
        /*coalesce=*/false, protocol);
    EXPECT_EQ(a.deliveries, b.deliveries) << ToString(protocol);
    EXPECT_EQ(a.hash, b.hash) << ToString(protocol);
    EXPECT_EQ(a.final_now, b.final_now) << ToString(protocol);
  }
}

// Same seed, fresh testbed: the complete event sequence must be
// identical, not just the aggregate hash.
TEST(DeterminismTest, RepeatedRunsReplayIdentically) {
  const TraceResult a = RunGoldenScenario();
  const TraceResult b = RunGoldenScenario();

  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.bytes_sent, b.stats.bytes_sent);
}

#if ECDB_TRACE_ENABLED

// The golden scenario with tracing enabled, exported to JSONL.
std::string RunGoldenScenarioTraced() {
  NetworkConfig net;
  net.base_latency_us = 400;
  net.jitter_us = 100;
  CommitEngineConfig commit;
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 5, net, commit, 20180326);
  bed.EnableTracing();
  for (int round = 0; round < 3; ++round) {
    bed.StartAll();
    bed.Settle();
  }
  TraceMeta meta;
  meta.runtime = "testbed";
  meta.protocol = ToString(CommitProtocol::kEasyCommit);
  meta.num_nodes = 5;
  std::ostringstream out;
  WriteJsonl(meta, CollectEvents(bed.recorders()), out);
  return out.str();
}

// The exported trace, not just the simulation, must be deterministic:
// fresh testbeds with the same seed produce byte-identical JSONL. This
// pins both the scheduler/RNG replay and the exporter's stable merge plus
// fixed key order.
TEST(DeterminismTest, ExportedJsonlIsByteIdentical) {
  const std::string a = RunGoldenScenarioTraced();
  const std::string b = RunGoldenScenarioTraced();
  EXPECT_FALSE(a.empty());
  EXPECT_GT(a.size(), 1000u);  // a real trace, not just the meta line
  EXPECT_EQ(a, b);
}

// Enabling tracing must not perturb the simulation itself: same golden
// hash and totals as the untraced run.
TEST(DeterminismTest, TracingDoesNotPerturbGoldenTrace) {
  NetworkConfig net;
  net.base_latency_us = 400;
  net.jitter_us = 100;
  CommitEngineConfig commit;
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 5, net, commit, 20180326);
  bed.EnableTracing();
  for (int round = 0; round < 3; ++round) {
    bed.StartAll();
    bed.Settle();
  }
  EXPECT_EQ(bed.network().stats().messages_delivered, 84u);
  EXPECT_EQ(bed.network().stats().bytes_sent, 3696u);
  EXPECT_EQ(bed.scheduler().Now(), 5769u);
}

#endif  // ECDB_TRACE_ENABLED

}  // namespace
}  // namespace ecdb
