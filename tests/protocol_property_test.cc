// Exhaustive failure-injection sweeps over the commit protocols: for every
// crash point (each message delivery, each message send, and pairs of
// them), run a transaction to quiescence and check the paper's claims:
//
//  * Theorem 3.1 (safety): no two nodes ever apply conflicting decisions —
//    for 2PC, 3PC and EC under node failures.
//  * Theorem 3.2 (liveness / non-blocking): under EC (and 3PC) every
//    active node reaches a decision; 2PC has schedules that block.
//  * Ablation: with decision forwarding disabled ("EC-noforward"), safety
//    violations appear — quantifying the necessity of insight (ii).

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "commit/testbed.h"

namespace ecdb {
namespace testing {
namespace {

NetworkConfig SweepNet() {
  NetworkConfig net;
  net.base_latency_us = 100;
  net.jitter_us = 7;  // nonzero so message orders interleave
  return net;
}

struct CrashPoint {
  NodeId node = kInvalidNode;
  uint64_t at = 0;  // event index (delivery or send count)
};

enum class CrashOn { kDelivery, kSend };

struct SweepOutcome {
  uint64_t schedules = 0;
  uint64_t violations = 0;  // schedules with conflicting decisions
  uint64_t blocked = 0;     // schedules where some active node blocked
  uint64_t undecided = 0;   // schedules where an active node never decided
};

/// Runs one transaction under `protocol` with up to two crash injections
/// and reports what happened.
struct RunResult {
  bool violation = false;
  bool blocked = false;
  bool all_active_decided = true;
};

RunResult RunOnce(CommitProtocol protocol, uint32_t n, CrashOn mode,
                  const std::vector<CrashPoint>& crashes,
                  Decision last_cohort_vote) {
  testbed::ProtocolTestbed bed(protocol, n, SweepNet());
  bed.host(n - 1).set_vote(last_cohort_vote);

  uint64_t counter = 0;
  auto hook = [&, mode](const Message& msg) {
    counter++;
    bool deliver = true;
    for (const CrashPoint& cp : crashes) {
      if (counter == cp.at) {
        bed.network().CrashNode(cp.node);
        // Fail-stop semantics: a crashed node loses only its own
        // receptions (delivery mode) or its own un-issued sends (send
        // mode). Messages it already put on the wire still arrive;
        // dropping those would model message loss, under which no commit
        // protocol is safe (Section 4.1).
        if (mode == CrashOn::kDelivery && msg.dst == cp.node) {
          deliver = false;
        }
        if (mode == CrashOn::kSend && msg.src == cp.node) {
          deliver = false;
        }
      }
    }
    return deliver;
  };
  if (mode == CrashOn::kDelivery) {
    bed.network().SetDeliveryInterceptor(hook);
  } else {
    bed.network().SetSendFilter(hook);
  }

  const TxnId txn = bed.StartAll();
  bed.Settle(200'000);

  RunResult result;
  result.violation = !bed.monitor().Violations().empty();
  result.blocked = bed.monitor().blocked_reports() > 0;
  for (NodeId id = 0; id < n; ++id) {
    if (bed.network().IsCrashed(id)) continue;
    if (!bed.host(id).applied(txn).has_value() &&
        bed.host(id).blocked_count() == 0) {
      result.all_active_decided = false;
    }
  }
  return result;
}

/// Counts the fault-free event total so the sweep knows its range.
uint64_t BaselineEvents(CommitProtocol protocol, uint32_t n, CrashOn mode,
                        Decision last_vote) {
  testbed::ProtocolTestbed bed(protocol, n, SweepNet());
  bed.host(n - 1).set_vote(last_vote);
  uint64_t counter = 0;
  auto count_hook = [&](const Message&) {
    counter++;
    return true;
  };
  if (mode == CrashOn::kDelivery) {
    bed.network().SetDeliveryInterceptor(count_hook);
  } else {
    bed.network().SetSendFilter(count_hook);
  }
  bed.StartAll();
  bed.Settle(200'000);
  return counter;
}

SweepOutcome SingleCrashSweep(CommitProtocol protocol, uint32_t n,
                              CrashOn mode,
                              Decision last_vote = Decision::kCommit) {
  SweepOutcome outcome;
  const uint64_t events = BaselineEvents(protocol, n, mode, last_vote);
  for (NodeId node = 0; node < n; ++node) {
    for (uint64_t at = 1; at <= events; ++at) {
      const RunResult r =
          RunOnce(protocol, n, mode, {{node, at}}, last_vote);
      outcome.schedules++;
      if (r.violation) outcome.violations++;
      if (r.blocked) outcome.blocked++;
      if (!r.all_active_decided) outcome.undecided++;
    }
  }
  return outcome;
}

SweepOutcome DualCrashSweep(CommitProtocol protocol, uint32_t n,
                            CrashOn mode) {
  SweepOutcome outcome;
  const uint64_t events =
      BaselineEvents(protocol, n, mode, Decision::kCommit);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      for (uint64_t at_a = 1; at_a <= events; ++at_a) {
        for (uint64_t at_b = at_a; at_b <= events; ++at_b) {
          const RunResult r = RunOnce(protocol, n, mode,
                                      {{a, at_a}, {b, at_b}},
                                      Decision::kCommit);
          outcome.schedules++;
          if (r.violation) outcome.violations++;
          if (r.blocked) outcome.blocked++;
          if (!r.all_active_decided) outcome.undecided++;
        }
      }
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Safety: Theorem 3.1 (plus the classic results for 2PC/3PC)
// ---------------------------------------------------------------------------

// gtest has no printer for this type, so each case's listed name carries
// the parameter's raw bytes. The padding after `protocol` is therefore a
// zeroed member: left implicit it held whatever the stack did, and the
// test names changed from build to build.
struct SweepParam {
  SweepParam(CommitProtocol protocol_in, uint32_t n_in, CrashOn mode_in)
      : protocol(protocol_in), n(n_in), mode(mode_in) {}

  CommitProtocol protocol;
  uint8_t zero_padding[3] = {};
  uint32_t n;
  CrashOn mode;
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "SweepParam must have no implicit padding");

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = ToString(info.param.protocol);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  name += "_n" + std::to_string(info.param.n);
  name += info.param.mode == CrashOn::kDelivery ? "_delivery" : "_send";
  return name;
}

class SingleCrashTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SingleCrashTest, SafeUnderEverySingleCrash) {
  const SweepParam p = GetParam();
  const SweepOutcome outcome = SingleCrashSweep(p.protocol, p.n, p.mode);
  EXPECT_GT(outcome.schedules, 0u);
  EXPECT_EQ(outcome.violations, 0u)
      << ToString(p.protocol) << " violated safety under a single crash";
}

TEST_P(SingleCrashTest, SafeWhenACohortVotesAbort) {
  const SweepParam p = GetParam();
  const SweepOutcome outcome =
      SingleCrashSweep(p.protocol, p.n, p.mode, Decision::kAbort);
  EXPECT_EQ(outcome.violations, 0u);
}

TEST_P(SingleCrashTest, NonBlockingProtocolsDecideEverywhere) {
  const SweepParam p = GetParam();
  if (p.protocol == CommitProtocol::kTwoPhase ||
      p.protocol == CommitProtocol::kTwoPhasePresumedAbort ||
      p.protocol == CommitProtocol::kTwoPhasePresumedCommit) {
    GTEST_SKIP() << "2PC-family protocols are blocking; covered by "
                    "TwoPcBlocking and presumed tests";
  }
  const SweepOutcome outcome = SingleCrashSweep(p.protocol, p.n, p.mode);
  EXPECT_EQ(outcome.blocked, 0u);
  EXPECT_EQ(outcome.undecided, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, SingleCrashTest,
    ::testing::Values(
        SweepParam{CommitProtocol::kTwoPhase, 3, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kTwoPhase, 4, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kTwoPhase, 3, CrashOn::kSend},
        SweepParam{CommitProtocol::kThreePhase, 3, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kThreePhase, 4, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kThreePhase, 3, CrashOn::kSend},
        SweepParam{CommitProtocol::kEasyCommit, 2, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kEasyCommit, 3, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kEasyCommit, 4, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kEasyCommit, 3, CrashOn::kSend},
        SweepParam{CommitProtocol::kEasyCommit, 4, CrashOn::kSend},
        SweepParam{CommitProtocol::kTwoPhasePresumedAbort, 3,
                   CrashOn::kDelivery},
        SweepParam{CommitProtocol::kTwoPhasePresumedAbort, 4,
                   CrashOn::kSend},
        SweepParam{CommitProtocol::kTwoPhasePresumedCommit, 3,
                   CrashOn::kDelivery},
        SweepParam{CommitProtocol::kTwoPhasePresumedCommit, 4,
                   CrashOn::kSend},
        // Quorum variants (PR 9): a single crash always leaves a majority
        // of the full participant list, so both must decide everywhere —
        // they go through NonBlockingProtocolsDecideEverywhere, unlike the
        // 2PC family. Kept out of the dual-crash suite below: 2 of 3
        // crashed is a lost quorum by design (they wait, not block).
        SweepParam{CommitProtocol::kThreePhaseE3PC, 3, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kThreePhaseE3PC, 4, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kThreePhaseE3PC, 3, CrashOn::kSend},
        SweepParam{CommitProtocol::kPaxosCommit, 3, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kPaxosCommit, 4, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kPaxosCommit, 3, CrashOn::kSend}),
    SweepName);

class DualCrashTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DualCrashTest, SafeUnderEveryCrashPair) {
  const SweepParam p = GetParam();
  const SweepOutcome outcome = DualCrashSweep(p.protocol, p.n, p.mode);
  EXPECT_GT(outcome.schedules, 0u);
  EXPECT_EQ(outcome.violations, 0u)
      << ToString(p.protocol) << " violated safety under a crash pair";
}

TEST_P(DualCrashTest, EasyCommitNeverBlocksUnderCrashPairs) {
  const SweepParam p = GetParam();
  if (p.protocol != CommitProtocol::kEasyCommit) {
    GTEST_SKIP() << "blocking bound asserted for EC only";
  }
  const SweepOutcome outcome = DualCrashSweep(p.protocol, p.n, p.mode);
  EXPECT_EQ(outcome.blocked, 0u);
  EXPECT_EQ(outcome.undecided, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DualCrashTest,
    ::testing::Values(
        SweepParam{CommitProtocol::kTwoPhase, 3, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kEasyCommit, 3, CrashOn::kDelivery},
        SweepParam{CommitProtocol::kEasyCommit, 3, CrashOn::kSend},
        SweepParam{CommitProtocol::kThreePhase, 3, CrashOn::kDelivery}),
    SweepName);

// ---------------------------------------------------------------------------
// Liveness contrast: 2PC blocks, EC does not, on the same schedule space
// ---------------------------------------------------------------------------

TEST(TwoPcBlockingTest, DualCrashesBlockTwoPcButNeverEasyCommit) {
  const SweepOutcome two_pc =
      DualCrashSweep(CommitProtocol::kTwoPhase, 3, CrashOn::kSend);
  const SweepOutcome ec =
      DualCrashSweep(CommitProtocol::kEasyCommit, 3, CrashOn::kSend);
  // The motivating example exists somewhere in this space: 2PC blocks.
  EXPECT_GT(two_pc.blocked, 0u);
  // EC terminates every active node on the identical schedule space.
  EXPECT_EQ(ec.blocked, 0u);
  EXPECT_EQ(ec.undecided, 0u);
}

TEST(TwoPcBlockingTest, SingleCohortCrashDoesNotBlockTwoPc) {
  // When only a *cohort* fails, the coordinator stays available: it either
  // times out in WAIT (aborts) or completes the protocol. No survivor
  // blocks.
  const uint32_t n = 4;
  const uint64_t events =
      BaselineEvents(CommitProtocol::kTwoPhase, n, CrashOn::kDelivery,
                     Decision::kCommit);
  for (NodeId cohort = 1; cohort < n; ++cohort) {
    for (uint64_t at = 1; at <= events; ++at) {
      const RunResult r = RunOnce(CommitProtocol::kTwoPhase, n,
                                  CrashOn::kDelivery, {{cohort, at}},
                                  Decision::kCommit);
      EXPECT_FALSE(r.blocked) << "cohort " << cohort << " at " << at;
      EXPECT_TRUE(r.all_active_decided)
          << "cohort " << cohort << " at " << at;
    }
  }
}

TEST(TwoPcBlockingTest, CoordinatorCrashBeforeDecisionBlocksTwoPcOnly) {
  // The classical 2PC weakness: the coordinator fails while every cohort
  // is in READY. The cohorts cannot distinguish "commit decided and
  // unsent" from "nothing decided", so they block. EC survivors instead
  // abort safely (the coordinator cannot have committed without
  // completing its transmission).
  uint64_t two_pc_blocked = 0;
  const uint64_t events =
      BaselineEvents(CommitProtocol::kTwoPhase, 3, CrashOn::kDelivery,
                     Decision::kCommit);
  for (uint64_t at = 1; at <= events; ++at) {
    const RunResult two_pc = RunOnce(CommitProtocol::kTwoPhase, 3,
                                     CrashOn::kDelivery, {{0, at}},
                                     Decision::kCommit);
    if (two_pc.blocked) two_pc_blocked++;
    const RunResult ec = RunOnce(CommitProtocol::kEasyCommit, 3,
                                 CrashOn::kDelivery, {{0, at}},
                                 Decision::kCommit);
    EXPECT_FALSE(ec.blocked) << "EC blocked at " << at;
    EXPECT_TRUE(ec.all_active_decided) << "EC undecided at " << at;
    EXPECT_FALSE(ec.violation) << "EC violation at " << at;
  }
  EXPECT_GT(two_pc_blocked, 0u);
}

// ---------------------------------------------------------------------------
// Ablation: forwarding is what makes EC safe
// ---------------------------------------------------------------------------

// Runs the paper's motivating scenario shape against a protocol variant:
// the coordinator's decision broadcast is truncated after the copy to
// cohort `x`, and `x` itself fail-stops immediately after applying the
// decision. Returns the number of (x, truncation point) schedules whose
// surviving nodes ended in a state conflicting with x's.
uint64_t CrashAfterApplySweep(CommitProtocol protocol, uint32_t n,
                              uint64_t* blocked_out = nullptr) {
  uint64_t violations = 0;
  uint64_t blocked = 0;
  for (NodeId x = 1; x < n; ++x) {
    testbed::ProtocolTestbed bed(protocol, n, SweepNet());
    bed.host(x).set_crash_after_apply(true);
    bed.network().SetSendFilter([&](const Message& msg) {
      const bool decision = msg.type == MsgType::kGlobalCommit ||
                            msg.type == MsgType::kGlobalAbort;
      if (decision && msg.src == 0 && !msg.forwarded && msg.dst != x) {
        bed.network().CrashNode(0);  // truncated broadcast
        return false;
      }
      return true;
    });
    bed.StartAll();
    bed.Settle(200'000);
    if (!bed.monitor().Violations().empty()) violations++;
    if (bed.monitor().blocked_reports() > 0) blocked++;
  }
  if (blocked_out != nullptr) *blocked_out = blocked;
  return violations;
}

TEST(ForwardingAblationTest, DisablingForwardingBreaksSafety) {
  // Without cohort-to-cohort forwarding, the cohort that received the
  // truncated broadcast commits and dies without redistributing the
  // decision; the survivors' termination protocol aborts => conflicting
  // states. Real EC forwards *before* applying, so the survivors learn
  // the commit and no schedule conflicts.
  EXPECT_GT(CrashAfterApplySweep(CommitProtocol::kEasyCommitNoForward, 3),
            0u)
      << "expected the no-forwarding ablation to violate safety somewhere";
  EXPECT_EQ(CrashAfterApplySweep(CommitProtocol::kEasyCommit, 3), 0u);
  EXPECT_EQ(CrashAfterApplySweep(CommitProtocol::kEasyCommit, 4), 0u);
}

TEST(ForwardingAblationTest, TwoPcBlocksOnTheSameScenario) {
  uint64_t blocked = 0;
  const uint64_t violations =
      CrashAfterApplySweep(CommitProtocol::kTwoPhase, 3, &blocked);
  EXPECT_EQ(violations, 0u);  // blocked, not inconsistent
  EXPECT_GT(blocked, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace ecdb
