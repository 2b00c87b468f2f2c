// Unit tests for the 2PC / 3PC / EasyCommit state machines: message and
// log sequences on happy paths, abort paths, timeout handling, and the
// paper's motivating multi-failure scenarios.

#include "commit/commit_engine.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "protocol_harness.h"

namespace ecdb {
namespace testing {
namespace {

// Zero-latency-jitter network so message orders are easy to reason about.
NetworkConfig QuietNet() {
  NetworkConfig net;
  net.base_latency_us = 100;
  net.jitter_us = 0;
  return net;
}

// ---------------------------------------------------------------------------
// Happy paths
// ---------------------------------------------------------------------------

class CommitHappyPathTest
    : public ::testing::TestWithParam<CommitProtocol> {};

TEST_P(CommitHappyPathTest, AllNodesCommit) {
  ProtocolTestbed bed(GetParam(), 4, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  for (NodeId id = 0; id < 4; ++id) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value()) << "node " << id;
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kCommit) << "node " << id;
    EXPECT_TRUE(bed.host(id).cleaned(txn)) << "node " << id;
  }
  EXPECT_TRUE(bed.monitor().Violations().empty());
  EXPECT_EQ(bed.monitor().blocked_reports(), 0u);
}

TEST_P(CommitHappyPathTest, CoordinatorAbortVoteAbortsEverywhere) {
  ProtocolTestbed bed(GetParam(), 3, QuietNet());
  const TxnId txn = bed.StartAll(Decision::kAbort);
  bed.Settle();
  for (NodeId id = 0; id < 3; ++id) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value());
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kAbort);
  }
}

TEST_P(CommitHappyPathTest, ParticipantVoteAbortAbortsEverywhere) {
  ProtocolTestbed bed(GetParam(), 4, QuietNet());
  bed.host(2).set_vote(Decision::kAbort);
  const TxnId txn = bed.StartAll();
  bed.Settle();
  for (NodeId id = 0; id < 4; ++id) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value()) << "node " << id;
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kAbort) << "node " << id;
  }
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST_P(CommitHappyPathTest, TwoNodeTransactionCommits) {
  ProtocolTestbed bed(GetParam(), 2, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(*bed.host(0).applied(txn), Decision::kCommit);
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kCommit);
}

TEST_P(CommitHappyPathTest, EngineStateIsReleasedAfterCleanup) {
  ProtocolTestbed bed(GetParam(), 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_FALSE(bed.host(id).engine().StatusOf(txn).has_value());
    EXPECT_EQ(bed.host(id).engine().ActiveCount(), 0u);
  }
}

TEST_P(CommitHappyPathTest, ManySequentialTransactions) {
  ProtocolTestbed bed(GetParam(), 3, QuietNet());
  for (int i = 0; i < 20; ++i) {
    const TxnId txn = bed.StartAll();
    bed.Settle();
    for (NodeId id = 0; id < 3; ++id) {
      ASSERT_EQ(*bed.host(id).applied(txn), Decision::kCommit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CommitHappyPathTest,
                         ::testing::Values(CommitProtocol::kTwoPhase,
                                           CommitProtocol::kThreePhase,
                                           CommitProtocol::kEasyCommit),
                         [](const auto& info) { return ToString(info.param); });

// ---------------------------------------------------------------------------
// Log sequences (Figure 5 and the 2PC/3PC algorithms)
// ---------------------------------------------------------------------------

TEST(CommitLogTest, TwoPcCoordinatorLogSequence) {
  ProtocolTestbed bed(CommitProtocol::kTwoPhase, 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.host(0).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kBeginCommit,
                                        LogRecordType::kCommitDecision,
                                        LogRecordType::kTransactionCommit}));
}

TEST(CommitLogTest, TwoPcParticipantLogSequence) {
  ProtocolTestbed bed(CommitProtocol::kTwoPhase, 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.host(1).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kReady,
                                        LogRecordType::kTransactionCommit}));
}

TEST(CommitLogTest, ThreePcLogsPreCommitOnBothSides) {
  ProtocolTestbed bed(CommitProtocol::kThreePhase, 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.host(0).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kBeginCommit,
                                        LogRecordType::kPreCommit,
                                        LogRecordType::kCommitDecision,
                                        LogRecordType::kTransactionCommit}));
  EXPECT_EQ(bed.host(2).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kReady,
                                        LogRecordType::kPreCommit,
                                        LogRecordType::kTransactionCommit}));
}

TEST(CommitLogTest, EasyCommitParticipantLogsReceivedBeforeCommit) {
  // Figure 5b: ready -> global-commit-received -> transaction-commit.
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.host(1).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kReady,
                                        LogRecordType::kCommitReceived,
                                        LogRecordType::kTransactionCommit}));
}

TEST(CommitLogTest, EasyCommitAbortPathLogsAbortReceived) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  bed.host(1).set_vote(Decision::kAbort);
  const TxnId txn = bed.StartAll();
  bed.Settle();
  // The abort-voting cohort still goes READY first (observation I) and
  // learns the global abort like everyone else.
  EXPECT_EQ(bed.host(1).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kReady,
                                        LogRecordType::kAbortReceived,
                                        LogRecordType::kTransactionAbort}));
}

TEST(CommitLogTest, TwoPcAbortVoterSkipsReadyState) {
  // In 2PC (unlike EC) an abort-voting cohort moves INITIAL -> ABORT.
  ProtocolTestbed bed(CommitProtocol::kTwoPhase, 3, QuietNet());
  bed.host(1).set_vote(Decision::kAbort);
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.host(1).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kTransactionAbort}));
}

// ---------------------------------------------------------------------------
// Message patterns
// ---------------------------------------------------------------------------

TEST(CommitMessageTest, EasyCommitForwardsDecisionQuadratically) {
  // n participants: coordinator sends n-1 decisions, every cohort forwards
  // to the n-1 others => (n-1) + (n-1)^2 Global-* messages.
  for (uint32_t n : {2u, 3u, 4u, 5u}) {
    ProtocolTestbed bed(CommitProtocol::kEasyCommit, n, QuietNet());
    bed.StartAll();
    bed.Settle();
    const auto& per_type = bed.network().stats().per_type;
    const uint64_t commits = per_type.count(MsgType::kGlobalCommit)
                                 ? per_type.at(MsgType::kGlobalCommit)
                                 : 0;
    EXPECT_EQ(commits, (n - 1) + (n - 1) * (n - 1)) << "n=" << n;
  }
}

TEST(CommitMessageTest, TwoPcDecisionMessagesAreLinear) {
  for (uint32_t n : {2u, 3u, 4u, 5u}) {
    ProtocolTestbed bed(CommitProtocol::kTwoPhase, n, QuietNet());
    bed.StartAll();
    bed.Settle();
    const auto& per_type = bed.network().stats().per_type;
    EXPECT_EQ(per_type.at(MsgType::kGlobalCommit), n - 1) << "n=" << n;
    EXPECT_EQ(per_type.at(MsgType::kAck), n - 1) << "n=" << n;
  }
}

TEST(CommitMessageTest, ThreePcAddsPreCommitRound) {
  ProtocolTestbed bed(CommitProtocol::kThreePhase, 4, QuietNet());
  bed.StartAll();
  bed.Settle();
  const auto& per_type = bed.network().stats().per_type;
  EXPECT_EQ(per_type.at(MsgType::kPreCommit), 3u);
  EXPECT_EQ(per_type.at(MsgType::kPreCommitAck), 3u);
  EXPECT_EQ(per_type.at(MsgType::kGlobalCommit), 3u);
}

TEST(CommitMessageTest, EasyCommitSendsNoAcks) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 4, QuietNet());
  bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.network().stats().per_type.count(MsgType::kAck), 0u);
}

TEST(CommitMessageTest, NoForwardAblationSendsLinearDecisions) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommitNoForward, 4, QuietNet());
  bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.network().stats().per_type.at(MsgType::kGlobalCommit), 3u);
}

// Failure-free messages per commit round, every protocol, on the coalesced
// transport the cluster experiments run with: the message-delay cost Gray &
// Lamport compare commit protocols on. EC's decision flood and Paxos
// Commit's vote broadcast to every acceptor both grow O(n^2) (Section 5.3);
// the 2PC and 3PC families stay linear.
TEST(CommitMessageTest, MessagesPerFailureFreeRound) {
  struct Row {
    CommitProtocol protocol;
    uint32_t n;
    uint64_t messages;
  };
  const Row rows[] = {
      {CommitProtocol::kTwoPhase, 4, 12},
      {CommitProtocol::kTwoPhase, 32, 124},
      {CommitProtocol::kTwoPhasePresumedAbort, 4, 12},
      {CommitProtocol::kTwoPhasePresumedAbort, 32, 124},
      {CommitProtocol::kTwoPhasePresumedCommit, 4, 9},
      {CommitProtocol::kTwoPhasePresumedCommit, 32, 93},
      {CommitProtocol::kThreePhase, 4, 18},
      {CommitProtocol::kThreePhase, 32, 186},
      {CommitProtocol::kEasyCommit, 4, 18},
      {CommitProtocol::kEasyCommit, 32, 1054},
      {CommitProtocol::kThreePhaseE3PC, 4, 18},
      {CommitProtocol::kThreePhaseE3PC, 32, 186},
      {CommitProtocol::kPaxosCommit, 4, 30},
      {CommitProtocol::kPaxosCommit, 32, 2046},
  };
  NetworkConfig net;
  net.base_latency_us = 1;
  net.jitter_us = 0;
  for (const Row& row : rows) {
    ProtocolTestbed bed(row.protocol, row.n, net);
    bed.network().EnableCoalescing(true);
    const TxnId txn = bed.StartAll();
    bed.Settle();
    for (NodeId id = 0; id < row.n; ++id) {
      ASSERT_EQ(bed.host(id).applied(txn), Decision::kCommit)
          << ToString(row.protocol) << " n=" << row.n << " node " << id;
    }
    EXPECT_EQ(bed.network().stats().messages_sent, row.messages)
        << ToString(row.protocol) << " n=" << row.n;
  }
}

// ---------------------------------------------------------------------------
// Timeouts and the termination protocol
// ---------------------------------------------------------------------------

TEST(CommitTimeoutTest, CoordinatorTimeoutInWaitAborts) {
  // Case A: a cohort never votes; the coordinator aborts.
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  bed.network().CrashNode(2);  // silent cohort
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(*bed.host(0).applied(txn), Decision::kAbort);
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kAbort);
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(CommitTimeoutTest, EcCohortTimeoutInInitialRunsTermination) {
  // Case B: the coordinator dies before sending any Prepare; EC cohorts
  // consult each other and abort together.
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2};
  bed.host(1).engine().ExpectPrepare(txn, 0, participants);
  bed.host(2).engine().ExpectPrepare(txn, 0, participants);
  bed.network().CrashNode(0);
  bed.Settle();
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kAbort);
  EXPECT_EQ(*bed.host(2).applied(txn), Decision::kAbort);
  EXPECT_GT(bed.Totals().termination_rounds, 0u);
}

TEST(CommitTimeoutTest, TwoPcCohortTimeoutInInitialAbortsUnilaterally) {
  ProtocolTestbed bed(CommitProtocol::kTwoPhase, 3, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  bed.host(1).engine().ExpectPrepare(txn, 0, {0, 1, 2});
  bed.network().CrashNode(0);
  bed.network().CrashNode(2);
  bed.Settle();
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kAbort);
  EXPECT_EQ(bed.Totals().termination_rounds, 0u);
}

TEST(CommitTimeoutTest, CohortLearnsDecisionFromPeerViaTermination) {
  // Coordinator's decision reaches cohort 1 but the message to cohort 2 is
  // dropped; cohort 2 times out, consults, and learns commit from a peer.
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    // Drop only the coordinator's original decision (and EC forward) to 2
    // during the first phase; allow termination traffic later.
    return !(msg.dst == 2 && (msg.type == MsgType::kGlobalCommit) &&
             !msg.forwarded && msg.src == 0);
  });
  std::vector<NodeId> participants{0, 1, 2};
  bed.host(1).engine().ExpectPrepare(txn, 0, participants);
  bed.host(2).engine().ExpectPrepare(txn, 0, participants);
  bed.host(0).engine().StartCommit(txn, participants, Decision::kCommit);
  bed.Settle();
  EXPECT_EQ(*bed.host(2).applied(txn), Decision::kCommit);
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(CommitTimeoutTest, TerminationLeaderIsLowestActiveNode) {
  // Coordinator 0 dies pre-Prepare; among cohorts {1, 2, 3} node 1 leads.
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 4, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2, 3};
  for (NodeId id = 1; id < 4; ++id) {
    bed.host(id).engine().ExpectPrepare(txn, 0, participants);
  }
  bed.network().CrashNode(0);
  bed.Settle();
  // Node 1 must have logged the abort decision (it led); 2 and 3 logged
  // only the reception.
  const auto leader_log = bed.host(1).LogTypes(txn);
  EXPECT_NE(std::find(leader_log.begin(), leader_log.end(),
                      LogRecordType::kAbortDecision),
            leader_log.end());
  for (NodeId id : {2u, 3u}) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value());
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kAbort);
  }
}

TEST(CommitTimeoutTest, TerminationIsReentrantWhenLeaderDies) {
  // Coordinator dies; leader-elect (node 1) dies mid-termination; node 2
  // must still terminate the transaction.
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 4, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2, 3};
  for (NodeId id = 1; id < 4; ++id) {
    bed.host(id).engine().ExpectPrepare(txn, 0, participants);
  }
  bed.network().CrashNode(0);
  // Crash node 1 as soon as it tries to lead (first TermElect from it).
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.src == 1 && msg.type == MsgType::kTermElect) {
      bed.network().CrashNode(1);
      return false;
    }
    return true;
  });
  bed.Settle();
  EXPECT_EQ(*bed.host(2).applied(txn), Decision::kAbort);
  EXPECT_EQ(*bed.host(3).applied(txn), Decision::kAbort);
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

// ---------------------------------------------------------------------------
// The paper's motivating multi-failure scenario (Sections 2 and 3.3)
// ---------------------------------------------------------------------------

// Coordinator C decides commit and fails mid-broadcast so that only X is
// addressed; X itself fails around the same time. Y and Z must not block
// under EC or 3PC; under 2PC they block. Two variants:
//  * x_receives=false: X crashes with the decision undelivered. Under
//    fail-stop this is the only way "X fails and nobody saw the decision"
//    can happen — if X had processed the decision it would have forwarded
//    it to everyone *before* committing (observation IV), and messages
//    from a live node are not lost.
//  * x_receives=true: X processes the decision (forwards, commits), then
//    fails. Its forwards reach Y and Z.
class MotivatingScenario {
 public:
  MotivatingScenario(CommitProtocol protocol, bool x_receives)
      : bed_(protocol, 4, QuietNet()) {
    txn_ = MakeTxnId(0, 1);
    std::vector<NodeId> participants{0, 1, 2, 3};
    for (NodeId id = 1; id < 4; ++id) {
      bed_.host(id).engine().ExpectPrepare(txn_, 0, participants);
    }
    // Send filter: C's broadcast is truncated after the copy addressed to
    // X — the sends to Y and Z (and hence C's own commit step) never
    // happen, which is exactly fail-stop mid-broadcast.
    bed_.network().SetSendFilter([this](const Message& msg) {
      const bool decision = msg.type == MsgType::kGlobalCommit ||
                            msg.type == MsgType::kGlobalAbort;
      if (decision && msg.src == 0 && !msg.forwarded && msg.dst != 1) {
        bed_.network().CrashNode(0);
        return false;
      }
      return true;
    });
    bed_.network().SetDeliveryInterceptor([this,
                                           x_receives](const Message& msg) {
      const bool decision = msg.type == MsgType::kGlobalCommit ||
                            msg.type == MsgType::kGlobalAbort;
      if (decision && msg.src == 0 && msg.dst == 1) {
        bed_.network().CrashNode(0);  // C is gone by delivery time anyway
        if (!x_receives) {
          bed_.network().CrashNode(1);  // X dies with it undelivered
          return false;
        }
        x_got_decision_ = true;
        return true;
      }
      if (x_got_decision_ && msg.src == 1 && decision && !x_crashed_) {
        // X fails right after transmitting (its forwards already left and,
        // under fail-stop, are delivered).
        x_crashed_ = true;
        bed_.network().CrashNode(1);
        return true;  // this forward was already on the wire
      }
      return true;
    });
    bed_.host(0).engine().StartCommit(txn_, participants, Decision::kCommit);
  }

  void Run() {
    bed_.Settle();
    if (!bed_.network().IsCrashed(1)) bed_.network().CrashNode(1);
    bed_.Settle();
  }

  ProtocolTestbed& bed() { return bed_; }
  TxnId txn() const { return txn_; }

 private:
  ProtocolTestbed bed_;
  TxnId txn_;
  bool x_got_decision_ = false;
  bool x_crashed_ = false;
};

TEST(MotivatingScenarioTest, EasyCommitAbortsSafelyWhenDecisionIsLost) {
  MotivatingScenario scenario(CommitProtocol::kEasyCommit,
                              /*x_receives=*/false);
  scenario.Run();
  auto& bed = scenario.bed();
  // No active node ever saw the decision; the termination protocol aborts
  // on both survivors. Nobody blocks, nobody conflicts (X never committed:
  // a node that cannot transmit cannot commit).
  EXPECT_TRUE(bed.AllActiveDecided(scenario.txn()));
  EXPECT_EQ(bed.monitor().blocked_reports(), 0u);
  EXPECT_TRUE(bed.monitor().Violations().empty());
  EXPECT_EQ(*bed.host(2).applied(scenario.txn()), Decision::kAbort);
  EXPECT_EQ(*bed.host(3).applied(scenario.txn()), Decision::kAbort);
}

TEST(MotivatingScenarioTest, EasyCommitPropagatesCommitWhenXForwards) {
  MotivatingScenario scenario(CommitProtocol::kEasyCommit,
                              /*x_receives=*/true);
  scenario.Run();
  auto& bed = scenario.bed();
  // X forwarded before committing, so Y and Z learn the commit even though
  // both C and X are down.
  EXPECT_EQ(*bed.host(2).applied(scenario.txn()), Decision::kCommit);
  EXPECT_EQ(*bed.host(3).applied(scenario.txn()), Decision::kCommit);
  EXPECT_EQ(bed.monitor().blocked_reports(), 0u);
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(MotivatingScenarioTest, TwoPhaseCommitBlocks) {
  MotivatingScenario scenario(CommitProtocol::kTwoPhase,
                              /*x_receives=*/false);
  scenario.Run();
  auto& bed = scenario.bed();
  // Y and Z are in READY with both C and X gone: blocked, exactly the
  // behaviour the paper motivates against.
  EXPECT_GT(bed.monitor().blocked_reports(), 0u);
  EXPECT_FALSE(bed.host(2).applied(scenario.txn()).has_value());
  EXPECT_FALSE(bed.host(3).applied(scenario.txn()).has_value());
}

TEST(MotivatingScenarioTest, ThreePhaseCommitDoesNotBlock) {
  MotivatingScenario scenario(CommitProtocol::kThreePhase,
                              /*x_receives=*/false);
  scenario.Run();
  auto& bed = scenario.bed();
  EXPECT_TRUE(bed.AllActiveDecided(scenario.txn()));
  EXPECT_EQ(bed.monitor().blocked_reports(), 0u);
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

// ---------------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------------

TEST(CommitRobustnessTest, DuplicateDecisionMessagesAreIdempotent) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  // Re-deliver a decision after cleanup; must be ignored without effect.
  Message dup;
  dup.type = MsgType::kGlobalCommit;
  dup.src = 0;
  dup.dst = 1;
  dup.txn = txn;
  dup.participants = {0, 1, 2};
  bed.host(1).engine().OnMessage(dup);
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kCommit);
  EXPECT_EQ(bed.Totals().conflicting_decisions, 0u);
}

TEST(CommitRobustnessTest, SpuriousTimeoutAfterCleanupIsIgnored) {
  ProtocolTestbed bed(CommitProtocol::kTwoPhase, 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  bed.host(0).engine().OnTimeout(txn);  // nothing should happen
  EXPECT_EQ(*bed.host(0).applied(txn), Decision::kCommit);
}

TEST(CommitRobustnessTest, MessagesForUnknownTxnAreIgnored) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 2, QuietNet());
  Message msg;
  msg.type = MsgType::kVoteCommit;
  msg.src = 1;
  msg.dst = 0;
  msg.txn = MakeTxnId(0, 999);
  bed.host(0).engine().OnMessage(msg);
  EXPECT_EQ(bed.host(0).engine().ActiveCount(), 0u);
}

TEST(CommitRobustnessTest, ForgetDropsStateWithoutCallbacks) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 2, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  bed.host(1).engine().ExpectPrepare(txn, 0, {0, 1});
  EXPECT_EQ(bed.host(1).engine().ActiveCount(), 1u);
  bed.host(1).engine().Forget(txn);
  EXPECT_EQ(bed.host(1).engine().ActiveCount(), 0u);
  bed.Settle();
  EXPECT_FALSE(bed.host(1).applied(txn).has_value());
}

TEST(CommitRobustnessTest, DecisionLedgerAnswersLateQueries) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  ASSERT_TRUE(bed.host(0).cleaned(txn));
  // A late termination query still gets the decision from the ledger.
  Message elect;
  elect.type = MsgType::kTermElect;
  elect.src = 2;
  elect.dst = 0;
  elect.txn = txn;
  bed.host(0).engine().OnMessage(elect);
  bed.Settle();
  EXPECT_EQ(*bed.host(2).applied(txn), Decision::kCommit);
}

}  // namespace
}  // namespace testing
}  // namespace ecdb
