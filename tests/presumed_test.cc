// Tests for the presumed-abort (2PC-PA) and presumed-commit (2PC-PC)
// variants: log-write and ack elisions, the no-record-means-abort
// presumption, and safety under the same failure sweeps as plain 2PC.

#include <algorithm>

#include <gtest/gtest.h>

#include "commit/testbed.h"

namespace ecdb {
namespace testing {
namespace {

NetworkConfig QuietNet() {
  NetworkConfig net;
  net.base_latency_us = 100;
  net.jitter_us = 0;
  return net;
}

// ---------------------------------------------------------------------------
// Presumed abort
// ---------------------------------------------------------------------------

TEST(PresumedAbortTest, CommitPathMatchesTwoPc) {
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedAbort, 3,
                               QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kCommit);
  }
  // Commits are acked (that is what makes the presumption sound).
  EXPECT_EQ(bed.network().stats().per_type.at(MsgType::kAck), 2u);
}

TEST(PresumedAbortTest, AbortPathWritesNoLogRecords) {
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedAbort, 3,
                               QuietNet());
  bed.host(1).set_vote(Decision::kAbort);
  const TxnId txn = bed.StartAll();
  bed.Settle();
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kAbort) << "node " << id;
  }
  // The whole point of PA: aborts leave no trace in any log.
  EXPECT_TRUE(bed.host(0).LogTypes(txn).empty());
  EXPECT_TRUE(bed.host(1).LogTypes(txn).empty());
  // Cohort 2 voted commit (logged ready) before learning the abort; the
  // ready record stays but no abort records follow.
  const auto log2 = bed.host(2).LogTypes(txn);
  EXPECT_EQ(log2, (std::vector<LogRecordType>{LogRecordType::kReady}));
  // And nobody acks an abort under PA.
  EXPECT_EQ(bed.network().stats().per_type.count(MsgType::kAck), 0u);
}

TEST(PresumedAbortTest, CommitStillLogsEverywhere) {
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedAbort, 3,
                               QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  EXPECT_EQ(bed.host(0).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kCommitDecision,
                                        LogRecordType::kTransactionCommit}));
  EXPECT_EQ(bed.host(1).LogTypes(txn),
            (std::vector<LogRecordType>{LogRecordType::kReady,
                                        LogRecordType::kTransactionCommit}));
}

TEST(PresumedAbortTest, UnknownTxnQueriesAreAnsweredAbort) {
  // A cohort stuck in READY asks about a transaction nobody has a record
  // of: under PA the *absence* of a record is the answer (abort), so the
  // cohort unblocks — plain 2PC would block on the same schedule.
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedAbort, 3,
                               QuietNet());
  const TxnId txn = MakeTxnId(0, 424242);  // no coordinator state exists
  bed.host(1).engine().ExpectPrepare(txn, 0, {0, 1, 2});
  Message prepare;
  prepare.type = MsgType::kPrepare;
  prepare.src = 0;
  prepare.dst = 1;
  prepare.txn = txn;
  prepare.participants = {0, 1, 2};
  bed.host(1).engine().OnMessage(prepare);  // votes, enters READY
  bed.Settle(200'000);
  ASSERT_TRUE(bed.host(1).applied(txn).has_value());
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kAbort);
  EXPECT_EQ(bed.host(1).blocked_count(), 0u);

  // Contrast: plain 2PC blocks on the identical schedule.
  testbed::ProtocolTestbed bed2(CommitProtocol::kTwoPhase, 3, QuietNet());
  bed2.host(1).engine().ExpectPrepare(txn, 0, {0, 1, 2});
  prepare.participants = {0, 1, 2};
  bed2.host(1).engine().OnMessage(prepare);
  bed2.Settle(200'000);
  EXPECT_FALSE(bed2.host(1).applied(txn).has_value());
  EXPECT_GT(bed2.host(1).blocked_count(), 0u);
}

TEST(PresumedAbortTest, SafeUnderSingleCrashSweep) {
  // Same sweep the plain protocols get: crash each node at each delivery.
  for (NodeId node = 0; node < 3; ++node) {
    for (uint64_t at = 1; at <= 20; ++at) {
      testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedAbort, 3,
                          QuietNet());
      uint64_t counter = 0;
      bed.network().SetDeliveryInterceptor([&](const Message& msg) {
        counter++;
        if (counter == at) {
          bed.network().CrashNode(node);
          if (msg.dst == node) return false;
        }
        return true;
      });
      bed.StartAll();
      bed.Settle(200'000);
      EXPECT_TRUE(bed.monitor().Violations().empty())
          << "crash " << node << " at " << at;
    }
  }
}

// ---------------------------------------------------------------------------
// Presumed commit
// ---------------------------------------------------------------------------

TEST(PresumedCommitTest, CommitPathSkipsAcks) {
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedCommit, 4,
                               QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  for (NodeId id = 0; id < 4; ++id) {
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kCommit);
    EXPECT_TRUE(bed.host(id).cleaned(txn));
  }
  // Commits are presumed: no acknowledgment round at all.
  EXPECT_EQ(bed.network().stats().per_type.count(MsgType::kAck), 0u);
}

TEST(PresumedCommitTest, AbortPathStillAcks) {
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedCommit, 3,
                               QuietNet());
  bed.host(2).set_vote(Decision::kAbort);
  const TxnId txn = bed.StartAll();
  bed.Settle();
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kAbort);
  }
  // Cohort 1 (which voted commit and was told to abort) must ack.
  EXPECT_EQ(bed.network().stats().per_type.at(MsgType::kAck), 1u);
}

TEST(PresumedCommitTest, CoordinatorLogsCollectingRecord) {
  // PC soundness requires the coordinator to persist the participant set
  // *before* preparing (the begin_commit record).
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedCommit, 3,
                               QuietNet());
  const TxnId txn = bed.StartAll();
  bed.Settle();
  const auto log = bed.host(0).LogTypes(txn);
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front(), LogRecordType::kBeginCommit);
}

TEST(PresumedCommitTest, SafeUnderSingleCrashSweep) {
  for (NodeId node = 0; node < 3; ++node) {
    for (uint64_t at = 1; at <= 20; ++at) {
      testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhasePresumedCommit, 3,
                          QuietNet());
      uint64_t counter = 0;
      bed.network().SetDeliveryInterceptor([&](const Message& msg) {
        counter++;
        if (counter == at) {
          bed.network().CrashNode(node);
          if (msg.dst == node) return false;
        }
        return true;
      });
      bed.StartAll();
      bed.Settle(200'000);
      EXPECT_TRUE(bed.monitor().Violations().empty())
          << "crash " << node << " at " << at;
    }
  }
}

TEST(PresumedVariantsTest, BothStillBlockLikeTwoPc) {
  // PA/PC optimize logging and acknowledgments; they do NOT fix 2PC's
  // blocking problem — the paper's motivation stands against them too.
  for (CommitProtocol protocol : {CommitProtocol::kTwoPhasePresumedAbort,
                                  CommitProtocol::kTwoPhasePresumedCommit}) {
    testbed::ProtocolTestbed bed(protocol, 4, QuietNet());
    const TxnId txn = MakeTxnId(0, 1);
    std::vector<NodeId> participants{0, 1, 2, 3};
    for (NodeId id = 1; id < 4; ++id) {
      bed.host(id).engine().ExpectPrepare(txn, 0, participants);
    }
    bed.network().SetSendFilter([&bed](const Message& msg) {
      const bool decision = msg.type == MsgType::kGlobalCommit ||
                            msg.type == MsgType::kGlobalAbort;
      if (decision && msg.src == 0 && msg.dst != 1) {
        bed.network().CrashNode(0);
        return false;
      }
      return true;
    });
    bed.network().SetDeliveryInterceptor([&bed](const Message& msg) {
      const bool decision = msg.type == MsgType::kGlobalCommit ||
                            msg.type == MsgType::kGlobalAbort;
      if (decision && msg.src == 0 && msg.dst == 1) {
        bed.network().CrashNode(1);
        return false;
      }
      return true;
    });
    bed.host(0).engine().StartCommit(txn, participants, Decision::kCommit);
    bed.Settle(200'000);
    EXPECT_GT(bed.monitor().blocked_reports(), 0u)
        << ToString(protocol) << " should block like plain 2PC";
    EXPECT_TRUE(bed.monitor().Violations().empty());
  }
}

}  // namespace
}  // namespace testing
}  // namespace ecdb
