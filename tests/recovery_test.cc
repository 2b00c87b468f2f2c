// Tests for the Section 4.2 independent-recovery analysis: the rule
// table, the one-pass fold over the WAL, and a differential check of that
// fold against the per-transaction rescans it replaced.

#include "commit/recovery.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include <gtest/gtest.h>

#include "commit/quorum.h"
#include "common/rng.h"
#include "wal/wal.h"

namespace ecdb {
namespace {

TEST(RecoveryRulesTest, NoEntryAborts) {
  // Rule (i): failed before voting -> abort on recovery.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(std::nullopt),
            RecoveryAction::kAbort);
}

TEST(RecoveryRulesTest, BeginCommitAborts) {
  // Rule (ii): coordinator failed before reaching a decision.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kBeginCommit),
            RecoveryAction::kAbort);
}

TEST(RecoveryRulesTest, ReadyConsultsPeers) {
  // Voted commit, outcome unknown: the case where no protocol has
  // independent recovery.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kReady),
            RecoveryAction::kConsultPeers);
}

TEST(RecoveryRulesTest, PreCommitConsultsPeers) {
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kPreCommit),
            RecoveryAction::kConsultPeers);
}

TEST(RecoveryRulesTest, DecisionEntriesFollowDecision) {
  // Rule (iii): the logged decision drives recovery.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kCommitDecision),
            RecoveryAction::kCommit);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kAbortDecision),
            RecoveryAction::kAbort);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kCommitReceived),
            RecoveryAction::kCommit);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kAbortReceived),
            RecoveryAction::kAbort);
}

TEST(RecoveryRulesTest, TerminalEntriesAreIdempotent) {
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kTransactionCommit),
            RecoveryAction::kCommit);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kTransactionAbort),
            RecoveryAction::kAbort);
}

// --------------------------------------------------------------------------
// Quorum-variant records: PRE-ABORT and the snapshot records.
// --------------------------------------------------------------------------

TEST(RecoveryRulesTest, PreAbortConsultsPeers) {
  // An E3PC attempt that pre-accepted Abort is still only an *attempt*: a
  // later quorum may have committed a different attempt, so the outcome is
  // unknowable locally — same bucket as PRE-COMMIT.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kPreAbort),
            RecoveryAction::kConsultPeers);
}

TEST(RecoveryRulesTest, QuorumSnapshotsConsultPeers) {
  // Snapshot records carry epochs/ballots, not protocol progress. If one
  // ends up as the analyzed record the transaction was undecided here.
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kQuorumState),
            RecoveryAction::kConsultPeers);
  EXPECT_EQ(RecoveryManager::AnalyzeRecord(LogRecordType::kPaxosState),
            RecoveryAction::kConsultPeers);
}

// --------------------------------------------------------------------------
// The one-pass fold (RecoveryManager::Plan).
// --------------------------------------------------------------------------

std::vector<TxnId> InFlightIds(const RecoveryPlan& plan) {
  std::vector<TxnId> ids;
  for (const InFlightTxn& t : plan.in_flight) ids.push_back(t.txn);
  return ids;
}

const InFlightTxn* FindInFlight(const RecoveryPlan& plan, TxnId txn) {
  for (const InFlightTxn& t : plan.in_flight) {
    if (t.txn == txn) return &t;
  }
  return nullptr;
}

TEST(RecoveryScanTest, InFlightExcludesTerminated) {
  MemoryWal wal;
  // txn 1: fully committed. txn 2: stuck in READY. txn 3: decision logged
  // but not applied. txn 4: aborted.
  wal.Append({0, 1, LogRecordType::kReady, {}});
  wal.Append({0, 1, LogRecordType::kCommitReceived, {}});
  wal.Append({0, 1, LogRecordType::kTransactionCommit, {}});
  wal.Append({0, 2, LogRecordType::kReady, {}});
  wal.Append({0, 3, LogRecordType::kBeginCommit, {}});
  wal.Append({0, 3, LogRecordType::kCommitDecision, {}});
  wal.Append({0, 4, LogRecordType::kTransactionAbort, {}});

  const RecoveryPlan plan = RecoveryManager::Plan(wal.Scan(), 0);
  std::vector<TxnId> in_flight = InFlightIds(plan);
  std::sort(in_flight.begin(), in_flight.end());
  EXPECT_EQ(in_flight, (std::vector<TxnId>{2, 3}));
  // Every decision entry, in log order.
  EXPECT_EQ(plan.decisions,
            (std::vector<std::pair<TxnId, Decision>>{
                {1, Decision::kCommit},
                {1, Decision::kCommit},
                {3, Decision::kCommit},
                {4, Decision::kAbort}}));
}

TEST(RecoveryScanTest, EmptyWalHasNoInFlight) {
  MemoryWal wal;
  const RecoveryPlan plan = RecoveryManager::Plan(wal.Scan(), 0);
  EXPECT_TRUE(plan.in_flight.empty());
  EXPECT_TRUE(plan.decisions.empty());
  EXPECT_EQ(plan.max_own_seq, 0u);
}

TEST(RecoveryScanTest, AnalyzeUsesLastEntry) {
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kReady, {}});
  const RecoveryPlan ready = RecoveryManager::Plan(wal.Scan(), 0);
  ASSERT_EQ(InFlightIds(ready), (std::vector<TxnId>{7}));
  EXPECT_EQ(ready.in_flight[0].action, RecoveryAction::kConsultPeers);
  wal.Append({0, 7, LogRecordType::kCommitReceived, {}});
  const RecoveryPlan received = RecoveryManager::Plan(wal.Scan(), 0);
  ASSERT_EQ(InFlightIds(received), (std::vector<TxnId>{7}));
  EXPECT_EQ(received.in_flight[0].action, RecoveryAction::kCommit);
  EXPECT_EQ(FindInFlight(received, 99), nullptr);  // never logged
}

TEST(RecoveryScanTest, LastMilestoneSkipsSnapshots) {
  MemoryWal wal;
  const CowVector<NodeId> quorum =
      PackQuorumState(MakeQuorumEpoch(1, 2), kInitialAttemptEpoch, false);
  const CowVector<NodeId> paxos = PackPaxosState(0, {});
  wal.Append({0, 7, LogRecordType::kReady, {0, 1, 2}});
  wal.Append({0, 7, LogRecordType::kQuorumState, quorum});
  wal.Append({0, 7, LogRecordType::kPaxosState, paxos});

  // The last entry is a snapshot; the analysis sees through it to READY
  // and hands the snapshots over for reseeding.
  const RecoveryPlan plan = RecoveryManager::Plan(wal.Scan(), 0);
  ASSERT_EQ(plan.in_flight.size(), 1u);
  const InFlightTxn& t = plan.in_flight[0];
  EXPECT_TRUE(t.has_milestone);
  EXPECT_EQ(t.action, RecoveryAction::kConsultPeers);
  EXPECT_EQ(t.resume_state, CohortState::kReady);
  EXPECT_EQ(t.participants, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(t.quorum_state, quorum);
  EXPECT_EQ(t.paxos_state, paxos);
}

TEST(RecoveryScanTest, LastMilestoneNulloptForAcceptorOnly) {
  // A Paxos acceptor that never hosted the RM role has only snapshot
  // records: no milestone means no local fragment to resolve.
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kPaxosState,
              PackPaxosState(MakeQuorumEpoch(2, 1), {})});
  const RecoveryPlan alone = RecoveryManager::Plan(wal.Scan(), 0);
  ASSERT_EQ(alone.in_flight.size(), 1u);
  EXPECT_FALSE(alone.in_flight[0].has_milestone);
  // Other transactions' milestones do not bleed in.
  wal.Append({0, 8, LogRecordType::kReady, {}});
  const RecoveryPlan plan = RecoveryManager::Plan(wal.Scan(), 0);
  ASSERT_NE(FindInFlight(plan, 7), nullptr);
  ASSERT_NE(FindInFlight(plan, 8), nullptr);
  EXPECT_FALSE(FindInFlight(plan, 7)->has_milestone);
  EXPECT_TRUE(FindInFlight(plan, 8)->has_milestone);
}

TEST(RecoveryScanTest, SnapshotOnlyTxnIsInFlight) {
  // Acceptor-only participation keeps the transaction in the recovery
  // set: the acceptor must be reseeded or a later ballot could double-
  // commit (acceptor amnesia).
  MemoryWal wal;
  wal.Append({0, 7, LogRecordType::kPaxosState, PackPaxosState(0, {})});
  EXPECT_EQ(InFlightIds(RecoveryManager::Plan(wal.Scan(), 0)),
            (std::vector<TxnId>{7}));
}

TEST(RecoveryScanTest, OwnSequenceCountsOnlySelfCoordinated) {
  MemoryWal wal;
  wal.Append({0, MakeTxnId(1, 40), LogRecordType::kReady, {}});
  wal.Append({0, MakeTxnId(2, 9), LogRecordType::kBeginCommit, {}});
  wal.Append({0, MakeTxnId(2, 5), LogRecordType::kBeginCommit, {}});
  EXPECT_EQ(RecoveryManager::Plan(wal.Scan(), 2).max_own_seq, 9u);
  EXPECT_EQ(RecoveryManager::Plan(wal.Scan(), 3).max_own_seq, 0u);
}

// --------------------------------------------------------------------------
// Differential check: the fold against the per-transaction rescans it
// replaced (an in-flight scan, then per transaction the last milestone,
// the participant fallback and the last snapshot of each kind).
// --------------------------------------------------------------------------

bool IsSnapshot(LogRecordType type) {
  return type == LogRecordType::kQuorumState ||
         type == LogRecordType::kPaxosState;
}

std::vector<TxnId> ReferenceInFlight(const std::vector<LogRecord>& log) {
  std::unordered_map<TxnId, LogRecordType> last;
  for (const LogRecord& r : log) last[r.txn] = r.type;
  std::vector<TxnId> in_flight;
  for (const auto& [txn, type] : last) {
    if (type != LogRecordType::kTransactionCommit &&
        type != LogRecordType::kTransactionAbort) {
      in_flight.push_back(txn);
    }
  }
  return in_flight;
}

std::optional<LogRecord> ReferenceLastMilestone(
    const std::vector<LogRecord>& log, TxnId txn) {
  std::optional<LogRecord> last;
  for (const LogRecord& r : log) {
    if (r.txn == txn && !IsSnapshot(r.type)) last = r;
  }
  return last;
}

CowVector<NodeId> ReferenceParticipants(const std::vector<LogRecord>& log,
                                        const LogRecord& milestone) {
  if (!milestone.participants.empty()) return milestone.participants;
  for (const LogRecord& r : log) {
    if (r.txn == milestone.txn && !r.participants.empty() &&
        (r.type == LogRecordType::kBeginCommit ||
         r.type == LogRecordType::kReady)) {
      return r.participants;
    }
  }
  return {};
}

CowVector<NodeId> ReferenceLastSnapshot(const std::vector<LogRecord>& log,
                                        TxnId txn, LogRecordType type) {
  CowVector<NodeId> last;
  for (const LogRecord& r : log) {
    if (r.txn == txn && r.type == type) last = r.participants;
  }
  return last;
}

std::vector<std::pair<TxnId, Decision>> ReferenceDecisions(
    const std::vector<LogRecord>& log) {
  std::vector<std::pair<TxnId, Decision>> out;
  for (const LogRecord& r : log) {
    switch (r.type) {
      case LogRecordType::kCommitDecision:
      case LogRecordType::kCommitReceived:
      case LogRecordType::kTransactionCommit:
        out.emplace_back(r.txn, Decision::kCommit);
        break;
      case LogRecordType::kAbortDecision:
      case LogRecordType::kAbortReceived:
      case LogRecordType::kTransactionAbort:
        out.emplace_back(r.txn, Decision::kAbort);
        break;
      default:
        break;
    }
  }
  return out;
}

CowVector<NodeId> RandomList(Rng& rng) {
  CowVector<NodeId> list;
  const uint64_t n = rng.NextBounded(5);  // 0: an empty list
  for (uint64_t i = 0; i < n; ++i) {
    list.push_back(static_cast<NodeId>(rng.NextBounded(8)));
  }
  return list;
}

// A seeded random log of `size` records over a small transaction pool: all
// twelve record types, lists present or empty, snapshot-only transactions
// (the upper quarter of the pool logs snapshots only), and decisions with
// no terminal entry after them.
std::vector<LogRecord> RandomLog(uint64_t seed, size_t size) {
  Rng rng(seed);
  constexpr uint64_t kPool = 24;
  MemoryWal wal;
  for (size_t i = 0; i < size; ++i) {
    const uint64_t k = rng.NextBounded(kPool);
    const TxnId txn = MakeTxnId(static_cast<NodeId>(k % 4), 1 + k / 4);
    LogRecordType type = static_cast<LogRecordType>(rng.NextBounded(12));
    if (k >= kPool * 3 / 4 && !IsSnapshot(type)) {
      type = rng.NextBounded(2) == 0 ? LogRecordType::kQuorumState
                                     : LogRecordType::kPaxosState;
    }
    CowVector<NodeId> payload = RandomList(rng);
    if (type == LogRecordType::kQuorumState) {
      payload = PackQuorumState(MakeQuorumEpoch(rng.NextBounded(9), 1),
                                MakeQuorumEpoch(rng.NextBounded(9), 2),
                                rng.NextBounded(2) == 0);
    } else if (type == LogRecordType::kPaxosState) {
      payload = PackPaxosState(MakeQuorumEpoch(rng.NextBounded(9), 3), {});
    }
    wal.Append({0, txn, type, payload});
  }
  return wal.Scan();
}

TEST(RecoveryScanTest, OnePassMatchesPerTxnRescans) {
  size_t acceptor_only = 0, fallbacks = 0, undecided_aborts = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const std::vector<LogRecord> log = RandomLog(seed, 300);
    const NodeId self = static_cast<NodeId>(seed % 4);
    const RecoveryPlan plan = RecoveryManager::Plan(log, self);
    SCOPED_TRACE(seed);

    // Same transactions, in the same order: recovery acts in this order.
    ASSERT_EQ(InFlightIds(plan), ReferenceInFlight(log));
    for (const InFlightTxn& t : plan.in_flight) {
      const auto milestone = ReferenceLastMilestone(log, t.txn);
      ASSERT_EQ(t.has_milestone, milestone.has_value());
      EXPECT_EQ(t.quorum_state,
                ReferenceLastSnapshot(log, t.txn, LogRecordType::kQuorumState));
      EXPECT_EQ(t.paxos_state,
                ReferenceLastSnapshot(log, t.txn, LogRecordType::kPaxosState));
      if (!milestone.has_value()) {
        acceptor_only++;
        continue;
      }
      EXPECT_EQ(t.action, RecoveryManager::AnalyzeRecord(milestone->type));
      CohortState state = CohortState::kReady;
      if (milestone->type == LogRecordType::kPreCommit) {
        state = CohortState::kPreCommit;
      } else if (milestone->type == LogRecordType::kPreAbort) {
        state = CohortState::kPreAbort;
      }
      EXPECT_EQ(t.resume_state, state);
      EXPECT_EQ(t.participants, ReferenceParticipants(log, *milestone));
      if (milestone->participants.empty() && !t.participants.empty()) {
        fallbacks++;
      }
      if (milestone->type == LogRecordType::kAbortReceived) {
        undecided_aborts++;
      }
    }

    EXPECT_EQ(plan.decisions, ReferenceDecisions(log));
    uint64_t max_own = 0;
    for (const LogRecord& r : log) {
      if (TxnCoordinator(r.txn) == self) {
        max_own = std::max(max_own, TxnSequence(r.txn));
      }
    }
    EXPECT_EQ(plan.max_own_seq, max_own);
  }
  // The generator reached every case the fold special-cases.
  EXPECT_GT(acceptor_only, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(undecided_aborts, 0u);
}

TEST(QuorumCodecTest, QuorumStateRoundTrips) {
  const QuorumEpoch le = MakeQuorumEpoch(3, 2);
  const QuorumEpoch la = MakeQuorumEpoch(2, 1);
  const CowVector<NodeId> payload = PackQuorumState(le, la, true);

  QuorumEpoch le2 = 0, la2 = 0;
  bool pre_abort = false;
  ASSERT_TRUE(UnpackQuorumState(payload, &le2, &la2, &pre_abort));
  EXPECT_EQ(le2, le);
  EXPECT_EQ(la2, la);
  EXPECT_TRUE(pre_abort);
}

TEST(QuorumCodecTest, PaxosStateRoundTrips) {
  std::vector<PaxosAccepted> accepted = {
      {2, MakeQuorumEpoch(1, 0), Decision::kCommit},
      {3, kInitialAttemptEpoch, Decision::kAbort},
  };
  const CowVector<NodeId> payload =
      PackPaxosState(MakeQuorumEpoch(4, 3), accepted);

  QuorumEpoch promised = 0;
  std::vector<PaxosAccepted> out;
  ASSERT_TRUE(UnpackPaxosState(payload, &promised, &out));
  EXPECT_EQ(promised, MakeQuorumEpoch(4, 3));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].instance, 2u);
  EXPECT_EQ(out[0].ballot, MakeQuorumEpoch(1, 0));
  EXPECT_EQ(out[0].value, Decision::kCommit);
  EXPECT_EQ(out[1].instance, 3u);
  EXPECT_EQ(out[1].value, Decision::kAbort);
}

TEST(QuorumCodecTest, TruncatedPayloadsAreRejected) {
  // A malformed/truncated snapshot must fail the unpack, not crash
  // recovery or hand back garbage epochs.
  QuorumEpoch le = 0, la = 0;
  bool flag = false;
  EXPECT_FALSE(UnpackQuorumState(CowVector<NodeId>{}, &le, &la, &flag));
  CowVector<NodeId> truncated = PackQuorumState(1, 1, false);
  truncated.pop_back();
  EXPECT_FALSE(UnpackQuorumState(truncated, &le, &la, &flag));

  QuorumEpoch promised = 0;
  std::vector<PaxosAccepted> accepted;
  EXPECT_FALSE(UnpackPaxosState(CowVector<NodeId>{}, &promised, &accepted));
  CowVector<NodeId> bad =
      PackPaxosState(1, {{2, 1, Decision::kCommit}});
  bad.pop_back();
  EXPECT_FALSE(UnpackPaxosState(bad, &promised, &accepted));
}

TEST(QuorumCodecTest, EpochEncodingOrdersAndUnpacks) {
  // (round << 16) | node: rounds dominate, node ids break ties, and both
  // halves survive the trip.
  const QuorumEpoch a = MakeQuorumEpoch(1, 9);
  const QuorumEpoch b = MakeQuorumEpoch(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(kInitialAttemptEpoch, a);
  EXPECT_EQ(QuorumEpochRound(b), 2u);
  EXPECT_EQ(QuorumEpochNode(a), 9u);
  EXPECT_EQ(QuorumSize(3), 2u);
  EXPECT_EQ(QuorumSize(4), 3u);
  EXPECT_EQ(QuorumSize(5), 3u);
}

}  // namespace
}  // namespace ecdb
