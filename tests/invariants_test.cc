// Tests for the Figure 7 coexistence matrix and the safety monitor.

#include "commit/invariants.h"

#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

TEST(ClassOfTest, MapsStatesToFigure6Classes) {
  EXPECT_EQ(ClassOf(CohortState::kInitial), StateClass::kUndecided);
  EXPECT_EQ(ClassOf(CohortState::kReady), StateClass::kUndecided);
  EXPECT_EQ(ClassOf(CohortState::kWait), StateClass::kUndecided);
  EXPECT_EQ(ClassOf(CohortState::kTransmitA), StateClass::kTransmitA);
  EXPECT_EQ(ClassOf(CohortState::kTransmitC), StateClass::kTransmitC);
  EXPECT_EQ(ClassOf(CohortState::kAborted), StateClass::kAbort);
  EXPECT_EQ(ClassOf(CohortState::kCommitted), StateClass::kCommit);
}

TEST(CoexistenceTest, MatchesFigure7Matrix) {
  using S = StateClass;
  // Row-by-row transcription of Figure 7.
  const S u = S::kUndecided, ta = S::kTransmitA, tc = S::kTransmitC,
          a = S::kAbort, c = S::kCommit;
  // UNDECIDED row: Y Y Y N N
  EXPECT_TRUE(CanCoexist(u, u));
  EXPECT_TRUE(CanCoexist(u, ta));
  EXPECT_TRUE(CanCoexist(u, tc));
  EXPECT_FALSE(CanCoexist(u, a));
  EXPECT_FALSE(CanCoexist(u, c));
  // T-A row: Y Y N Y N
  EXPECT_TRUE(CanCoexist(ta, u));
  EXPECT_TRUE(CanCoexist(ta, ta));
  EXPECT_FALSE(CanCoexist(ta, tc));
  EXPECT_TRUE(CanCoexist(ta, a));
  EXPECT_FALSE(CanCoexist(ta, c));
  // T-C row: Y N Y N Y
  EXPECT_TRUE(CanCoexist(tc, u));
  EXPECT_FALSE(CanCoexist(tc, ta));
  EXPECT_TRUE(CanCoexist(tc, tc));
  EXPECT_FALSE(CanCoexist(tc, a));
  EXPECT_TRUE(CanCoexist(tc, c));
  // ABORT row: N Y N Y N
  EXPECT_FALSE(CanCoexist(a, u));
  EXPECT_TRUE(CanCoexist(a, ta));
  EXPECT_FALSE(CanCoexist(a, tc));
  EXPECT_TRUE(CanCoexist(a, a));
  EXPECT_FALSE(CanCoexist(a, c));
  // COMMIT row: N N Y N Y
  EXPECT_FALSE(CanCoexist(c, u));
  EXPECT_FALSE(CanCoexist(c, ta));
  EXPECT_TRUE(CanCoexist(c, tc));
  EXPECT_FALSE(CanCoexist(c, a));
  EXPECT_TRUE(CanCoexist(c, c));
}

TEST(CoexistenceTest, MatrixIsSymmetric) {
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      EXPECT_EQ(
          CanCoexist(static_cast<StateClass>(a), static_cast<StateClass>(b)),
          CanCoexist(static_cast<StateClass>(b), static_cast<StateClass>(a)))
          << a << " vs " << b;
    }
  }
}

TEST(CoexistenceTest, CommitAbortNeverCoexist) {
  EXPECT_FALSE(CanCoexist(StateClass::kCommit, StateClass::kAbort));
}

TEST(SafetyMonitorTest, ConsistentDecisionsAreClean) {
  SafetyMonitor monitor;
  monitor.RecordApplied(1, 0, Decision::kCommit);
  monitor.RecordApplied(1, 1, Decision::kCommit);
  monitor.RecordApplied(2, 0, Decision::kAbort);
  EXPECT_TRUE(monitor.Violations().empty());
}

TEST(SafetyMonitorTest, ConflictIsDetected) {
  SafetyMonitor monitor;
  monitor.RecordApplied(1, 0, Decision::kCommit);
  monitor.RecordApplied(1, 1, Decision::kAbort);
  const auto violations = monitor.Violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], 1u);
}

TEST(SafetyMonitorTest, ConflictAcrossTxnsIsNotAConflict) {
  SafetyMonitor monitor;
  monitor.RecordApplied(1, 0, Decision::kCommit);
  monitor.RecordApplied(2, 0, Decision::kAbort);
  EXPECT_TRUE(monitor.Violations().empty());
}

TEST(SafetyMonitorTest, DecisionLookup) {
  SafetyMonitor monitor;
  monitor.RecordApplied(1, 3, Decision::kCommit);
  EXPECT_EQ(monitor.DecisionOf(1, 3), Decision::kCommit);
  EXPECT_FALSE(monitor.DecisionOf(1, 4).has_value());
  EXPECT_FALSE(monitor.DecisionOf(9, 3).has_value());
  EXPECT_EQ(monitor.AppliedFor(1).size(), 1u);
  EXPECT_TRUE(monitor.AppliedFor(9).empty());
}

TEST(SafetyMonitorTest, ConflictBeyondInlineAppliersIsDetected) {
  // An n=8 all-partition transaction has more appliers than fit inline;
  // the spilled appliers must still be compared with every other one.
  SafetyMonitor monitor;
  for (NodeId node = 0; node < 7; ++node) {
    monitor.RecordApplied(1, node, Decision::kCommit);
  }
  EXPECT_TRUE(monitor.Violations().empty());
  monitor.RecordApplied(1, 7, Decision::kAbort);
  EXPECT_EQ(monitor.Violations(), std::vector<TxnId>{1});
  EXPECT_EQ(monitor.AppliedFor(1).size(), 8u);
  EXPECT_EQ(monitor.DecisionOf(1, 6), Decision::kCommit);
  EXPECT_EQ(monitor.DecisionOf(1, 7), Decision::kAbort);
}

TEST(SafetyMonitorTest, ConcurrentAppliersOnSharedStripes) {
  // Four node threads apply decisions for the same transactions at once,
  // as the threaded runtime does; 512 transactions share 16 stripes, and
  // eight appliers per transaction spill past the inline slots. Thread 3
  // aborts every fifth transaction that the others commit.
  constexpr TxnId kTxns = 512;
  SafetyMonitor monitor;
  std::vector<std::thread> threads;
  for (NodeId t = 0; t < 4; ++t) {
    threads.emplace_back([&monitor, t] {
      for (TxnId txn = 0; txn < kTxns; ++txn) {
        for (NodeId node : {t, t + 4}) {
          const bool dissent = t == 3 && txn % 5 == 0;
          monitor.RecordApplied(
              txn, node, dissent ? Decision::kAbort : Decision::kCommit);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<TxnId> violations = monitor.Violations();
  std::sort(violations.begin(), violations.end());
  std::vector<TxnId> expected;
  for (TxnId txn = 0; txn < kTxns; txn += 5) expected.push_back(txn);
  EXPECT_EQ(violations, expected);
  for (TxnId txn = 0; txn < kTxns; ++txn) {
    ASSERT_EQ(monitor.AppliedFor(txn).size(), 8u) << txn;
  }
}

TEST(SafetyMonitorTest, BlockedAccounting) {
  SafetyMonitor monitor;
  monitor.RecordBlocked(1, 0);
  monitor.RecordBlocked(1, 1);
  monitor.RecordBlocked(2, 0);
  EXPECT_EQ(monitor.blocked_reports(), 3u);
  EXPECT_EQ(monitor.BlockedTxnCount(), 2u);
}

}  // namespace
}  // namespace ecdb
