// Tests for the Figure 7 coexistence matrix and the safety monitor.

#include "commit/invariants.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ecdb {

/// Reaches the monitor's locks, to pin which of them the record path takes.
class SafetyMonitorTestPeer {
 public:
  static std::mutex& LogLock(SafetyMonitor& monitor, NodeId node) {
    return monitor.LogOf(node).mu;
  }
  static std::mutex& IndexLock(SafetyMonitor& monitor) {
    return monitor.index_mu_;
  }
};

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
  // as the threaded runtime does, and eight appliers per transaction spill
  // past the index's inline slots. Thread 3 aborts every fifth transaction
  // that the others commit.
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

TEST(SafetyMonitorTest, RecordPathTakesOnlyItsOwnNodesLock) {
  // With the readers' index lock and node 0's log lock held, every other
  // node (across several directory chunks) still records; node 0 waits
  // for its own lock.
  constexpr NodeId kNodes = 130;
  SafetyMonitor monitor;
  std::unique_lock<std::mutex> index(SafetyMonitorTestPeer::IndexLock(monitor));
  std::unique_lock<std::mutex> held(
      SafetyMonitorTestPeer::LogLock(monitor, 0));
  std::atomic<bool> others_done{false};
  std::thread others([&] {
    for (NodeId node = 1; node < kNodes; ++node) {
      monitor.RecordApplied(7, node, Decision::kCommit);
      monitor.RecordBlocked(8, node);
    }
    others_done = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!others_done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(others_done.load()) << "a record waited on another node's lock";

  std::atomic<bool> zero_done{false};
  std::thread zero([&] {
    monitor.RecordApplied(7, 0, Decision::kCommit);
    zero_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(zero_done.load());  // node 0's record does take its lock
  held.unlock();
  index.unlock();
  others.join();
  zero.join();
  EXPECT_EQ(monitor.AppliedFor(7).size(), kNodes);
  EXPECT_EQ(monitor.blocked_reports(), kNodes - 1);
  EXPECT_TRUE(monitor.Violations().empty());
}

// Eight nodes, two per writer thread, record into their own logs while a
// reader polls Violations(), as an audit polls a running cluster.
//  - txns [0, 512): every node commits, except that node 7 aborts every
//    fifth one (a cross-node conflict);
//  - txns [512, 640): only node txn % 8 records, and it changes its mind:
//    commit then abort for even txns, abort then commit for odd ones.
struct ConcurrentRun {
  std::unique_ptr<SafetyMonitor> monitor = std::make_unique<SafetyMonitor>();
  std::set<TxnId> expected;      // every violation the records hold
  std::set<TxnId> polled;        // violations the reader saw mid-run
  bool reader_saw_extra = false;  // a poll reported a clean txn
};

constexpr TxnId kSharedTxns = 512;
constexpr TxnId kChangedTxns = 128;

ConcurrentRun RunConcurrentNodeLogs() {
  ConcurrentRun run;
  for (TxnId txn = 0; txn < kSharedTxns; txn += 5) run.expected.insert(txn);
  for (TxnId txn = kSharedTxns; txn < kSharedTxns + kChangedTxns; ++txn) {
    run.expected.insert(txn);
  }
  SafetyMonitor& monitor = *run.monitor;
  std::atomic<int> writers_left{4};
  std::vector<std::thread> writers;
  for (NodeId t = 0; t < 4; ++t) {
    writers.emplace_back([&monitor, &writers_left, t] {
      for (TxnId txn = 0; txn < kSharedTxns; ++txn) {
        for (NodeId node : {t, t + 4}) {
          const bool dissent = node == 7 && txn % 5 == 0;
          monitor.RecordApplied(
              txn, node, dissent ? Decision::kAbort : Decision::kCommit);
        }
      }
      for (TxnId txn = kSharedTxns; txn < kSharedTxns + kChangedTxns; ++txn) {
        const NodeId node = static_cast<NodeId>(txn % 8);
        if (node != t && node != t + 4) continue;
        const bool even = txn % 2 == 0;
        monitor.RecordApplied(txn, node,
                              even ? Decision::kCommit : Decision::kAbort);
        monitor.RecordApplied(txn, node,
                              even ? Decision::kAbort : Decision::kCommit);
      }
      writers_left--;
    });
  }
  std::thread reader([&run, &monitor, &writers_left] {
    do {
      for (TxnId txn : monitor.Violations()) {
        run.polled.insert(txn);
        if (run.expected.count(txn) == 0) run.reader_saw_extra = true;
      }
    } while (writers_left > 0);
  });
  for (std::thread& w : writers) w.join();
  reader.join();
  return run;
}

TEST(SafetyMonitorTest, ConcurrentNodeLogsFindCrossNodeConflicts) {
  const ConcurrentRun run = RunConcurrentNodeLogs();
  EXPECT_FALSE(run.reader_saw_extra);
  const std::vector<TxnId> violations = run.monitor->Violations();
  const std::set<TxnId> found(violations.begin(), violations.end());
  EXPECT_EQ(found.size(), violations.size());  // each txn reported once
  for (TxnId txn = 0; txn < kSharedTxns; ++txn) {
    EXPECT_EQ(found.count(txn), txn % 5 == 0 ? 1u : 0u) << txn;
    ASSERT_EQ(run.monitor->AppliedFor(txn).size(), 8u) << txn;
  }
}

TEST(SafetyMonitorTest, ConcurrentNodeLogsFlagANodeThatChangesItsDecision) {
  const ConcurrentRun run = RunConcurrentNodeLogs();
  EXPECT_FALSE(run.reader_saw_extra);
  const std::vector<TxnId> violations = run.monitor->Violations();
  const std::set<TxnId> found(violations.begin(), violations.end());
  EXPECT_EQ(found, run.expected);
  for (TxnId txn = kSharedTxns; txn < kSharedTxns + kChangedTxns; ++txn) {
    EXPECT_EQ(run.monitor->AppliedFor(txn).size(), 1u) << txn;
  }
}

TEST(SafetyMonitorTest, ConcurrentNodeLogsDecisionOfIsTheNodesLastRecord) {
  const ConcurrentRun run = RunConcurrentNodeLogs();
  const SafetyMonitor& monitor = *run.monitor;
  for (TxnId txn = 0; txn < kSharedTxns; txn += 5) {
    EXPECT_EQ(monitor.DecisionOf(txn, 7), Decision::kAbort) << txn;
    EXPECT_EQ(monitor.DecisionOf(txn, 3), Decision::kCommit) << txn;
  }
  for (TxnId txn = kSharedTxns; txn < kSharedTxns + kChangedTxns; ++txn) {
    const NodeId node = static_cast<NodeId>(txn % 8);
    EXPECT_EQ(monitor.DecisionOf(txn, node),
              txn % 2 == 0 ? Decision::kAbort : Decision::kCommit)
        << txn;
    EXPECT_FALSE(monitor.DecisionOf(txn, (node + 1) % 8).has_value());
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
