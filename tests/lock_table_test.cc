// Unit and property tests for the record lock table (NO_WAIT / WAIT_DIE).

#include "cc/lock_table.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ecdb {
namespace {

constexpr TableId kTable = 0;

TEST(NoWaitTest, SharedLocksCoexist) {
  LockTable lt(CcPolicy::kNoWait);
  EXPECT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(2, 2, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.HeldCount(1), 1u);
  EXPECT_EQ(lt.HeldCount(2), 1u);
}

TEST(NoWaitTest, ExclusiveConflictsWithShared) {
  LockTable lt(CcPolicy::kNoWait);
  ASSERT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(2, 2, kTable, 10, LockMode::kExclusive),
            AcquireResult::kAbort);
  EXPECT_EQ(lt.conflict_aborts(), 1u);
}

TEST(NoWaitTest, SharedConflictsWithExclusive) {
  LockTable lt(CcPolicy::kNoWait);
  ASSERT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(2, 2, kTable, 10, LockMode::kShared),
            AcquireResult::kAbort);
}

TEST(NoWaitTest, DistinctKeysDoNotConflict) {
  LockTable lt(CcPolicy::kNoWait);
  EXPECT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(2, 2, kTable, 11, LockMode::kExclusive),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(2, 2, 1, 10, LockMode::kExclusive),
            AcquireResult::kGranted);  // same key, different table
}

TEST(NoWaitTest, ReacquireIsIdempotent) {
  LockTable lt(CcPolicy::kNoWait);
  ASSERT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.HeldCount(1), 1u);
}

TEST(NoWaitTest, SoleHolderUpgrades) {
  LockTable lt(CcPolicy::kNoWait);
  ASSERT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  // Now exclusive: another shared must conflict.
  EXPECT_EQ(lt.Acquire(2, 2, kTable, 10, LockMode::kShared),
            AcquireResult::kAbort);
}

TEST(NoWaitTest, UpgradeWithOtherSharedHoldersAborts) {
  LockTable lt(CcPolicy::kNoWait);
  ASSERT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  ASSERT_EQ(lt.Acquire(2, 2, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive),
            AcquireResult::kAbort);
}

TEST(NoWaitTest, ReleaseAllFreesEverything) {
  LockTable lt(CcPolicy::kNoWait);
  ASSERT_EQ(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  ASSERT_EQ(lt.Acquire(1, 1, kTable, 11, LockMode::kShared),
            AcquireResult::kGranted);
  lt.ReleaseAll(1);
  EXPECT_EQ(lt.HeldCount(1), 0u);
  EXPECT_EQ(lt.ActiveEntries(), 0u);
  EXPECT_EQ(lt.Acquire(2, 2, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
}

TEST(NoWaitTest, ManySharedHoldersSpillAndRelease) {
  // Holders beyond the two kept inline spill to the heap; the spill must
  // keep every holder visible to conflict checks, upgrades and release.
  LockTable lt(CcPolicy::kNoWait);
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_EQ(lt.Acquire(t, t, kTable, 10, LockMode::kShared),
              AcquireResult::kGranted);
  }
  EXPECT_EQ(lt.Acquire(6, 6, kTable, 10, LockMode::kExclusive),
            AcquireResult::kAbort);
  EXPECT_EQ(lt.Acquire(3, 3, kTable, 10, LockMode::kExclusive),
            AcquireResult::kAbort);  // upgrade blocked by four sharers
  EXPECT_EQ(lt.Acquire(5, 5, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);  // re-acquire found past the inline two
  for (TxnId t : {1, 2, 4, 5}) {
    lt.ReleaseAll(t);
    EXPECT_EQ(lt.HeldCount(t), 0u);
  }
  EXPECT_EQ(lt.HeldCount(3), 1u);
  EXPECT_EQ(lt.ActiveEntries(), 1u);
  // Now the sole holder, txn 3 upgrades; everyone else conflicts.
  EXPECT_EQ(lt.Acquire(3, 3, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(7, 7, kTable, 10, LockMode::kShared),
            AcquireResult::kAbort);
  lt.ReleaseAll(3);
  EXPECT_EQ(lt.ActiveEntries(), 0u);
  EXPECT_EQ(lt.Acquire(8, 8, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
}

TEST(NoWaitTest, ReleaseUnknownTxnIsNoop) {
  LockTable lt(CcPolicy::kNoWait);
  lt.ReleaseAll(42);  // must not crash
  EXPECT_EQ(lt.ActiveEntries(), 0u);
}

// ---------------------------------------------------------------------------
// WAIT_DIE
// ---------------------------------------------------------------------------

TEST(WaitDieTest, OlderRequesterWaits) {
  LockTable lt(CcPolicy::kWaitDie);
  ASSERT_EQ(lt.Acquire(2, /*ts=*/20, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  bool granted = false;
  // ts=10 < 20: older, so it waits.
  EXPECT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kExclusive,
                       [&] { granted = true; }),
            AcquireResult::kWaiting);
  EXPECT_FALSE(granted);
  lt.ReleaseAll(2);
  EXPECT_TRUE(granted);
  EXPECT_EQ(lt.HeldCount(1), 1u);
}

TEST(WaitDieTest, YoungerRequesterDies) {
  LockTable lt(CcPolicy::kWaitDie);
  ASSERT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  EXPECT_EQ(lt.Acquire(2, 20, kTable, 10, LockMode::kExclusive),
            AcquireResult::kAbort);
  EXPECT_EQ(lt.conflict_aborts(), 1u);
}

TEST(WaitDieTest, QueuedSharedRequestsGrantTogether) {
  LockTable lt(CcPolicy::kWaitDie);
  ASSERT_EQ(lt.Acquire(9, 90, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  int granted = 0;
  EXPECT_EQ(lt.Acquire(1, 20, kTable, 10, LockMode::kShared,
                       [&] { granted++; }),
            AcquireResult::kWaiting);
  // Each later waiter is older than its predecessors (wait edges old->young).
  EXPECT_EQ(lt.Acquire(2, 10, kTable, 10, LockMode::kShared,
                       [&] { granted++; }),
            AcquireResult::kWaiting);
  lt.ReleaseAll(9);
  EXPECT_EQ(granted, 2);
}

TEST(WaitDieTest, CompatibleRequestQueuesBehindOlderWaiters) {
  // A shared request compatible with the holders still queues behind a
  // waiting exclusive — but only if it is older than that waiter; queueing
  // would otherwise create a young->old wait edge.
  LockTable lt(CcPolicy::kWaitDie);
  ASSERT_EQ(lt.Acquire(5, 50, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  bool x_granted = false;
  ASSERT_EQ(lt.Acquire(2, 20, kTable, 10, LockMode::kExclusive,
                       [&] { x_granted = true; }),
            AcquireResult::kWaiting);
  bool s_granted = false;
  EXPECT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kShared,
                       [&] { s_granted = true; }),
            AcquireResult::kWaiting);
  lt.ReleaseAll(5);
  EXPECT_TRUE(x_granted);
  EXPECT_FALSE(s_granted);  // behind the exclusive
  lt.ReleaseAll(2);
  EXPECT_TRUE(s_granted);
}

TEST(WaitDieTest, YoungerCompatibleRequestDiesBehindWaiters) {
  LockTable lt(CcPolicy::kWaitDie);
  ASSERT_EQ(lt.Acquire(5, 50, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  ASSERT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kExclusive, [] {}),
            AcquireResult::kWaiting);
  // ts 20 > 10: queueing behind the exclusive would invert the age order.
  EXPECT_EQ(lt.Acquire(2, 20, kTable, 10, LockMode::kShared),
            AcquireResult::kAbort);
}

TEST(WaitDieTest, AbortedWaiterIsRemovedFromQueue) {
  LockTable lt(CcPolicy::kWaitDie);
  ASSERT_EQ(lt.Acquire(9, 90, kTable, 10, LockMode::kExclusive),
            AcquireResult::kGranted);
  bool granted = false;
  ASSERT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kExclusive,
                       [&] { granted = true; }),
            AcquireResult::kWaiting);
  lt.ReleaseAll(1);  // the waiter aborts before the grant
  lt.ReleaseAll(9);
  EXPECT_FALSE(granted);
  EXPECT_EQ(lt.ActiveEntries(), 0u);
}

TEST(WaitDieTest, QueuedUpgradeGrantsWhenOtherSharersLeave) {
  // Regression: a waiting shared->exclusive upgrade must not be blocked by
  // the requester's own shared holder entry.
  LockTable lt(CcPolicy::kWaitDie);
  ASSERT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  ASSERT_EQ(lt.Acquire(2, 20, kTable, 10, LockMode::kShared),
            AcquireResult::kGranted);
  bool granted = false;
  ASSERT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kExclusive,
                       [&] { granted = true; }),
            AcquireResult::kWaiting);
  lt.ReleaseAll(2);
  EXPECT_TRUE(granted);
  EXPECT_EQ(lt.HeldCount(1), 1u);
  // The upgrade must be effective: another shared request conflicts.
  EXPECT_EQ(lt.Acquire(3, 30, kTable, 10, LockMode::kShared),
            AcquireResult::kAbort);
}

TEST(WaitDieTest, ManySharedHoldersSpillAndRelease) {
  LockTable lt(CcPolicy::kWaitDie);
  for (TxnId t = 3; t <= 6; ++t) {
    ASSERT_EQ(lt.Acquire(t, 10 * t, kTable, 10, LockMode::kShared),
              AcquireResult::kGranted);
  }
  // Txn 5's upgrade conflicts with older sharer 3 (ts 30 < 50): it dies.
  EXPECT_EQ(lt.Acquire(5, 50, kTable, 10, LockMode::kExclusive),
            AcquireResult::kAbort);
  // Older than every holder, txn 1's exclusive request waits.
  bool granted = false;
  ASSERT_EQ(lt.Acquire(1, 10, kTable, 10, LockMode::kExclusive,
                       [&] { granted = true; }),
            AcquireResult::kWaiting);
  for (TxnId t : {6, 3, 5}) {
    lt.ReleaseAll(t);
    EXPECT_FALSE(granted) << "granted while txn 4 still shares";
  }
  lt.ReleaseAll(4);
  EXPECT_TRUE(granted);
  EXPECT_EQ(lt.HeldCount(1), 1u);
  EXPECT_EQ(lt.Acquire(2, 20, kTable, 10, LockMode::kShared),
            AcquireResult::kAbort);
  lt.ReleaseAll(1);
  EXPECT_EQ(lt.ActiveEntries(), 0u);
}

// Property: under WAIT_DIE a waits-for edge always points from an older
// transaction to a younger holder, so randomized workloads can never
// deadlock — every request eventually resolves to granted or aborted.
TEST(WaitDiePropertyTest, RandomizedAcquisitionsAlwaysResolve) {
  Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    LockTable lt(CcPolicy::kWaitDie);
    constexpr int kTxns = 16;
    struct TxnState {
      bool waiting = false;
      bool dead = false;
    };
    std::vector<TxnState> txns(kTxns);
    int resolved = 0;

    for (int step = 0; step < 400; ++step) {
      const TxnId txn = rng.NextBounded(kTxns);
      TxnState& t = txns[txn];
      // A real transaction issues one request at a time and none after it
      // finished.
      if (t.dead || t.waiting) continue;
      const Key key = rng.NextBounded(8);
      const LockMode mode = rng.NextBernoulli(0.5) ? LockMode::kExclusive
                                                   : LockMode::kShared;
      const AcquireResult r = lt.Acquire(txn, /*ts=*/txn, kTable, key, mode,
                                         [&t] { t.waiting = false; });
      if (r == AcquireResult::kAbort) {
        lt.ReleaseAll(txn);
        t.dead = true;
        resolved++;
      } else if (r == AcquireResult::kWaiting) {
        t.waiting = true;
      } else {
        resolved++;
        if (rng.NextBernoulli(0.15)) {  // commit and finish
          lt.ReleaseAll(txn);
          t.dead = true;
        }
      }
    }

    // Drain: wait-die guarantees the youngest live transaction is never
    // waiting (it would have died instead), so repeatedly finishing a
    // non-waiting live transaction must terminate with everyone resolved.
    for (int guard = 0; guard < kTxns * kTxns; ++guard) {
      TxnId victim = kTxns;
      for (TxnId txn = kTxns; txn-- > 0;) {
        if (!txns[txn].dead && !txns[txn].waiting) {
          victim = txn;
          break;
        }
      }
      if (victim == kTxns) break;
      lt.ReleaseAll(victim);  // grants may un-wait older transactions
      txns[victim].dead = true;
    }

    for (TxnId txn = 0; txn < kTxns; ++txn) {
      EXPECT_TRUE(txns[txn].dead) << "round " << round << " txn " << txn;
      EXPECT_FALSE(txns[txn].waiting) << "round " << round << " txn " << txn;
    }
    EXPECT_EQ(lt.ActiveEntries(), 0u) << "round " << round;
    EXPECT_GT(resolved, 0);
  }
}

// Property: NO_WAIT never reports kWaiting.
TEST(NoWaitPropertyTest, NeverWaits) {
  Rng rng(321);
  LockTable lt(CcPolicy::kNoWait);
  for (int step = 0; step < 2000; ++step) {
    const TxnId txn = rng.NextBounded(8);
    const Key key = rng.NextBounded(4);
    const LockMode mode =
        rng.NextBernoulli(0.5) ? LockMode::kExclusive : LockMode::kShared;
    const AcquireResult r = lt.Acquire(txn, txn, kTable, key, mode);
    EXPECT_NE(r, AcquireResult::kWaiting);
    if (r == AcquireResult::kAbort) lt.ReleaseAll(txn);
    if (rng.NextBernoulli(0.2)) lt.ReleaseAll(txn);
  }
}

}  // namespace
}  // namespace ecdb
