// Unit and property tests for the NO_WAIT record lock table.

#include "cc/lock_table.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ecdb {
namespace {

constexpr TableId kTable = 0;

TEST(NoWaitTest, SharedLocksCoexist) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kShared));
  EXPECT_TRUE(lt.Acquire(2, 2, kTable, 10, LockMode::kShared));
  EXPECT_EQ(lt.HeldCount(1), 1u);
  EXPECT_EQ(lt.HeldCount(2), 1u);
}

TEST(NoWaitTest, ExclusiveConflictsWithShared) {
  LockTable lt;
  ASSERT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kShared));
  EXPECT_FALSE(lt.Acquire(2, 2, kTable, 10, LockMode::kExclusive));
}

TEST(NoWaitTest, SharedConflictsWithExclusive) {
  LockTable lt;
  ASSERT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive));
  EXPECT_FALSE(lt.Acquire(2, 2, kTable, 10, LockMode::kShared));
}

TEST(NoWaitTest, DistinctKeysDoNotConflict) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive));
  EXPECT_TRUE(lt.Acquire(2, 2, kTable, 11, LockMode::kExclusive));
  // Same key, different table.
  EXPECT_TRUE(lt.Acquire(2, 2, 1, 10, LockMode::kExclusive));
}

TEST(NoWaitTest, ReacquireIsIdempotent) {
  LockTable lt;
  ASSERT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive));
  EXPECT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive));
  EXPECT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kShared));
  EXPECT_EQ(lt.HeldCount(1), 1u);
}

TEST(NoWaitTest, SoleHolderUpgrades) {
  LockTable lt;
  ASSERT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kShared));
  EXPECT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive));
  // Now exclusive: another shared must conflict.
  EXPECT_FALSE(lt.Acquire(2, 2, kTable, 10, LockMode::kShared));
}

TEST(NoWaitTest, UpgradeWithOtherSharedHoldersAborts) {
  LockTable lt;
  ASSERT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kShared));
  ASSERT_TRUE(lt.Acquire(2, 2, kTable, 10, LockMode::kShared));
  EXPECT_FALSE(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive));
}

TEST(NoWaitTest, ReleaseAllFreesEverything) {
  LockTable lt;
  ASSERT_TRUE(lt.Acquire(1, 1, kTable, 10, LockMode::kExclusive));
  ASSERT_TRUE(lt.Acquire(1, 1, kTable, 11, LockMode::kShared));
  lt.ReleaseAll(1);
  EXPECT_EQ(lt.HeldCount(1), 0u);
  EXPECT_EQ(lt.ActiveEntries(), 0u);
  EXPECT_TRUE(lt.Acquire(2, 2, kTable, 10, LockMode::kExclusive));
}

TEST(NoWaitTest, ManySharedHoldersSpillAndRelease) {
  // Holders beyond the two kept inline spill to the heap; the spill must
  // keep every holder visible to conflict checks, upgrades and release.
  LockTable lt;
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_TRUE(lt.Acquire(t, t, kTable, 10, LockMode::kShared));
  }
  EXPECT_FALSE(lt.Acquire(6, 6, kTable, 10, LockMode::kExclusive));
  // Upgrade blocked by four sharers.
  EXPECT_FALSE(lt.Acquire(3, 3, kTable, 10, LockMode::kExclusive));
  // Re-acquire found past the inline two.
  EXPECT_TRUE(lt.Acquire(5, 5, kTable, 10, LockMode::kShared));
  for (TxnId t : {1, 2, 4, 5}) {
    lt.ReleaseAll(t);
    EXPECT_EQ(lt.HeldCount(t), 0u);
  }
  EXPECT_EQ(lt.HeldCount(3), 1u);
  EXPECT_EQ(lt.ActiveEntries(), 1u);
  // Now the sole holder, txn 3 upgrades; everyone else conflicts.
  EXPECT_TRUE(lt.Acquire(3, 3, kTable, 10, LockMode::kExclusive));
  EXPECT_FALSE(lt.Acquire(7, 7, kTable, 10, LockMode::kShared));
  lt.ReleaseAll(3);
  EXPECT_EQ(lt.ActiveEntries(), 0u);
  EXPECT_TRUE(lt.Acquire(8, 8, kTable, 10, LockMode::kExclusive));
}

TEST(NoWaitTest, ReleaseUnknownTxnIsNoop) {
  LockTable lt;
  lt.ReleaseAll(42);  // must not crash
  EXPECT_EQ(lt.ActiveEntries(), 0u);
}

// Differential property: under random shared/exclusive acquires,
// re-acquires, upgrades, spills past the two inline holders and ReleaseAlls,
// every answer, HeldCount and ActiveEntries match a plain map of holders.
class HolderModel {
 public:
  bool Acquire(TxnId txn, TableId table, Key key, LockMode mode) {
    std::map<TxnId, LockMode>& holders = locks_[{table, key}];
    auto self = holders.find(txn);
    if (self != holders.end()) {
      if (self->second == LockMode::kExclusive || mode == LockMode::kShared) {
        return true;
      }
      if (holders.size() > 1) return false;
      self->second = LockMode::kExclusive;
      return true;
    }
    for (const auto& [holder, held] : holders) {
      if (held == LockMode::kExclusive || mode == LockMode::kExclusive) {
        return false;
      }
    }
    holders.emplace(txn, mode);
    return true;
  }
  void ReleaseAll(TxnId txn) {
    for (auto it = locks_.begin(); it != locks_.end();) {
      it->second.erase(txn);
      it = it->second.empty() ? locks_.erase(it) : std::next(it);
    }
  }
  size_t HeldCount(TxnId txn) const {
    size_t n = 0;
    for (const auto& [id, holders] : locks_) n += holders.count(txn);
    return n;
  }
  size_t ActiveEntries() const { return locks_.size(); }
  size_t MaxHolders() const {
    size_t n = 0;
    for (const auto& [id, holders] : locks_) n = std::max(n, holders.size());
    return n;
  }

 private:
  std::map<std::pair<TableId, Key>, std::map<TxnId, LockMode>> locks_;
};

TEST(NoWaitPropertyTest, MatchesHolderModel) {
  constexpr TxnId kTxns = 8;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    LockTable lt;
    HolderModel model;
    size_t max_holders = 0;
    for (int step = 0; step < 4000; ++step) {
      const TxnId txn = 1 + rng.NextBounded(kTxns);
      if (rng.NextBernoulli(0.1)) {
        lt.ReleaseAll(txn);
        model.ReleaseAll(txn);
      } else {
        const TableId table = static_cast<TableId>(rng.NextBounded(2));
        const Key key = rng.NextBounded(5);
        const LockMode mode = rng.NextBernoulli(0.3) ? LockMode::kExclusive
                                                     : LockMode::kShared;
        const bool granted = lt.Acquire(txn, /*ts=*/0, table, key, mode);
        ASSERT_EQ(granted, model.Acquire(txn, table, key, mode))
            << "seed " << seed << " step " << step;
      }
      for (TxnId t = 1; t <= kTxns; ++t) {
        ASSERT_EQ(lt.HeldCount(t), model.HeldCount(t))
            << "seed " << seed << " step " << step << " txn " << t;
      }
      ASSERT_EQ(lt.ActiveEntries(), model.ActiveEntries())
          << "seed " << seed << " step " << step;
      max_holders = std::max(max_holders, model.MaxHolders());
    }
    EXPECT_GE(max_holders, 3u) << "seed " << seed << " never spilled";
    for (TxnId t = 1; t <= kTxns; ++t) lt.ReleaseAll(t);
    EXPECT_EQ(lt.ActiveEntries(), 0u);
  }
}

}  // namespace
}  // namespace ecdb
