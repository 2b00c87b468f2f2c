// Unit tests for the in-memory partitioned row store.

#include "storage/table.h"

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

TEST(TableTest, InsertAndGet) {
  Table t(0, "t", 4);
  ASSERT_TRUE(t.Insert(10).ok());
  auto row = t.Get(10);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(t.Columns(*row.value()).size(), 4u);
  for (uint64_t cell : t.Columns(*row.value())) EXPECT_EQ(cell, 0u);
  EXPECT_EQ(row.value()->version, 0u);
}

TEST(TableTest, DuplicateInsertFails) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.Insert(1).ok());
  EXPECT_EQ(t.Insert(1).code(), Code::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, GetMissingIsNotFound) {
  Table t(0, "t", 2);
  EXPECT_TRUE(t.Get(99).status().IsNotFound());
}

TEST(TableTest, InsertWithValuesPadsToSchema) {
  Table t(0, "t", 4);
  ASSERT_TRUE(t.InsertWith(5, {7, 8}).ok());
  auto row = t.Get(5);
  ASSERT_TRUE(row.ok());
  const std::span<const uint64_t> cells = t.Columns(*row.value());
  EXPECT_EQ(std::vector<uint64_t>(cells.begin(), cells.end()),
            (std::vector<uint64_t>{7, 8, 0, 0}));
}

TEST(TableTest, InsertWithValuesTruncatesToSchema) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.InsertWith(5, {1, 2, 3, 4}).ok());
  EXPECT_EQ(t.Columns(*t.Get(5).value()).size(), 2u);
  EXPECT_EQ(t.Columns(*t.Get(5).value())[1], 2u);
}

TEST(TableTest, MutableUpdatePersists) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.Insert(3).ok());
  auto row = t.GetMutable(3);
  ASSERT_TRUE(row.ok());
  t.Columns(*row.value())[0] = 42;
  row.value()->version++;
  EXPECT_EQ(t.Columns(*t.Get(3).value())[0], 42u);
  EXPECT_EQ(t.Get(3).value()->version, 1u);
}

TEST(TableTest, EraseRemovesRow) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.Insert(3).ok());
  EXPECT_TRUE(t.Erase(3).ok());
  EXPECT_TRUE(t.Get(3).status().IsNotFound());
  EXPECT_TRUE(t.Erase(3).IsNotFound());
}

TEST(TableTest, EraseThenReinsertYieldsZeroedRow) {
  Table t(0, "t", 3);
  ASSERT_TRUE(t.InsertWith(3, {5, 6, 7}).ok());
  ASSERT_TRUE(t.Insert(4).ok());
  const uint32_t recycled = t.Get(3).value()->id;
  ASSERT_TRUE(t.Erase(3).ok());
  // The next insert reuses the erased row's cells, and must clear them.
  ASSERT_TRUE(t.Insert(9).ok());
  const Row* row = t.Get(9).value();
  EXPECT_EQ(row->id, recycled);
  EXPECT_EQ(row->version, 0u);
  for (uint64_t cell : t.Columns(*row)) EXPECT_EQ(cell, 0u);
  // Reinserting the erased key itself also starts from zero.
  ASSERT_TRUE(t.Insert(3).ok());
  for (uint64_t cell : t.Columns(*t.Get(3).value())) EXPECT_EQ(cell, 0u);
}

TEST(TableTest, GrowingInsertsKeepEarlierValues) {
  Table t(0, "t", 10);
  // The cell array grows (and moves) repeatedly under plain inserts.
  constexpr Key kRows = 5000;
  for (Key k = 0; k < kRows; ++k) {
    ASSERT_TRUE(t.Insert(k).ok());
    Row* row = t.GetMutable(k).value();
    std::span<uint64_t> cells = t.Columns(*row);
    cells[0] = k + 1;
    cells[9] = 3 * k;
    row->version = k;
  }
  EXPECT_EQ(t.size(), kRows);
  for (Key k = 0; k < kRows; ++k) {
    const Row* row = t.Get(k).value();
    const std::span<const uint64_t> cells = t.Columns(*row);
    ASSERT_EQ(cells[0], k + 1) << k;
    ASSERT_EQ(cells[9], 3 * k) << k;
    ASSERT_EQ(cells[5], 0u) << k;
    ASSERT_EQ(row->version, k) << k;
  }
}

/// Every (key, version, cells) in the table, sorted by key.
std::vector<std::tuple<Key, uint64_t, std::vector<uint64_t>>> Contents(
    const Table& t) {
  std::vector<std::tuple<Key, uint64_t, std::vector<uint64_t>>> out;
  t.ForEachRow([&](Key key, const Row& row) {
    const std::span<const uint64_t> cells = t.Columns(row);
    out.emplace_back(key, row.version,
                     std::vector<uint64_t>(cells.begin(), cells.end()));
  });
  std::sort(out.begin(), out.end());
  return out;
}

// The range below holds keys 3, 7, 11, 15, 19 as row ids 0..4.
constexpr Key kFirst = 3;
constexpr Key kStride = 4;
constexpr uint32_t kCount = 5;

TEST(TableTest, InsertRangeRowsAreFoundByKey) {
  Table t(0, "t", 3);
  t.InsertRange(kFirst, kStride, kCount);
  EXPECT_EQ(t.size(), kCount);
  for (uint32_t k = 0; k < kCount; ++k) {
    const Key key = kFirst + k * kStride;
    auto row = t.Get(key);
    ASSERT_TRUE(row.ok()) << key;
    EXPECT_EQ(row.value()->id, k);
    EXPECT_EQ(row.value()->version, 0u);
    ASSERT_EQ(t.Columns(*row.value()).size(), 3u);
    for (uint64_t cell : t.Columns(*row.value())) EXPECT_EQ(cell, 0u);
    Row* mutable_row = t.GetMutable(key).value();
    t.Columns(*mutable_row)[2] = 10 * key;
    mutable_row->version = key;
  }
  for (uint32_t k = 0; k < kCount; ++k) {
    const Key key = kFirst + k * kStride;
    const Row* row = t.Get(key).value();
    EXPECT_EQ(t.Columns(*row)[2], 10 * key);
    EXPECT_EQ(t.Columns(*row)[0], 0u);
    EXPECT_EQ(row->version, key);
  }
}

TEST(TableTest, KeysOffTheRangeUseTheHashIndex) {
  Table t(0, "t", 2);
  t.InsertRange(kFirst, kStride, kCount);
  // Off stride inside the span, below the first key (including 0, whose
  // offset wraps) and from one stride past the last key on.
  const std::vector<Key> off = {4, 5, 6, 18, 0, 1, 2, 23, 27, 1u << 30};
  for (Key key : off) {
    EXPECT_TRUE(t.Get(key).status().IsNotFound()) << key;
    EXPECT_TRUE(t.Erase(key).IsNotFound()) << key;
  }
  for (Key key : off) ASSERT_TRUE(t.InsertWith(key, {key, key + 1}).ok());
  EXPECT_EQ(t.size(), kCount + off.size());
  for (Key key : off) {
    const Row* row = t.Get(key).value();
    EXPECT_GE(row->id, kCount) << key;  // the range owns ids 0..4
    const std::span<const uint64_t> cells = t.Columns(*row);
    EXPECT_EQ(cells[0], key);
    EXPECT_EQ(cells[1], key + 1);
    EXPECT_EQ(t.Insert(key).code(), Code::kAlreadyExists) << key;
  }
  // The range rows are untouched by the growth of the cell array.
  for (uint32_t k = 0; k < kCount; ++k) {
    const Row* row = t.Get(kFirst + k * kStride).value();
    EXPECT_EQ(row->id, k);
    for (uint64_t cell : t.Columns(*row)) EXPECT_EQ(cell, 0u);
  }
}

TEST(TableTest, InsertOfALiveRangeKeyFails) {
  Table t(0, "t", 2);
  t.InsertRange(kFirst, kStride, kCount);
  EXPECT_EQ(t.Insert(kFirst).code(), Code::kAlreadyExists);
  EXPECT_EQ(t.InsertWith(kFirst + 4 * kStride, {1}).code(),
            Code::kAlreadyExists);
  EXPECT_EQ(t.size(), kCount);
  EXPECT_EQ(t.Columns(*t.Get(kFirst + 4 * kStride).value())[0], 0u);
}

TEST(TableTest, EraseInRangeThenReinsertYieldsZeroedRow) {
  Table t(0, "t", 3);
  t.InsertRange(kFirst, kStride, kCount);
  const Key key = kFirst + kStride;  // row id 1
  Row* row = t.GetMutable(key).value();
  t.Columns(*row)[0] = 5;
  t.Columns(*row)[2] = 7;
  row->version = 9;
  ASSERT_TRUE(t.Erase(key).ok());
  EXPECT_TRUE(t.Get(key).status().IsNotFound());
  EXPECT_TRUE(t.GetMutable(key).status().IsNotFound());
  EXPECT_TRUE(t.Erase(key).IsNotFound());
  EXPECT_EQ(t.size(), kCount - 1);
  // The erased row's id is recycled, through the hash index too.
  ASSERT_TRUE(t.Insert(1000).ok());
  EXPECT_EQ(t.Get(1000).value()->id, 1u);
  for (uint64_t cell : t.Columns(*t.Get(1000).value())) EXPECT_EQ(cell, 0u);
  ASSERT_TRUE(t.Erase(1000).ok());
  // Reinserting the key reuses its slot, with a zeroed row.
  ASSERT_TRUE(t.Insert(key).ok());
  const Row* back = t.Get(key).value();
  EXPECT_EQ(back->id, 1u);
  EXPECT_EQ(back->version, 0u);
  for (uint64_t cell : t.Columns(*back)) EXPECT_EQ(cell, 0u);
  EXPECT_EQ(t.size(), kCount);
}

TEST(TableTest, ForEachRowAndSizeCoverBothIndexes) {
  Table t(0, "t", 2);
  t.InsertRange(kFirst, kStride, kCount);
  ASSERT_TRUE(t.InsertWith(4, {40}).ok());
  ASSERT_TRUE(t.InsertWith(100, {1000}).ok());
  ASSERT_TRUE(t.Erase(kFirst + 2 * kStride).ok());  // key 11
  t.GetMutable(19).value()->version = 2;
  t.Columns(*t.GetMutable(19).value())[1] = 8;
  using Image = std::tuple<Key, uint64_t, std::vector<uint64_t>>;
  const std::vector<Image> want = {
      {3, 0, {0, 0}},  {4, 0, {40, 0}}, {7, 0, {0, 0}},
      {15, 0, {0, 0}}, {19, 2, {0, 8}}, {100, 0, {1000, 0}},
  };
  EXPECT_EQ(Contents(t), want);
  EXPECT_EQ(t.size(), want.size());
}

TEST(TableTest, EmptyRangeLeavesEveryKeyToTheHashIndex) {
  Table t(0, "t", 1);
  t.InsertRange(kFirst, kStride, 0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.Get(kFirst).status().IsNotFound());
  ASSERT_TRUE(t.Insert(kFirst).ok());
  EXPECT_EQ(t.Get(kFirst).value()->id, 0u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableDeathTest, InsertRangeNeedsATableThatNeverHeldARow) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.Insert(1).ok());
  EXPECT_DEATH(t.InsertRange(kFirst, kStride, kCount), "CHECK failed");
  ASSERT_TRUE(t.Erase(1).ok());  // empty again, but row id 0 is taken
  EXPECT_DEATH(t.InsertRange(kFirst, kStride, kCount), "CHECK failed");
  Table ranged(0, "r", 2);
  ranged.InsertRange(kFirst, kStride, kCount);
  EXPECT_DEATH(ranged.InsertRange(100, kStride, kCount), "CHECK failed");
}

TEST(TableDeathTest, CellAccessChecksTheRowId) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.Insert(1).ok());
  Row stray;
  stray.id = 1;  // never handed out: its cells are not a row's
  EXPECT_DEATH(t.Columns(stray), "CHECK failed");
}

TEST(TableTest, Metadata) {
  Table t(9, "usertable", 10);
  EXPECT_EQ(t.id(), 9u);
  EXPECT_EQ(t.name(), "usertable");
  EXPECT_EQ(t.num_columns(), 10u);
}

TEST(PartitionStoreTest, CreateAndGetTable) {
  PartitionStore store(3);
  ASSERT_TRUE(store.CreateTable(0, "a", 2).ok());
  ASSERT_TRUE(store.CreateTable(1, "b", 3).ok());
  EXPECT_EQ(store.id(), 3u);
  EXPECT_EQ(store.num_tables(), 2u);
  ASSERT_NE(store.GetTable(1), nullptr);
  EXPECT_EQ(store.GetTable(1)->name(), "b");
  EXPECT_EQ(store.GetTable(7), nullptr);
}

TEST(PartitionStoreTest, DuplicateTableIdFails) {
  PartitionStore store(0);
  ASSERT_TRUE(store.CreateTable(0, "a", 2).ok());
  EXPECT_EQ(store.CreateTable(0, "b", 2).code(), Code::kAlreadyExists);
}

TEST(PartitionStoreTest, ZeroColumnTableIsRejected) {
  // Every write updates column 0, so a zero-column schema is unusable.
  PartitionStore store(0);
  EXPECT_EQ(store.CreateTable(0, "empty", 0).code(), Code::kInvalidArgument);
  EXPECT_EQ(store.GetTable(0), nullptr);
  EXPECT_EQ(store.num_tables(), 0u);
}

TEST(PartitionStoreTest, ConstAccess) {
  PartitionStore store(0);
  ASSERT_TRUE(store.CreateTable(0, "a", 2).ok());
  const PartitionStore& cref = store;
  EXPECT_NE(cref.GetTable(0), nullptr);
  EXPECT_EQ(cref.GetTable(1), nullptr);
}

TEST(KeyPartitionerTest, ModuloRouting) {
  KeyPartitioner p(8);
  EXPECT_EQ(p.num_partitions(), 8u);
  EXPECT_EQ(p.PartitionOf(0), 0u);
  EXPECT_EQ(p.PartitionOf(7), 7u);
  EXPECT_EQ(p.PartitionOf(8), 0u);
  EXPECT_EQ(p.PartitionOf(8001), 1u);
}

TEST(KeyPartitionerTest, SinglePartition) {
  KeyPartitioner p(1);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(p.PartitionOf(k), 0u);
}

}  // namespace
}  // namespace ecdb
