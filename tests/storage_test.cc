// Unit tests for the in-memory partitioned row store.

#include "storage/table.h"

#include <cstdint>
#include <span>
#include <utility>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

// The tables below hold keys 3, 7, 11, 15, 19 as row ids 0..4.
constexpr Key kFirst = 3;
constexpr Key kStride = 4;
constexpr uint32_t kCount = 5;

TEST(TableTest, RangeRowsAreFoundByKey) {
  const Table t(0, "t", 3, kFirst, kStride, kCount);
  EXPECT_EQ(t.size(), kCount);
  for (uint32_t k = 0; k < kCount; ++k) {
    const Key key = kFirst + k * kStride;
    const Result<RowId> row = t.Get(key);
    ASSERT_TRUE(row.ok()) << key;
    EXPECT_EQ(row.value(), k);
    EXPECT_EQ(t.Version(row.value()), 0u);
    ASSERT_EQ(t.Columns(row.value()).size(), 3u);
    for (uint64_t cell : t.Columns(row.value())) EXPECT_EQ(cell, 0u);
  }
}

TEST(TableTest, GetMissingIsNotFound) {
  const Table empty(0, "t", 2, kFirst, kStride, 0);
  EXPECT_EQ(empty.size(), 0u);
  for (Key key : {Key{0}, kFirst, kFirst + kStride, Key{99}}) {
    EXPECT_TRUE(empty.Get(key).status().IsNotFound()) << key;
  }
  const Table t(0, "t", 2, kFirst, kStride, kCount);
  EXPECT_TRUE(t.Get(99).status().IsNotFound());
}

TEST(TableTest, KeysOffTheRangeAreNotFound) {
  const Table t(0, "t", 2, kFirst, kStride, kCount);
  // Off stride inside the span, below the first key (including 0, whose
  // offset wraps) and from one stride past the last key on.
  for (Key key : {4, 5, 6, 18, 0, 1, 2, 23, 27, 1 << 30}) {
    EXPECT_TRUE(t.Get(key).status().IsNotFound()) << key;
  }
  EXPECT_TRUE(t.Get(UINT64_MAX).status().IsNotFound());
}

TEST(TableTest, MutableUpdatePersists) {
  Table t(0, "t", 2, kFirst, kStride, kCount);
  const RowId row = t.Get(kFirst + kStride).value();
  t.Columns(row)[0] = 42;
  t.Version(row)++;
  const Table& view = t;
  EXPECT_EQ(view.Columns(view.Get(kFirst + kStride).value())[0], 42u);
  EXPECT_EQ(view.Version(view.Get(kFirst + kStride).value()), 1u);
}

TEST(TableTest, RowsAreIndependent) {
  // A width whose rows straddle 4 KB pages, over enough rows to span
  // several huge pages.
  constexpr uint32_t kColumns = 10;
  constexpr uint32_t kRows = 100'000;
  Table t(0, "t", kColumns, 7, 16, kRows);
  for (RowId row = 0; row < kRows; row += 3) {
    std::span<uint64_t> cells = t.Columns(row);
    cells.front() = row + 1;
    cells.back() = 3 * row;
    t.Version(row) = row + 2;
  }
  for (RowId row = 0; row < kRows; ++row) {
    ASSERT_EQ(t.Get(7 + 16 * Key{row}).value(), row);
    const std::span<const uint64_t> cells = std::as_const(t).Columns(row);
    const bool written = row % 3 == 0;
    ASSERT_EQ(cells.front(), written ? row + 1 : 0u) << row;
    ASSERT_EQ(cells.back(), written ? 3 * row : 0u) << row;
    ASSERT_EQ(cells[5], 0u) << row;
    ASSERT_EQ(t.Version(row), written ? row + 2 : 0u) << row;
  }
}

TEST(TableDeathTest, CellAccessChecksTheRowId) {
  Table t(0, "t", 2, kFirst, kStride, kCount);
  // Row kCount would be the words past the last row's cells.
  EXPECT_DEATH(t.Columns(kCount), "CHECK failed");
  EXPECT_DEATH(t.Version(kCount), "CHECK failed");
  EXPECT_DEATH(std::as_const(t).Columns(UINT32_MAX), "CHECK failed");
  EXPECT_DEATH(std::as_const(t).Version(UINT32_MAX), "CHECK failed");
  Table empty(0, "e", 2, kFirst, kStride, 0);
  EXPECT_DEATH(empty.Version(0), "CHECK failed");
}

TEST(TableDeathTest, RangeNeedsAStrideAndNoWrap) {
  EXPECT_DEATH(Table(0, "t", 2, kFirst, 0, kCount), "CHECK failed");
  EXPECT_DEATH(Table(0, "t", 2, UINT64_MAX - 8, kStride, kCount),
               "CHECK failed");
}

TEST(TableTest, Metadata) {
  const Table t(9, "usertable", 10, kFirst, kStride, kCount);
  EXPECT_EQ(t.id(), 9u);
  EXPECT_EQ(t.name(), "usertable");
  EXPECT_EQ(t.num_columns(), 10u);
}

TEST(PartitionStoreTest, CreateAndGetTable) {
  PartitionStore store(3);
  ASSERT_TRUE(store.CreateTable(0, "a", 2, 0, 1, 4).ok());
  ASSERT_TRUE(store.CreateTable(1, "b", 3, 1, 2, 6).ok());
  EXPECT_EQ(store.id(), 3u);
  EXPECT_EQ(store.num_tables(), 2u);
  ASSERT_NE(store.GetTable(1), nullptr);
  EXPECT_EQ(store.GetTable(1)->name(), "b");
  EXPECT_EQ(store.GetTable(1)->num_columns(), 3u);
  EXPECT_EQ(store.GetTable(1)->size(), 6u);
  EXPECT_EQ(store.GetTable(1)->Get(11).value(), 5u);
  EXPECT_TRUE(store.GetTable(1)->Get(12).status().IsNotFound());
  EXPECT_EQ(store.GetTable(7), nullptr);
}

TEST(PartitionStoreTest, DuplicateTableIdFails) {
  PartitionStore store(0);
  ASSERT_TRUE(store.CreateTable(0, "a", 2, 0, 1, 4).ok());
  EXPECT_EQ(store.CreateTable(0, "b", 2, 0, 1, 4).code(),
            Code::kAlreadyExists);
  EXPECT_EQ(store.GetTable(0)->name(), "a");
}

TEST(PartitionStoreTest, ZeroColumnTableIsRejected) {
  // Every write updates column 0, so a zero-column schema is unusable.
  PartitionStore store(0);
  EXPECT_EQ(store.CreateTable(0, "empty", 0, 0, 1, 4).code(),
            Code::kInvalidArgument);
  EXPECT_EQ(store.GetTable(0), nullptr);
  EXPECT_EQ(store.num_tables(), 0u);
}

TEST(PartitionStoreTest, ConstAccess) {
  PartitionStore store(0);
  ASSERT_TRUE(store.CreateTable(0, "a", 2, 0, 1, 4).ok());
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
