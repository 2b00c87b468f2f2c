// Unit tests for the in-memory partitioned row store.

#include "storage/table.h"

#include <span>
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

TEST(TableTest, InsertsPastReserveKeepEarlierValues) {
  Table t(0, "t", 10);
  t.Reserve(4);
  // Far past the reservation: the cell array grows (and moves) repeatedly.
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
