// Unit tests for the YCSB workload generator.

#include "workload/ycsb.h"

#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

namespace ecdb {
namespace {

YcsbConfig SmallConfig() {
  YcsbConfig cfg;
  cfg.num_partitions = 4;
  cfg.rows_per_partition = 1024;
  cfg.ops_per_txn = 10;
  cfg.partitions_per_txn = 2;
  cfg.theta = 0.5;
  return cfg;
}

TEST(YcsbTest, LoadPopulatesPartition) {
  YcsbWorkload ycsb(SmallConfig());
  PartitionStore store(2);
  KeyPartitioner part(4);
  ycsb.LoadPartition(&store, part);
  const Table* table = store.GetTable(YcsbWorkload::kTableId);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 1024u);
  EXPECT_EQ(table->num_columns(), 10u);
}

TEST(YcsbDeathTest, ZeroColumnsIsRejected) {
  YcsbConfig cfg = SmallConfig();
  cfg.columns = 0;  // every write updates column 0
  EXPECT_DEATH(YcsbWorkload{cfg}, "CHECK failed");
}

TEST(YcsbDeathTest, InvalidZipfShapeIsRejected) {
  YcsbConfig cfg = SmallConfig();
  cfg.theta = 1.0;  // alpha = 1 / (1 - theta) would be infinite
  EXPECT_DEATH(YcsbWorkload{cfg}, "CHECK failed");
  cfg = SmallConfig();
  cfg.rows_per_partition = 0;
  EXPECT_DEATH(YcsbWorkload{cfg}, "CHECK failed");
}

TEST(YcsbTest, LoadedKeysBelongToPartition) {
  YcsbWorkload ycsb(SmallConfig());
  PartitionStore store(3);
  KeyPartitioner part(4);
  ycsb.LoadPartition(&store, part);
  for (uint64_t row = 0; row < 1024; ++row) {
    const Key key = ycsb.EncodeKey(3, row);
    EXPECT_EQ(part.PartitionOf(key), 3u);
    EXPECT_TRUE(store.GetTable(YcsbWorkload::kTableId)->Get(key).ok());
  }
}

TEST(YcsbTest, TxnHasConfiguredOpCount) {
  YcsbWorkload ycsb(SmallConfig());
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ycsb.NextTxn(0, rng).ops.size(), 10u);
  }
}

TEST(YcsbTest, TxnTouchesExactlyConfiguredPartitions) {
  YcsbConfig cfg = SmallConfig();
  cfg.partitions_per_txn = 3;
  YcsbWorkload ycsb(cfg);
  KeyPartitioner part(4);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const TxnRequest req = ycsb.NextTxn(1, rng);
    std::set<PartitionId> parts;
    for (const Operation& op : req.ops) parts.insert(part.PartitionOf(op.key));
    EXPECT_EQ(parts.size(), 3u);
    EXPECT_TRUE(parts.count(1));  // home partition always included
  }
}

TEST(YcsbTest, KeysWithinTxnAreDistinct) {
  YcsbConfig cfg = SmallConfig();
  cfg.theta = 0.9;  // heavy skew maximizes collision pressure
  YcsbWorkload ycsb(cfg);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const TxnRequest req = ycsb.NextTxn(0, rng);
    std::unordered_set<Key> keys;
    for (const Operation& op : req.ops) keys.insert(op.key);
    EXPECT_EQ(keys.size(), req.ops.size());
  }
}

TEST(YcsbTest, WriteFractionIsRespected) {
  YcsbConfig cfg = SmallConfig();
  cfg.write_fraction = 0.3;
  YcsbWorkload ycsb(cfg);
  Rng rng(4);
  int writes = 0, total = 0;
  for (int i = 0; i < 2000; ++i) {
    for (const Operation& op : ycsb.NextTxn(0, rng).ops) {
      writes += op.is_write() ? 1 : 0;
      total++;
    }
  }
  EXPECT_NEAR(static_cast<double>(writes) / total, 0.3, 0.03);
}

TEST(YcsbTest, ReadOnlyConfigProducesNoWrites) {
  YcsbConfig cfg = SmallConfig();
  cfg.write_fraction = 0.0;
  YcsbWorkload ycsb(cfg);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(ycsb.NextTxn(0, rng).HasWrites());
  }
}

TEST(YcsbTest, SkewConcentratesAccesses) {
  YcsbConfig hot_cfg = SmallConfig();
  hot_cfg.theta = 0.9;
  YcsbConfig cold_cfg = SmallConfig();
  cold_cfg.theta = 0.1;
  YcsbWorkload hot(hot_cfg), cold(cold_cfg);
  Rng rng(6);
  auto hot_hits = [&](YcsbWorkload& w) {
    int hits = 0;
    for (int i = 0; i < 500; ++i) {
      for (const Operation& op : w.NextTxn(0, rng).ops) {
        if (op.key / 4 < 16) hits++;  // row index < 16
      }
    }
    return hits;
  };
  EXPECT_GT(hot_hits(hot), 2 * hot_hits(cold));
}

TEST(YcsbTest, SinglePartitionConfig) {
  YcsbConfig cfg = SmallConfig();
  cfg.partitions_per_txn = 1;
  YcsbWorkload ycsb(cfg);
  KeyPartitioner part(4);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const TxnRequest req = ycsb.NextTxn(2, rng);
    for (const Operation& op : req.ops) {
      EXPECT_EQ(part.PartitionOf(op.key), 2u);
    }
  }
}

TEST(YcsbTest, DeterministicForSameSeed) {
  YcsbWorkload a(SmallConfig()), b(SmallConfig());
  Rng ra(9), rb(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.NextTxn(0, ra).ops, b.NextTxn(0, rb).ops);
  }
}

}  // namespace
}  // namespace ecdb
