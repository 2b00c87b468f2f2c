// Partition loads checked against an independent reference: the key sets
// that the workloads' key functions (YcsbWorkload::EncodeKey, the TpccWorkload
// *Key functions) say each partition owns. A loaded partition must find every
// one of its keys, at version 0 with every cell 0, hold no other key, and
// give every key a row of its own. The hosts load every partition in Start():
// each node's store must also equal a sequential LoadPartition of its
// partition into a fresh store (the ParallelLoadTest suite keeps the name it
// had when the hosts loaded partitions on loader threads). A load maps its
// tables' memory without writing it, which the last test pins through the
// process's page-fault count.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "cluster/thread_node.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

/// The keys each table of one partition must hold, indexed by table id;
/// an empty list means the partition has no such table.
using KeySets = std::vector<std::vector<Key>>;

YcsbConfig SmallYcsb(uint32_t partitions) {
  YcsbConfig cfg;
  cfg.num_partitions = partitions;
  cfg.rows_per_partition = 777;
  return cfg;
}

TpccConfig SmallTpcc(uint32_t partitions) {
  TpccConfig cfg;
  cfg.num_partitions = partitions;
  cfg.warehouses_per_partition = 2;  // warehouses p and p + P per partition
  cfg.customers_per_district = 8;
  cfg.items = 50;
  return cfg;
}

KeySets YcsbKeys(const YcsbWorkload& ycsb, const YcsbConfig& cfg,
                 PartitionId part) {
  KeySets keys(YcsbWorkload::kTableId + 1);
  for (uint64_t row = 0; row < cfg.rows_per_partition; ++row) {
    keys[YcsbWorkload::kTableId].push_back(ycsb.EncodeKey(part, row));
  }
  return keys;
}

KeySets TpccKeys(const TpccWorkload& tpcc, const TpccConfig& cfg,
                 PartitionId part) {
  KeySets keys(TpccWorkload::kItem + 1);
  for (uint32_t w = 0; w < tpcc.total_warehouses(); ++w) {
    if (tpcc.PartitionOfWarehouse(w) != part) continue;
    keys[TpccWorkload::kWarehouse].push_back(tpcc.WarehouseKey(w));
    for (uint32_t d = 0; d < cfg.districts_per_warehouse; ++d) {
      keys[TpccWorkload::kDistrict].push_back(tpcc.DistrictKey(w, d));
      for (uint32_t c = 0; c < cfg.customers_per_district; ++c) {
        keys[TpccWorkload::kCustomer].push_back(tpcc.CustomerKey(w, d, c));
      }
    }
    for (uint32_t i = 0; i < cfg.items; ++i) {
      keys[TpccWorkload::kStock].push_back(tpcc.StockKey(w, i));
    }
  }
  for (uint32_t i = 0; i < cfg.items; ++i) {
    keys[TpccWorkload::kItem].push_back(tpcc.ItemKey(part, i));
  }
  return keys;
}

/// Checks that `store` holds exactly `want`, every row as loaded.
void ExpectHolds(const PartitionStore& store, const KeySets& want) {
  size_t tables = 0;
  for (TableId id = 0; id < want.size(); ++id) {
    if (want[id].empty()) continue;
    ++tables;
    const Table* table = store.GetTable(id);
    ASSERT_NE(table, nullptr) << "table " << id;
    ASSERT_EQ(table->size(), want[id].size()) << "table " << id;
    std::vector<Key> sorted = want[id];
    std::sort(sorted.begin(), sorted.end());
    std::vector<RowId> rows;
    for (Key key : want[id]) {
      const Result<RowId> row = table->Get(key);
      ASSERT_TRUE(row.ok()) << "table " << id << " key " << key;
      ASSERT_EQ(table->Version(row.value()), 0u) << key;
      for (uint64_t cell : table->Columns(row.value())) ASSERT_EQ(cell, 0u);
      rows.push_back(row.value());
      // The neighbouring keys belong to other partitions.
      for (Key neighbour : {key - 1, key + 1}) {
        if (!std::binary_search(sorted.begin(), sorted.end(), neighbour)) {
          EXPECT_TRUE(table->Get(neighbour).status().IsNotFound())
              << "table " << id << " key " << neighbour;
        }
      }
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_TRUE(std::adjacent_find(rows.begin(), rows.end()) == rows.end())
        << "two keys share a row in table " << id;
  }
  EXPECT_EQ(store.num_tables(), tables);
}

/// Checks that `loaded` holds what a sequential LoadPartition of partition
/// `part` into a fresh store holds: the same tables, each with the same name,
/// width and size, and every key of `want` on the same row.
void ExpectMatchesSequentialLoad(const Workload& workload, uint32_t parts,
                                 PartitionId part,
                                 const PartitionStore& loaded,
                                 const KeySets& want) {
  PartitionStore fresh(part);
  workload.LoadPartition(&fresh, KeyPartitioner(parts));
  ASSERT_EQ(loaded.num_tables(), fresh.num_tables()) << "partition " << part;
  for (TableId id = 0; id < want.size(); ++id) {
    const Table* got = loaded.GetTable(id);
    const Table* expected = fresh.GetTable(id);
    ASSERT_EQ(got == nullptr, expected == nullptr) << "table " << id;
    if (expected == nullptr) continue;
    EXPECT_EQ(got->name(), expected->name()) << "table " << id;
    EXPECT_EQ(got->num_columns(), expected->num_columns()) << "table " << id;
    ASSERT_EQ(got->size(), expected->size()) << "table " << id;
    for (Key key : want[id]) {
      const Result<RowId> got_row = got->Get(key);
      const Result<RowId> expected_row = expected->Get(key);
      ASSERT_TRUE(got_row.ok() && expected_row.ok()) << "key " << key;
      EXPECT_EQ(got_row.value(), expected_row.value()) << "key " << key;
    }
  }
}

TEST(PartitionLoadTest, YcsbPartitionHoldsExactlyItsKeys) {
  constexpr uint32_t kParts = 3;
  const YcsbConfig cfg = SmallYcsb(kParts);
  const YcsbWorkload ycsb(cfg);
  for (PartitionId part = 0; part < kParts; ++part) {
    PartitionStore store(part);
    ycsb.LoadPartition(&store, KeyPartitioner(kParts));
    ExpectHolds(store, YcsbKeys(ycsb, cfg, part));
  }
}

TEST(PartitionLoadTest, TpccPartitionHoldsExactlyItsKeys) {
  constexpr uint32_t kParts = 3;
  const TpccConfig cfg = SmallTpcc(kParts);
  const TpccWorkload tpcc(cfg);
  for (PartitionId part = 0; part < kParts; ++part) {
    PartitionStore store(part);
    tpcc.LoadPartition(&store, KeyPartitioner(kParts));
    ExpectHolds(store, TpccKeys(tpcc, cfg, part));
  }
}

constexpr uint32_t kClusterNodes = 5;

TEST(ParallelLoadTest, SimClusterYcsbMatchesSequentialLoad) {
  ClusterConfig cfg;
  cfg.num_nodes = kClusterNodes;
  cfg.clients_per_node = 0;  // no transactions: the stores stay as loaded
  const YcsbConfig ycfg = SmallYcsb(kClusterNodes);
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycfg));
  cluster.Start();
  const YcsbWorkload reference(ycfg);
  for (NodeId id = 0; id < kClusterNodes; ++id) {
    const KeySets want = YcsbKeys(reference, ycfg, id);
    ExpectHolds(cluster.node(id).store(), want);
    ExpectMatchesSequentialLoad(reference, kClusterNodes, id,
                                cluster.node(id).store(), want);
  }
}

TEST(ParallelLoadTest, SimClusterTpccMatchesSequentialLoad) {
  ClusterConfig cfg;
  cfg.num_nodes = kClusterNodes;
  cfg.clients_per_node = 0;
  const TpccConfig tcfg = SmallTpcc(kClusterNodes);
  SimCluster cluster(cfg, std::make_unique<TpccWorkload>(tcfg));
  cluster.Start();
  const TpccWorkload reference(tcfg);
  for (NodeId id = 0; id < kClusterNodes; ++id) {
    const KeySets want = TpccKeys(reference, tcfg, id);
    ExpectHolds(cluster.node(id).store(), want);
    ExpectMatchesSequentialLoad(reference, kClusterNodes, id,
                                cluster.node(id).store(), want);
  }
}

TEST(ParallelLoadTest, ThreadClusterYcsbMatchesSequentialLoad) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = kClusterNodes;
  cfg.clients_per_node = 0;
  cfg.worker_threads = 2;
  const YcsbConfig ycfg = SmallYcsb(kClusterNodes);
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycfg));
  cluster.Start();
  cluster.Stop();
  const YcsbWorkload reference(ycfg);
  for (NodeId id = 0; id < kClusterNodes; ++id) {
    const KeySets want = YcsbKeys(reference, ycfg, id);
    ExpectHolds(cluster.node(id).store(), want);
    ExpectMatchesSequentialLoad(reference, kClusterNodes, id,
                                cluster.node(id).store(), want);
  }
}

TEST(ParallelLoadTest, ThreadClusterTpccMatchesSequentialLoad) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = kClusterNodes;
  cfg.clients_per_node = 0;
  cfg.worker_threads = 2;
  const TpccConfig tcfg = SmallTpcc(kClusterNodes);
  ThreadCluster cluster(cfg, std::make_unique<TpccWorkload>(tcfg));
  cluster.Start();
  cluster.Stop();
  const TpccWorkload reference(tcfg);
  for (NodeId id = 0; id < kClusterNodes; ++id) {
    const KeySets want = TpccKeys(reference, tcfg, id);
    ExpectHolds(cluster.node(id).store(), want);
    ExpectMatchesSequentialLoad(reference, kClusterNodes, id,
                                cluster.node(id).store(), want);
  }
}

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

/// Minor page faults of this process across SimCluster::Start() for the
/// Fig. 11 sweep shape (16 partitions of ten-column rows, 32 clients per
/// node) with `rows` rows per partition.
uint64_t SweepStartFaults(uint64_t rows) {
  ClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.clients_per_node = 32;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.coalesce_transport = true;
  YcsbConfig ycfg;
  ycfg.num_partitions = 16;
  ycfg.rows_per_partition = rows;
  ycfg.partitions_per_txn = 2;
  ycfg.write_fraction = 0.5;
  ycfg.theta = 0.6;
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycfg));
  const uint64_t before = MinorFaults();
  cluster.Start();  // single-threaded: RUSAGE_SELF counts only this work
  const uint64_t faults = MinorFaults() - before;
  EXPECT_EQ(cluster.node(15).store().GetTable(YcsbWorkload::kTableId)->size(),
            rows);
  return faults;
}

TEST(PartitionLoadTest, SimClusterStartWritesNoTable) {
  // Creating a table maps its memory and writes none of it, so starting a
  // cluster of 65,536-row partitions must fault no more pages than one of
  // 1,024-row partitions; a load writing 16 bytes per row would add 4,096.
  // The small start, run first, also measures what Start() faults for the
  // clients' allocations, which a sanitizer runtime multiplies.
  const uint64_t baseline = SweepStartFaults(1024);
  const uint64_t faults = SweepStartFaults(65536);
  EXPECT_LT(faults, baseline + 256) << "baseline " << baseline;
}

}  // namespace
}  // namespace ecdb
