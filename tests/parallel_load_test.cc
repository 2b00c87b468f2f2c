// The hosts load every partition at once on loader threads before the run
// starts (LoadPartitions). Each load touches only its own PartitionStore,
// so after Start() every partition must hold exactly what a sequential
// LoadPartition into a fresh store produces. More partitions than cores,
// so loader threads take several partitions each. The loaders bulk-load
// dense key ranges (Table::InsertRange); a store built by one Insert per
// key, from the workloads' key encodings, is the independent reference.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "cluster/thread_node.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

uint32_t MorePartitionsThanCores() {
  return 2 * std::max(1u, std::thread::hardware_concurrency()) + 1;
}

/// One row as loaded: its key, version and cells.
using RowImage = std::tuple<Key, uint64_t, std::vector<uint64_t>>;

/// A table's name, width and rows, rows sorted by key.
struct TableImage {
  std::string name;
  uint32_t columns = 0;
  std::vector<RowImage> rows;
  bool operator==(const TableImage&) const = default;
};

std::vector<TableImage> ImageOf(const PartitionStore& store,
                                TableId max_table) {
  std::vector<TableImage> out;
  for (TableId id = 0; id <= max_table; ++id) {
    const Table* table = store.GetTable(id);
    if (table == nullptr) continue;
    TableImage image{table->name(), table->num_columns(), {}};
    table->ForEachRow([&](Key key, const Row& row) {
      const std::span<const uint64_t> cells = table->Columns(row);
      image.rows.emplace_back(key, row.version,
                              std::vector<uint64_t>(cells.begin(), cells.end()));
    });
    std::sort(image.rows.begin(), image.rows.end());
    out.push_back(std::move(image));
  }
  return out;
}

/// Checks node `id`'s store against a sequential load of its partition.
void ExpectSequentialImage(const Workload& workload, uint32_t num_partitions,
                           NodeId id, const PartitionStore& loaded,
                           TableId max_table) {
  PartitionStore fresh(id);
  workload.LoadPartition(&fresh, KeyPartitioner(num_partitions));
  ASSERT_EQ(loaded.num_tables(), fresh.num_tables()) << "node " << id;
  const std::vector<TableImage> want = ImageOf(fresh, max_table);
  ASSERT_FALSE(want.empty());
  for (const TableImage& table : want) ASSERT_FALSE(table.rows.empty());
  EXPECT_TRUE(ImageOf(loaded, max_table) == want) << "node " << id;
}

std::unique_ptr<Workload> Ycsb(uint32_t partitions) {
  YcsbConfig cfg;
  cfg.num_partitions = partitions;
  cfg.rows_per_partition = 2048;
  return std::make_unique<YcsbWorkload>(cfg);
}

std::unique_ptr<Workload> Tpcc(uint32_t partitions) {
  TpccConfig cfg;
  cfg.num_partitions = partitions;
  cfg.warehouses_per_partition = 1;
  return std::make_unique<TpccWorkload>(cfg);
}

void CheckSimCluster(std::unique_ptr<Workload> (*make)(uint32_t),
                     TableId max_table) {
  const uint32_t n = MorePartitionsThanCores();
  ClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.clients_per_node = 2;
  SimCluster cluster(cfg, make(n));
  cluster.Start();
  const std::unique_ptr<Workload> reference = make(n);
  for (NodeId id = 0; id < n; ++id) {
    ExpectSequentialImage(*reference, n, id, cluster.node(id).store(),
                          max_table);
  }
}

void CheckThreadCluster(std::unique_ptr<Workload> (*make)(uint32_t),
                        TableId max_table) {
  const uint32_t n = MorePartitionsThanCores();
  ThreadClusterConfig cfg;
  cfg.num_nodes = n;
  cfg.clients_per_node = 0;  // no transactions: the stores stay as loaded
  cfg.worker_threads = 2;
  ThreadCluster cluster(cfg, make(n));
  cluster.Start();
  cluster.Stop();
  const std::unique_ptr<Workload> reference = make(n);
  for (NodeId id = 0; id < n; ++id) {
    ExpectSequentialImage(*reference, n, id, cluster.node(id).store(),
                          max_table);
  }
}

/// A store with `loaded`'s schema whose rows come from Insert(key) per key.
PartitionStore PerKeyStore(const PartitionStore& loaded, TableId max_table,
                           const std::vector<std::vector<Key>>& keys) {
  PartitionStore out(loaded.id());
  for (TableId id = 0; id <= max_table; ++id) {
    const Table* table = loaded.GetTable(id);
    if (table == nullptr) continue;
    EXPECT_TRUE(
        out.CreateTable(id, table->name(), table->num_columns()).ok());
    for (Key key : keys[id]) {
      EXPECT_TRUE(out.GetTable(id)->Insert(key).ok()) << key;
    }
  }
  return out;
}

TEST(ParallelLoadTest, YcsbLoadMatchesPerKeyInserts) {
  constexpr uint32_t kParts = 3;
  YcsbConfig cfg;
  cfg.num_partitions = kParts;
  cfg.rows_per_partition = 777;
  const YcsbWorkload ycsb(cfg);
  for (PartitionId part = 0; part < kParts; ++part) {
    PartitionStore loaded(part);
    ycsb.LoadPartition(&loaded, KeyPartitioner(kParts));
    std::vector<std::vector<Key>> keys(1);
    for (uint64_t row = 0; row < cfg.rows_per_partition; ++row) {
      keys[YcsbWorkload::kTableId].push_back(ycsb.EncodeKey(part, row));
    }
    const PartitionStore want =
        PerKeyStore(loaded, YcsbWorkload::kTableId, keys);
    ASSERT_EQ(loaded.num_tables(), want.num_tables());
    EXPECT_TRUE(ImageOf(loaded, YcsbWorkload::kTableId) ==
                ImageOf(want, YcsbWorkload::kTableId))
        << "partition " << part;
  }
}

TEST(ParallelLoadTest, TpccLoadMatchesPerKeyInserts) {
  constexpr uint32_t kParts = 3;
  TpccConfig cfg;
  cfg.num_partitions = kParts;
  cfg.warehouses_per_partition = 2;  // warehouses p and p + 3 per partition
  cfg.customers_per_district = 8;
  cfg.items = 50;
  const TpccWorkload tpcc(cfg);
  for (PartitionId part = 0; part < kParts; ++part) {
    PartitionStore loaded(part);
    tpcc.LoadPartition(&loaded, KeyPartitioner(kParts));
    std::vector<std::vector<Key>> keys(TpccWorkload::kItem + 1);
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
    const PartitionStore want = PerKeyStore(loaded, TpccWorkload::kItem, keys);
    ASSERT_EQ(loaded.num_tables(), want.num_tables());
    const std::vector<TableImage> image = ImageOf(loaded, TpccWorkload::kItem);
    ASSERT_EQ(image.size(), 5u);
    for (const TableImage& table : image) ASSERT_FALSE(table.rows.empty());
    EXPECT_TRUE(image == ImageOf(want, TpccWorkload::kItem))
        << "partition " << part;
  }
}

TEST(ParallelLoadTest, SimClusterYcsbMatchesSequentialLoad) {
  CheckSimCluster(Ycsb, YcsbWorkload::kTableId);
}

TEST(ParallelLoadTest, SimClusterTpccMatchesSequentialLoad) {
  CheckSimCluster(Tpcc, TpccWorkload::kItem);
}

TEST(ParallelLoadTest, ThreadClusterYcsbMatchesSequentialLoad) {
  CheckThreadCluster(Ycsb, YcsbWorkload::kTableId);
}

TEST(ParallelLoadTest, ThreadClusterTpccMatchesSequentialLoad) {
  CheckThreadCluster(Tpcc, TpccWorkload::kItem);
}

}  // namespace
}  // namespace ecdb
