// The hosts load every partition at once on loader threads before the run
// starts (LoadPartitions). Each load touches only its own PartitionStore,
// so after Start() every partition must hold exactly what a sequential
// LoadPartition into a fresh store produces. More partitions than cores,
// so loader threads take several partitions each.

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
