#include "workload/tpcc.h"

#include <algorithm>

#include "common/logging.h"

namespace ecdb {

namespace {
// Column counts are nominal; payload contents are not consulted by the
// evaluation, only row identity matters for locking.
constexpr uint32_t kWarehouseCols = 9;
constexpr uint32_t kDistrictCols = 11;
constexpr uint32_t kCustomerCols = 21;
constexpr uint32_t kStockCols = 17;
constexpr uint32_t kItemCols = 5;
}  // namespace

TpccWorkload::TpccWorkload(TpccConfig config) : config_(config) {
  ECDB_CHECK(config_.num_partitions >= 1);
  ECDB_CHECK(config_.warehouses_per_partition >= 1);
  ECDB_CHECK(config_.min_order_lines >= 1);
  ECDB_CHECK(config_.max_order_lines >= config_.min_order_lines);
}

// Encoding: key = row_number * P + partition, so key % P == partition.
// Row numbers are unique within each table+warehouse.

Key TpccWorkload::WarehouseKey(uint32_t w) const {
  const uint32_t P = config_.num_partitions;
  return static_cast<Key>(w / P) * P + (w % P);
}

Key TpccWorkload::DistrictKey(uint32_t w, uint32_t d) const {
  const uint32_t P = config_.num_partitions;
  const uint64_t row =
      static_cast<uint64_t>(w / P) * config_.districts_per_warehouse + d;
  return row * P + (w % P);
}

Key TpccWorkload::CustomerKey(uint32_t w, uint32_t d, uint32_t c) const {
  const uint32_t P = config_.num_partitions;
  const uint64_t row = (static_cast<uint64_t>(w / P) *
                            config_.districts_per_warehouse +
                        d) *
                           config_.customers_per_district +
                       c;
  return row * P + (w % P);
}

Key TpccWorkload::StockKey(uint32_t w, uint32_t item) const {
  const uint32_t P = config_.num_partitions;
  const uint64_t row = static_cast<uint64_t>(w / P) * config_.items + item;
  return row * P + (w % P);
}

Key TpccWorkload::ItemKey(PartitionId reader_home, uint32_t item) const {
  // ITEM is replicated: each partition stores a full copy and readers
  // address their local copy, so item reads never leave the node.
  return static_cast<Key>(item) * config_.num_partitions + reader_home;
}

void TpccWorkload::LoadPartition(PartitionStore* store,
                                 const KeyPartitioner& partitioner) const {
  ECDB_CHECK(partitioner.num_partitions() == config_.num_partitions);
  // The partition owns warehouses part, part + P, ... (w % P == part), so
  // each table's local row numbers run 0..n-1 and its keys row * P + part
  // form one progression with stride P.
  const PartitionId part = store->id();
  const uint32_t P = config_.num_partitions;
  const uint32_t warehouses = config_.warehouses_per_partition;
  const uint32_t districts = warehouses * config_.districts_per_warehouse;
  const auto create = [&](TableId id, const char* name, uint32_t columns,
                          Key first, uint32_t count) {
    ECDB_CHECK(store->CreateTable(id, name, columns, first, P, count).ok());
  };
  create(kWarehouse, "warehouse", kWarehouseCols, part, warehouses);
  create(kDistrict, "district", kDistrictCols, part, districts);
  create(kCustomer, "customer", kCustomerCols, part,
         districts * config_.customers_per_district);
  create(kStock, "stock", kStockCols, part, warehouses * config_.items);
  // Replicated ITEM copy for this partition.
  create(kItem, "item", kItemCols, ItemKey(part, 0), config_.items);
}

uint32_t TpccWorkload::HomeWarehouse(PartitionId home, Rng& rng) const {
  const uint32_t idx = static_cast<uint32_t>(
      rng.NextBounded(config_.warehouses_per_partition));
  return idx * config_.num_partitions + home;
}

TxnRequest TpccWorkload::NextTxn(PartitionId home, Rng& rng) {
  return rng.NextBernoulli(config_.payment_fraction) ? MakePayment(home, rng)
                                                     : MakeNewOrder(home, rng);
}

TxnRequest TpccWorkload::MakePayment(PartitionId home, Rng& rng) {
  // Payment: update local warehouse YTD, local district YTD, then the
  // customer's balance — 15% of customers belong to a remote warehouse.
  TxnRequest request;
  const uint32_t w = HomeWarehouse(home, rng);
  const uint32_t d = static_cast<uint32_t>(
      rng.NextBounded(config_.districts_per_warehouse));

  request.ops.push_back(
      {kWarehouse, WarehouseKey(w), AccessMode::kWrite});
  request.ops.push_back({kDistrict, DistrictKey(w, d), AccessMode::kWrite});

  uint32_t cw = w;
  if (total_warehouses() > 1 &&
      rng.NextBernoulli(config_.payment_remote_probability)) {
    do {
      cw = static_cast<uint32_t>(rng.NextBounded(total_warehouses()));
    } while (cw == w);
  }
  const uint32_t cd = static_cast<uint32_t>(
      rng.NextBounded(config_.districts_per_warehouse));
  const uint32_t c = static_cast<uint32_t>(
      rng.NextBounded(config_.customers_per_district));
  request.ops.push_back(
      {kCustomer, CustomerKey(cw, cd, c), AccessMode::kWrite});
  return request;
}

TxnRequest TpccWorkload::MakeNewOrder(PartitionId home, Rng& rng) {
  // NewOrder: read local warehouse, read+modify the district (order id
  // counter), then for each order line read the (replicated) item and
  // update the supplying warehouse's stock — 1% of lines supply remotely.
  TxnRequest request;
  const uint32_t w = HomeWarehouse(home, rng);
  const uint32_t d = static_cast<uint32_t>(
      rng.NextBounded(config_.districts_per_warehouse));

  request.ops.push_back({kWarehouse, WarehouseKey(w), AccessMode::kRead});
  request.ops.push_back({kDistrict, DistrictKey(w, d), AccessMode::kWrite});

  const uint32_t lines = static_cast<uint32_t>(rng.NextInRange(
      config_.min_order_lines, config_.max_order_lines));
  for (uint32_t l = 0; l < lines; ++l) {
    const uint32_t item =
        static_cast<uint32_t>(rng.NextBounded(config_.items));
    request.ops.push_back({kItem, ItemKey(home, item), AccessMode::kRead});

    uint32_t sw = w;
    if (total_warehouses() > 1 &&
        rng.NextBernoulli(config_.neworder_remote_item_probability)) {
      do {
        sw = static_cast<uint32_t>(rng.NextBounded(total_warehouses()));
      } while (sw == w);
    }
    const Key stock_key = StockKey(sw, item);
    // The same (warehouse, item) stock row may repeat across order lines;
    // keep one write (re-acquisition is a no-op but duplicate undo entries
    // would restore stale values on rollback).
    const bool dup = std::any_of(
        request.ops.begin(), request.ops.end(), [&](const Operation& op) {
          return op.table == kStock && op.key == stock_key;
        });
    if (!dup) {
      request.ops.push_back({kStock, stock_key, AccessMode::kWrite});
    }
  }
  return request;
}

}  // namespace ecdb
