#ifndef ECDB_WORKLOAD_TPCC_H_
#define ECDB_WORKLOAD_TPCC_H_

#include <cstdint>

#include "workload/workload.h"

namespace ecdb {

/// TPC-C configuration matching Section 6.1: ExpoDB supports the Payment
/// and NewOrder transactions; tables are partitioned by warehouse id and
/// the read-only ITEM table is replicated at every node.
struct TpccConfig {
  uint32_t num_partitions = 16;

  /// Warehouses per partition (node).
  uint32_t warehouses_per_partition = 4;

  /// Fraction of transactions that are Payment (rest NewOrder).
  double payment_fraction = 0.5;

  /// Probability a Payment customer belongs to a remote warehouse
  /// (paper: 0.15).
  double payment_remote_probability = 0.15;

  /// Per-order-line probability that the supplying warehouse is remote
  /// (TPC-C: 0.01, which makes ~10% of NewOrders multi-partition; the
  /// paper reports ~10% of NewOrder updates requiring remote access).
  double neworder_remote_item_probability = 0.01;

  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 64;  // scaled down from 3000
  uint32_t items = 1024;                 // scaled down from 100000
  uint32_t min_order_lines = 5;
  uint32_t max_order_lines = 15;
};

/// TPC-C (Payment + NewOrder) over warehouse-partitioned tables. Key
/// encoding stripes keys so KeyPartitioner's `key % P` routes each row to
/// the partition owning its warehouse; the replicated ITEM table uses the
/// reader's home partition so item reads are always local.
class TpccWorkload : public Workload {
 public:
  enum TableIds : TableId {
    kWarehouse = 0,
    kDistrict = 1,
    kCustomer = 2,
    kStock = 3,
    kItem = 4,  // read-only, replicated at every partition
  };

  explicit TpccWorkload(TpccConfig config);

  void LoadPartition(PartitionStore* store,
                     const KeyPartitioner& partitioner) const override;

  TxnRequest NextTxn(PartitionId home, Rng& rng) override;

  const TpccConfig& config() const { return config_; }

  uint32_t total_warehouses() const {
    return config_.num_partitions * config_.warehouses_per_partition;
  }

  /// Partition owning warehouse `w`.
  PartitionId PartitionOfWarehouse(uint32_t w) const {
    return w % config_.num_partitions;
  }

  // Key encodings (row-number striped by partition, see class comment).
  Key WarehouseKey(uint32_t w) const;
  Key DistrictKey(uint32_t w, uint32_t d) const;
  Key CustomerKey(uint32_t w, uint32_t d, uint32_t c) const;
  Key StockKey(uint32_t w, uint32_t item) const;
  Key ItemKey(PartitionId reader_home, uint32_t item) const;

 private:
  TxnRequest MakePayment(PartitionId home, Rng& rng);
  TxnRequest MakeNewOrder(PartitionId home, Rng& rng);

  /// A warehouse homed on partition `home`.
  uint32_t HomeWarehouse(PartitionId home, Rng& rng) const;

  TpccConfig config_;
};

}  // namespace ecdb

#endif  // ECDB_WORKLOAD_TPCC_H_
