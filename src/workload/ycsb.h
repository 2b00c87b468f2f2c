#ifndef ECDB_WORKLOAD_YCSB_H_
#define ECDB_WORKLOAD_YCSB_H_

#include <cstdint>

#include "workload/workload.h"

namespace ecdb {

/// YCSB configuration, following Section 6.1. The paper's table has 16M
/// rows per partition x 1KB rows; contention behaviour is governed by the
/// Zipfian skew and access pattern, not absolute size, so the default row
/// count is scaled down (documented substitution in DESIGN.md).
struct YcsbConfig {
  uint32_t num_partitions = 16;

  /// Rows stored per partition.
  uint64_t rows_per_partition = 65536;

  /// Operations per transaction (the paper uses 10; 16 in Section 6.3).
  uint32_t ops_per_txn = 10;

  /// Partitions touched per transaction (paper default 2).
  uint32_t partitions_per_txn = 2;

  /// Probability an operation is a write (paper sweeps 10%..90% in
  /// Section 6.5; 50% is the 1:1 read-write ratio of Section 6.3).
  double write_fraction = 0.5;

  /// Zipfian skew (theta): ~0.1 uniform .. 0.9 extremely skewed.
  double theta = 0.6;

  /// Columns per row (the YCSB schema has 10 data columns).
  uint32_t columns = 10;
};

/// The Yahoo! Cloud Serving Benchmark as used in the paper: single table,
/// Zipfian-skewed accesses, every transaction multi-partition (single-
/// partition transactions exercise no commit protocol).
class YcsbWorkload : public Workload {
 public:
  static constexpr TableId kTableId = 0;

  explicit YcsbWorkload(YcsbConfig config);

  void LoadPartition(PartitionStore* store,
                     const KeyPartitioner& partitioner) const override;

  TxnRequest NextTxn(PartitionId home, Rng& rng) override;

  const YcsbConfig& config() const { return config_; }

  /// Global key of local row `row` in partition `part`: keys are striped
  /// so key % num_partitions == part (matching KeyPartitioner).
  Key EncodeKey(PartitionId part, uint64_t row) const {
    return static_cast<Key>(row) * config_.num_partitions + part;
  }

 private:
  YcsbConfig config_;
  ZipfianGenerator zipf_;
};

}  // namespace ecdb

#endif  // ECDB_WORKLOAD_YCSB_H_
