#include "workload/ycsb.h"

#include <algorithm>

#include "common/inline_vector.h"
#include "common/logging.h"

namespace ecdb {

YcsbWorkload::YcsbWorkload(YcsbConfig config)
    : config_(config), zipf_(config.rows_per_partition, config.theta) {
  ECDB_CHECK(config_.partitions_per_txn >= 1);
  ECDB_CHECK(config_.partitions_per_txn <= config_.num_partitions);
  ECDB_CHECK(config_.ops_per_txn >= config_.partitions_per_txn);
  // Writes update column 0 (PartitionStore rejects a zero-column table).
  ECDB_CHECK(config_.columns >= 1);
  // Distinct-key sampling must be able to terminate.
  ECDB_CHECK(config_.rows_per_partition >= config_.ops_per_txn);
  // Row ids are 32-bit.
  ECDB_CHECK(config_.rows_per_partition <= UINT32_MAX);
}

void YcsbWorkload::LoadPartition(PartitionStore* store,
                                 const KeyPartitioner& partitioner) const {
  ECDB_CHECK(partitioner.num_partitions() == config_.num_partitions);
  // Rows 0..R-1 of this partition: keys part, part + P, part + 2P, ...
  const Status created = store->CreateTable(
      kTableId, "usertable", config_.columns, EncodeKey(store->id(), 0),
      config_.num_partitions,
      static_cast<uint32_t>(config_.rows_per_partition));
  ECDB_CHECK(created.ok());
}

TxnRequest YcsbWorkload::NextTxn(PartitionId home, Rng& rng) {
  // Choose the partitions: home first, then distinct others. Eight inline
  // slots cover the fan-outs the figures use (2 to 6); a wider one spills
  // to the heap.
  InlineVector<PartitionId, 8> parts;
  parts.push_back(home);
  while (parts.size() < config_.partitions_per_txn) {
    const PartitionId p =
        static_cast<PartitionId>(rng.NextBounded(config_.num_partitions));
    if (std::find(parts.begin(), parts.end(), p) == parts.end()) {
      parts.push_back(p);
    }
  }

  // Operations round-robin across partitions; each transaction accesses
  // distinct keys (YCSB rows are picked Zipfian within the partition).
  TxnRequest request;
  request.ops.reserve(config_.ops_per_txn);
  for (uint32_t i = 0; i < config_.ops_per_txn; ++i) {
    const PartitionId part = parts[i % parts.size()];
    Operation op;
    op.table = kTableId;
    op.mode = rng.NextBernoulli(config_.write_fraction) ? AccessMode::kWrite
                                                        : AccessMode::kRead;
    // Retry until the key is new to this transaction; duplicates would
    // make lock acquisition order-dependent without adding contention.
    for (;;) {
      op.key = EncodeKey(part, zipf_.Next(rng));
      const bool dup =
          std::any_of(request.ops.begin(), request.ops.end(),
                      [&](const Operation& o) { return o.key == op.key; });
      if (!dup) break;
    }
    request.ops.push_back(op);
  }
  return request;
}

}  // namespace ecdb
