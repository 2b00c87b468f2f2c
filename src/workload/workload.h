#ifndef ECDB_WORKLOAD_WORKLOAD_H_
#define ECDB_WORKLOAD_WORKLOAD_H_

#include <vector>

#include "common/operation.h"
#include "common/rng.h"
#include "common/types.h"
#include "storage/table.h"

namespace ecdb {

/// A client's transaction request: the stored procedure's full read/write
/// set, compiled to operations. (ExpoDB transactions are stored procedures;
/// the data accesses are what the execution engine and commit protocol
/// see.)
struct TxnRequest {
  std::vector<Operation> ops;

  bool HasWrites() const {
    for (const Operation& op : ops) {
      if (op.is_write()) return true;
    }
    return false;
  }
};

/// A benchmark workload: knows how to populate each partition and how to
/// generate transaction requests for clients attached to a given node.
/// Implementations must be deterministic given the Rng stream.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Creates this workload's tables in `store`, holding the rows owned by
  /// partition `store->id()`. A pure function of the workload's
  /// configuration and the partition id.
  virtual void LoadPartition(PartitionStore* store,
                             const KeyPartitioner& partitioner) const = 0;

  /// Generates the next transaction for a client homed at `home`. The
  /// transaction's first accessed partition is the home partition (the
  /// coordinating server), as in Deneva/ExpoDB.
  virtual TxnRequest NextTxn(PartitionId home, Rng& rng) = 0;
};

}  // namespace ecdb

#endif  // ECDB_WORKLOAD_WORKLOAD_H_
