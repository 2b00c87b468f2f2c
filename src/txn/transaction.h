#ifndef ECDB_TXN_TRANSACTION_H_
#define ECDB_TXN_TRANSACTION_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cow_vector.h"
#include "common/operation.h"
#include "common/types.h"

namespace ecdb {

/// Before-image of one write, kept while a transaction is in flight so an
/// abort can restore the row (in-place update + undo, 2PL style). A write
/// changes exactly column 0 and the version, so the record holds the row
/// id and exactly those two words: fixed-size, no heap copy of the row.
struct UndoRecord {
  TableId table = 0;
  uint32_t row = 0;  // the row's id in `table` (storage RowId)
  uint64_t old_column0 = 0;
  uint64_t old_version = 0;
};

/// Final fate of a transaction attempt.
enum class TxnOutcome : uint8_t {
  kInFlight,
  kCommitted,
  kAborted,   // will be retried by the client model after backoff
  kBlocked,   // commit protocol blocked (2PC under multi-failure)
};

/// Lifecycle phase of a coordinator-side transaction.
enum class TxnPhase : uint8_t {
  kExecuting,   // running operations on local/remote partitions
  kCommitting,  // commit protocol in progress
  kFinished,    // outcome decided and applied
};

/// Coordinator-side state for one transaction attempt. The stored-procedure
/// model from the paper: the client submits the full read/write set, the
/// coordinating server executes local operations, ships remote fragments,
/// then runs the commit protocol.
struct Transaction {
  TxnId id = kInvalidTxn;
  NodeId coordinator = kInvalidNode;

  /// Full operation list (the stored procedure's data accesses).
  std::vector<Operation> ops;

  /// Operations grouped by owning partition, computed at start.
  std::unordered_map<PartitionId, std::vector<Operation>> fragments;

  /// Remote nodes whose kRemoteExecOk is still outstanding.
  std::unordered_set<NodeId> pending_remote;

  /// Priority timestamp for WAIT_DIE (assigned at first start so retries
  /// keep their age and eventually win).
  uint64_t priority_ts = 0;

  Micros first_start_us = 0;    // first attempt start (latency anchor)
  Micros attempt_start_us = 0;  // current attempt start
  uint32_t attempts = 0;

  TxnPhase phase = TxnPhase::kExecuting;
  TxnOutcome outcome = TxnOutcome::kInFlight;

  /// True when any operation writes; read-only transactions skip the
  /// commit protocol entirely (paper Section 5.2).
  bool has_writes = false;

  /// True when operations span more than one partition; single-partition
  /// transactions also skip the commit protocol.
  bool is_multi_partition = false;

  /// Participant nodes (coordinator first), fixed at start of commit.
  std::vector<NodeId> participants;
};

/// Participant-side state for a remote fragment: the operations executed on
/// behalf of a coordinator plus undo information for rollback. The
/// participant list and operations arrive on a kRemoteExec message; storing
/// them as copy-on-write vectors shares the message's buffers instead of
/// deep-copying them into every fragment.
struct FragmentState {
  TxnId txn = kInvalidTxn;
  NodeId coordinator = kInvalidNode;
  CowVector<NodeId> participants;
  CowVector<Operation> ops;
  std::vector<UndoRecord> undo;
};

/// Allocates coordinator-local transaction ids.
class TxnIdAllocator {
 public:
  explicit TxnIdAllocator(NodeId node) : node_(node) {}

  TxnId Next() { return MakeTxnId(node_, seq_++); }

  /// Bumps the next sequence past `max_seen_seq`. A restarted process-level
  /// host replays its WAL and reseeds with the highest self-coordinated
  /// sequence it logged, so post-restart transactions can never collide
  /// with pre-crash ids still held in peers' decision ledgers. (The
  /// in-process hosts keep allocator state across Crash()/Recover(), so
  /// only real process restarts need this.)
  void Reseed(uint64_t max_seen_seq) {
    if (max_seen_seq >= seq_) seq_ = max_seen_seq + 1;
  }

 private:
  NodeId node_;
  uint64_t seq_ = 1;
};

}  // namespace ecdb

#endif  // ECDB_TXN_TRANSACTION_H_
