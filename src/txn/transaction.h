#ifndef ECDB_TXN_TRANSACTION_H_
#define ECDB_TXN_TRANSACTION_H_

#include <cstdint>
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

/// Participant-side state for a remote fragment: its coordinator, the
/// participant list that arrived on the kRemoteExec message, and undo
/// information for rollback.
struct FragmentState {
  TxnId txn = kInvalidTxn;
  NodeId coordinator = kInvalidNode;
  CowVector<NodeId> participants;
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
