#ifndef ECDB_CC_LOCK_TABLE_H_
#define ECDB_CC_LOCK_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/inline_vector.h"
#include "common/operation.h"
#include "common/types.h"

namespace ecdb {

/// Lock compatibility: shared for reads, exclusive for writes.
enum class LockMode : uint8_t {
  kShared,
  kExclusive,
};

/// Deadlock-avoidance policy. The paper evaluates all protocols under
/// NO_WAIT ("a transaction requesting access to a locked record is
/// aborted"), the only policy implemented.
enum class CcPolicy : uint8_t {
  kNoWait,  // sole value, kept because ecbench/ladder.cc still names it
};

/// Per-partition NO_WAIT record lock table: tracks the current holders of
/// every locked (table, key). A request that conflicts with a holder is
/// refused at once, so no transaction ever waits and no deadlock can form.
/// Not thread safe: access is serialized by the owning node, like the
/// storage layer.
///
/// Hot-path layout: entries and the per-transaction held index live in
/// open-addressing FlatMaps (no per-node allocation, no bucket chains),
/// each entry keeps up to two holders inline (granting a lock allocates
/// nothing), and ReleaseAll touches only the entries its transaction holds.
class LockTable {
 public:
  explicit LockTable(CcPolicy = CcPolicy::kNoWait) {}

  /// Requests `mode` on (table, key) for `txn`; returns whether it is
  /// granted. A refused request leaves the table unchanged: the caller
  /// aborts the transaction and calls ReleaseAll.
  ///
  /// Re-acquiring a lock the transaction already holds is granted; a
  /// shared->exclusive upgrade is granted only to the sole holder.
  /// `ts` is ignored, kept because ecbench/ladder.cc still passes one.
  bool Acquire(TxnId txn, uint64_t /*ts*/, TableId table, Key key,
               LockMode mode);

  /// Releases every lock held by `txn`.
  void ReleaseAll(TxnId txn);

  /// Number of locks currently held by `txn`.
  size_t HeldCount(TxnId txn) const;

  /// Number of (table, key) entries with at least one holder.
  size_t ActiveEntries() const { return entries_.size(); }

 private:
  struct LockId {
    TableId table = 0;
    Key key = 0;
    bool operator==(const LockId&) const = default;
  };
  struct LockIdHash {
    size_t operator()(const LockId& id) const {
      uint64_t h = id.key * 0x9E3779B97f4A7C15ULL;
      h ^= static_cast<uint64_t>(id.table) << 17;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  /// One exclusive holder or any number of shared ones; a third shared
  /// holder spills to the heap.
  using Holders = InlineVector<Holder, 2>;
  using LockIdList = std::vector<LockId>;

  FlatMap<LockId, Holders, LockIdHash> entries_;
  FlatMap<TxnId, LockIdList> held_by_txn_;
  /// Recycled LockId lists: per-transaction index entries come and go with
  /// every attempt, so their heap buffers are pooled.
  std::vector<LockIdList> spare_lists_;
};

}  // namespace ecdb

#endif  // ECDB_CC_LOCK_TABLE_H_
