#ifndef ECDB_CC_LOCK_TABLE_H_
#define ECDB_CC_LOCK_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/inline_vector.h"
#include "common/operation.h"
#include "common/types.h"
#include "sim/task.h"

namespace ecdb {

/// Lock compatibility: shared for reads, exclusive for writes.
enum class LockMode : uint8_t {
  kShared,
  kExclusive,
};

/// Outcome of a lock request.
enum class AcquireResult : uint8_t {
  kGranted,  // lock held; proceed
  kWaiting,  // queued (WAIT_DIE only); on_grant fires later
  kAbort,    // conflict; transaction must abort (NO_WAIT, or WAIT_DIE "die")
};

/// Deadlock-avoidance policy. The paper evaluates all protocols under
/// NO_WAIT ("a transaction requesting access to a locked record is
/// aborted"); WAIT_DIE is provided as an extension since ExpoDB supports
/// multiple concurrency control algorithms.
enum class CcPolicy : uint8_t {
  kNoWait,
  kWaitDie,
};

/// Per-partition record lock table. Tracks, for every locked (table, key),
/// the current holders and (under WAIT_DIE) a FIFO wait queue. Not thread
/// safe: access is serialized by the owning node, like the storage layer.
///
/// Both policies are deadlock-free by construction: NO_WAIT never waits and
/// WAIT_DIE only lets older transactions wait for younger holders, so the
/// waits-for graph cannot contain a cycle.
///
/// Hot-path layout: entries and the per-transaction held/waiting indices
/// live in open-addressing FlatMaps (no per-node allocation, no bucket
/// chains), each entry keeps up to two holders inline (granting a lock
/// allocates nothing), grant callbacks are inline TaskFns (no
/// std::function heap spill), and ReleaseAll touches only the entries its
/// transaction actually holds or awaits — the waiting index replaces the
/// previous scan-every-entry queue cleanup.
class LockTable {
 public:
  /// Inline, move-only grant callback (WAIT_DIE). TaskFn's 104-byte buffer
  /// absorbs every capture the runtimes use, so queueing a waiter does not
  /// heap-allocate the way std::function did.
  using GrantCallback = TaskFn;

  explicit LockTable(CcPolicy policy) : policy_(policy) {}

  CcPolicy policy() const { return policy_; }

  /// Requests `mode` on (table, key) for `txn` whose priority timestamp is
  /// `ts` (smaller = older, only meaningful under WAIT_DIE). If the result
  /// is kWaiting, `on_grant` is invoked when the lock is eventually granted
  /// (possibly from inside another transaction's ReleaseAll).
  ///
  /// Re-acquiring a lock the transaction already holds is granted
  /// immediately; a shared->exclusive upgrade succeeds only when the
  /// transaction is the sole holder, and otherwise follows the policy.
  AcquireResult Acquire(TxnId txn, uint64_t ts, TableId table, Key key,
                        LockMode mode, GrantCallback on_grant = {});

  /// Releases every lock held or awaited by `txn`, granting queued
  /// compatible requests. Grant callbacks run inside this call.
  void ReleaseAll(TxnId txn);

  /// Number of locks currently held by `txn`.
  size_t HeldCount(TxnId txn) const;

  /// Number of (table, key) entries with at least one holder or waiter.
  size_t ActiveEntries() const { return entries_.size(); }

  /// Total times Acquire returned kAbort; feeds the abort-rate statistics.
  uint64_t conflict_aborts() const { return conflict_aborts_; }

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
    uint64_t ts;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    uint64_t ts;
    GrantCallback on_grant;
  };
  struct Entry {
    InlineVector<Holder, 2> holders;  // a third shared holder spills
    std::vector<Waiter> queue;  // FIFO; head at index 0
  };
  using LockIdList = std::vector<LockId>;

  static bool Compatible(LockMode held, LockMode requested) {
    return held == LockMode::kShared && requested == LockMode::kShared;
  }

  /// Grants queue heads that are now compatible with the holders.
  void PromoteWaiters(const LockId& id, Entry& entry,
                      std::vector<GrantCallback>& fired);

  /// Appends `id` to `txn`'s list in `index`, recycling pooled capacity.
  void AddToIndex(FlatMap<TxnId, LockIdList>& index, TxnId txn,
                  const LockId& id);

  /// Removes one occurrence of `id` from `txn`'s list in `index`.
  void RemoveFromIndex(FlatMap<TxnId, LockIdList>& index, TxnId txn,
                       const LockId& id);

  /// Moves `txn`'s list out of `index` (empty when absent) so the caller
  /// can iterate it safely while the index is mutated.
  LockIdList TakeList(FlatMap<TxnId, LockIdList>& index, TxnId txn);

  void RecycleList(LockIdList&& list) {
    list.clear();
    spare_lists_.push_back(std::move(list));
  }

  CcPolicy policy_;
  FlatMap<LockId, Entry, LockIdHash> entries_;
  FlatMap<TxnId, LockIdList> held_by_txn_;
  /// WAIT_DIE only: the entries on whose queue each transaction currently
  /// waits. Lets ReleaseAll remove queued requests without scanning every
  /// entry (under NO_WAIT it stays empty and the phase is skipped).
  FlatMap<TxnId, LockIdList> waiting_by_txn_;
  /// Recycled LockId lists: per-transaction index entries come and go with
  /// every attempt, so their heap buffers are pooled.
  std::vector<LockIdList> spare_lists_;
  uint64_t conflict_aborts_ = 0;
};

}  // namespace ecdb

#endif  // ECDB_CC_LOCK_TABLE_H_
