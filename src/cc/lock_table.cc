#include "cc/lock_table.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ecdb {

AcquireResult LockTable::Acquire(TxnId txn, uint64_t ts, TableId table,
                                 Key key, LockMode mode,
                                 GrantCallback on_grant) {
  if (entries_.capacity() == 0) {
    // Sized on first use rather than at construction: protocol-level test
    // clusters build thousands of nodes that never take a lock.
    entries_.Reserve(256);
    held_by_txn_.Reserve(64);
  }
  const LockId id{table, key};
  Entry& entry = entries_[id];

  // Already a holder?
  for (Holder& holder : entry.holders) {
    if (holder.txn != txn) continue;
    if (holder.mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return AcquireResult::kGranted;  // no-op re-acquire
    }
    // Shared -> exclusive upgrade: only valid as the sole holder.
    if (entry.holders.size() == 1) {
      holder.mode = LockMode::kExclusive;
      return AcquireResult::kGranted;
    }
    // Upgrade conflicts with other shared holders; fall through to policy.
    break;
  }

  const bool compatible = std::all_of(
      entry.holders.begin(), entry.holders.end(), [&](const Holder& h) {
        return h.txn == txn || Compatible(h.mode, mode);
      });

  // A compatible request still queues behind existing waiters (fairness;
  // also prevents shared requests starving a queued exclusive).
  if (compatible && entry.queue.empty()) {
    entry.holders.push_back(Holder{txn, mode, ts});
    AddToIndex(held_by_txn_, txn, id);
    return AcquireResult::kGranted;
  }

  if (policy_ == CcPolicy::kNoWait) {
    conflict_aborts_++;
    if (entry.holders.empty() && entry.queue.empty()) {
      entries_.Erase(id);  // freshly created by this request: drop it again
    }
    return AcquireResult::kAbort;
  }

  // WAIT_DIE: wait only if older (smaller ts) than every conflicting
  // holder; otherwise die.
  for (const Holder& holder : entry.holders) {
    if (holder.txn == txn) continue;
    if (!Compatible(holder.mode, mode) && ts >= holder.ts) {
      conflict_aborts_++;
      return AcquireResult::kAbort;
    }
  }
  // FIFO queueing also makes us wait behind every queued waiter; a
  // young->old wait edge there would break the deadlock-freedom argument,
  // so the age test applies to the queue as well.
  for (const Waiter& waiter : entry.queue) {
    if (waiter.txn != txn && ts >= waiter.ts) {
      conflict_aborts_++;
      return AcquireResult::kAbort;
    }
  }
  entry.queue.push_back(Waiter{txn, mode, ts, std::move(on_grant)});
  AddToIndex(waiting_by_txn_, txn, id);
  return AcquireResult::kWaiting;
}

void LockTable::PromoteWaiters(const LockId& id, Entry& entry,
                               std::vector<GrantCallback>& fired) {
  while (!entry.queue.empty()) {
    Waiter& head = entry.queue.front();
    // The waiter's own holder entry (a queued shared->exclusive upgrade)
    // never conflicts with its own request.
    const bool compatible = std::all_of(
        entry.holders.begin(), entry.holders.end(), [&](const Holder& h) {
          return h.txn == head.txn || Compatible(h.mode, head.mode);
        });
    if (!compatible) break;
    auto self = std::find_if(
        entry.holders.begin(), entry.holders.end(),
        [&](const Holder& h) { return h.txn == head.txn; });
    if (self != entry.holders.end()) {
      // Upgrade in place; the id is already in held_by_txn_.
      if (head.mode == LockMode::kExclusive) {
        self->mode = LockMode::kExclusive;
      }
    } else {
      entry.holders.push_back(Holder{head.txn, head.mode, head.ts});
      AddToIndex(held_by_txn_, head.txn, id);
    }
    RemoveFromIndex(waiting_by_txn_, head.txn, id);
    if (head.on_grant) fired.push_back(std::move(head.on_grant));
    entry.queue.erase(entry.queue.begin());
  }
}

void LockTable::AddToIndex(FlatMap<TxnId, LockIdList>& index, TxnId txn,
                           const LockId& id) {
  auto [list, inserted] = index.Emplace(txn, LockIdList());
  if (inserted && !spare_lists_.empty()) {
    *list = std::move(spare_lists_.back());
    spare_lists_.pop_back();
  }
  list->push_back(id);
}

void LockTable::RemoveFromIndex(FlatMap<TxnId, LockIdList>& index, TxnId txn,
                                const LockId& id) {
  LockIdList* list = index.Find(txn);
  if (list == nullptr) return;
  auto it = std::find(list->begin(), list->end(), id);
  if (it == list->end()) return;
  *it = list->back();
  list->pop_back();
  if (list->empty()) {
    RecycleList(std::move(*list));
    index.Erase(txn);
  }
}

LockTable::LockIdList LockTable::TakeList(FlatMap<TxnId, LockIdList>& index,
                                          TxnId txn) {
  LockIdList* list = index.Find(txn);
  if (list == nullptr) return {};
  LockIdList taken = std::move(*list);
  index.Erase(txn);
  return taken;
}

void LockTable::ReleaseAll(TxnId txn) {
  std::vector<GrantCallback> fired;

  // The lists are moved out before processing: PromoteWaiters re-enters the
  // indices (new holders, un-waited transactions) and may rehash them, so
  // no reference into a FlatMap survives across it.
  LockIdList held = TakeList(held_by_txn_, txn);
  for (const LockId& id : held) {
    Entry* entry = entries_.Find(id);
    if (entry == nullptr) continue;
    entry->holders.EraseIf([&](const Holder& h) { return h.txn == txn; });
    PromoteWaiters(id, *entry, fired);
    if (entry->holders.empty() && entry->queue.empty()) {
      entries_.Erase(id);
    }
  }
  if (!held.empty() || held.capacity() > 0) RecycleList(std::move(held));

  // Remove any queued (still waiting) requests from this transaction, e.g.
  // when a waiting transaction is aborted by the protocol. The waiting
  // index points straight at the affected entries; under NO_WAIT it is
  // always empty and this whole phase is skipped.
  if (policy_ == CcPolicy::kWaitDie) {
    LockIdList waited = TakeList(waiting_by_txn_, txn);
    for (const LockId& id : waited) {
      Entry* entry = entries_.Find(id);
      if (entry == nullptr) continue;
      const size_t before = entry->queue.size();
      entry->queue.erase(
          std::remove_if(entry->queue.begin(), entry->queue.end(),
                         [&](const Waiter& w) { return w.txn == txn; }),
          entry->queue.end());
      if (entry->queue.size() != before) {
        PromoteWaiters(id, *entry, fired);
      }
      if (entry->holders.empty() && entry->queue.empty()) {
        entries_.Erase(id);
      }
    }
    if (!waited.empty() || waited.capacity() > 0) {
      RecycleList(std::move(waited));
    }
  }

  // Fire grant callbacks after the table is consistent.
  for (GrantCallback& cb : fired) cb();
}

size_t LockTable::HeldCount(TxnId txn) const {
  const LockIdList* list = held_by_txn_.Find(txn);
  return list == nullptr ? 0 : list->size();
}

}  // namespace ecdb
