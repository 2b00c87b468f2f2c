#include "cc/lock_table.h"

#include <utility>

namespace ecdb {

bool LockTable::Acquire(TxnId txn, uint64_t /*ts*/, TableId table, Key key,
                        LockMode mode) {
  if (entries_.capacity() == 0) {
    // Sized on first use rather than at construction: protocol-level test
    // clusters build thousands of nodes that never take a lock.
    entries_.Reserve(256);
    held_by_txn_.Reserve(64);
  }
  const LockId id{table, key};
  Holders& holders = entries_[id];

  // Already a holder?
  for (Holder& holder : holders) {
    if (holder.txn != txn) continue;
    if (holder.mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;  // no-op re-acquire
    }
    // Shared -> exclusive upgrade: only valid as the sole holder.
    if (holders.size() != 1) return false;
    holder.mode = LockMode::kExclusive;
    return true;
  }

  // Only a shared request joins holders, and only shared ones.
  if (!holders.empty() && (mode == LockMode::kExclusive ||
                           holders.begin()->mode == LockMode::kExclusive)) {
    return false;
  }
  holders.push_back(Holder{txn, mode});
  auto [held, inserted] = held_by_txn_.Emplace(txn, LockIdList());
  if (inserted && !spare_lists_.empty()) {
    *held = std::move(spare_lists_.back());
    spare_lists_.pop_back();
  }
  held->push_back(id);
  return true;
}

void LockTable::ReleaseAll(TxnId txn) {
  LockIdList* held = held_by_txn_.Find(txn);
  if (held == nullptr) return;
  for (const LockId& id : *held) {
    Holders& holders = *entries_.Find(id);
    holders.EraseIf([&](const Holder& h) { return h.txn == txn; });
    if (holders.empty()) entries_.Erase(id);
  }
  held->clear();
  spare_lists_.push_back(std::move(*held));
  held_by_txn_.Erase(txn);
}

size_t LockTable::HeldCount(TxnId txn) const {
  const LockIdList* held = held_by_txn_.Find(txn);
  return held == nullptr ? 0 : held->size();
}

}  // namespace ecdb
