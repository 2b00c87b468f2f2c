#include "commit/invariants.h"

#include <optional>

#include "common/logging.h"

namespace ecdb {

StateClass ClassOf(CohortState state) {
  switch (state) {
    case CohortState::kInitial:
    case CohortState::kReady:
    case CohortState::kWait:
    case CohortState::kPreCommit:
    case CohortState::kPreAbort:  // E3PC attempt value; not yet decided
      return StateClass::kUndecided;
    case CohortState::kTransmitA:
      return StateClass::kTransmitA;
    case CohortState::kTransmitC:
      return StateClass::kTransmitC;
    case CohortState::kAborted:
      return StateClass::kAbort;
    case CohortState::kCommitted:
      return StateClass::kCommit;
  }
  return StateClass::kUndecided;
}

bool CanCoexist(StateClass a, StateClass b) {
  // Figure 7, symmetric. Row/column order:
  // UNDECIDED, TRANSMIT-A, TRANSMIT-C, ABORT, COMMIT.
  static constexpr bool kTable[5][5] = {
      //            UND    T-A    T-C    ABORT  COMMIT
      /* UND    */ {true,  true,  true,  false, false},
      /* T-A    */ {true,  true,  false, true,  false},
      /* T-C    */ {true,  false, true,  false, true},
      /* ABORT  */ {false, true,  false, true,  false},
      /* COMMIT */ {false, false, true,  false, true},
  };
  return kTable[static_cast<int>(a)][static_cast<int>(b)];
}

SafetyMonitor::~SafetyMonitor() {
  for (std::atomic<Chunk*>& chunk : chunks_) {
    delete chunk.load(std::memory_order_relaxed);
  }
}

SafetyMonitor::NodeLog& SafetyMonitor::LogOf(NodeId node) {
  ECDB_CHECK(node < kChunks * kLogsPerChunk);  // txn ids hold 16-bit ids
  std::atomic<Chunk*>& slot = chunks_[node / kLogsPerChunk];
  Chunk* chunk = slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    Chunk* created = new Chunk;
    if (slot.compare_exchange_strong(chunk, created,
                                     std::memory_order_acq_rel)) {
      chunk = created;
    } else {
      delete created;  // another thread created it first, now in `chunk`
    }
  }
  return chunk->logs[node % kLogsPerChunk];
}

void SafetyMonitor::RecordApplied(TxnId txn, NodeId node, Decision decision) {
  NodeLog& log = LogOf(node);
  std::lock_guard<std::mutex> lock(log.mu);
  log.records.push_back(Record{txn, decision, /*blocked=*/false});
}

void SafetyMonitor::RecordBlocked(TxnId txn, NodeId node) {
  NodeLog& log = LogOf(node);
  std::lock_guard<std::mutex> lock(log.mu);
  log.records.push_back(Record{txn, Decision::kAbort, /*blocked=*/true});
}

void SafetyMonitor::Fold() const {
  for (const std::atomic<Chunk*>& slot : chunks_) {
    Chunk* chunk = slot.load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (size_t i = 0; i < kLogsPerChunk; ++i) {
      std::vector<Record> records;
      {
        NodeLog& log = chunk->logs[i];
        std::lock_guard<std::mutex> lock(log.mu);
        records.swap(log.records);
      }
      const NodeId node =
          static_cast<NodeId>(&slot - chunks_.data()) * kLogsPerChunk + i;
      for (const Record& r : records) {
        if (r.blocked) {
          blocked_reports_++;
          blocked_[r.txn]++;
          continue;
        }
        // Until the first record that disagrees with the first one, every
        // applier holds the first one's decision, so comparing with the
        // appliers flags exactly the transactions whose records hold both
        // decisions, in whatever order the logs are folded.
        PerTxn& per = txns_[r.txn];
        bool found = false;
        for (Applier& applier : per.applied) {
          if (applier.decision != r.decision) per.conflict = true;
          if (applier.node == node) {
            applier.decision = r.decision;  // the node's last record wins
            found = true;
          }
        }
        if (!found) per.applied.push_back(Applier{node, r.decision});
      }
    }
  }
}

std::vector<TxnId> SafetyMonitor::Violations() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  Fold();
  std::vector<TxnId> out;
  for (const auto& slot : txns_) {
    if (slot.value.conflict) out.push_back(slot.key);
  }
  return out;
}

uint64_t SafetyMonitor::blocked_reports() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  Fold();
  return blocked_reports_;
}

size_t SafetyMonitor::BlockedTxnCount() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  Fold();
  return blocked_.size();
}

std::optional<Decision> SafetyMonitor::DecisionOf(TxnId txn,
                                                  NodeId node) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  Fold();
  const PerTxn* per = txns_.Find(txn);
  if (per == nullptr) return std::nullopt;
  for (const Applier& applier : per->applied) {
    if (applier.node == node) return applier.decision;
  }
  return std::nullopt;
}

std::vector<std::pair<NodeId, Decision>> SafetyMonitor::AppliedFor(
    TxnId txn) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  Fold();
  const PerTxn* per = txns_.Find(txn);
  std::vector<std::pair<NodeId, Decision>> out;
  if (per == nullptr) return out;
  for (const Applier& applier : per->applied) {
    out.emplace_back(applier.node, applier.decision);
  }
  return out;
}

}  // namespace ecdb
