#include "commit/recovery.h"

#include <algorithm>
#include <unordered_map>

namespace ecdb {

RecoveryAction RecoveryManager::AnalyzeRecord(
    std::optional<LogRecordType> last) {
  if (!last.has_value()) return RecoveryAction::kAbort;
  // Rule iii: a logged decision drives recovery.
  if (const auto decision = DecisionOf(*last)) {
    return *decision == Decision::kCommit ? RecoveryAction::kCommit
                                          : RecoveryAction::kAbort;
  }
  // Coordinator failed before reaching a decision (rule ii).
  if (*last == LogRecordType::kBeginCommit) return RecoveryAction::kAbort;
  // Voted commit (ready, pre-commit) or accepted a quorum-termination
  // attempt (pre-abort): the decision may have gone either way. Snapshot
  // entries carry epochs/ballots, not an outcome: the hosts reseed the
  // engine from them and then consult.
  return RecoveryAction::kConsultPeers;
}

RecoveryPlan RecoveryManager::Plan(const std::vector<LogRecord>& log,
                                   NodeId self) {
  // Per transaction, pointers into `log`: valid for this pass only, since
  // recovery appends to the same log once it acts on the plan.
  struct Fold {
    LogRecordType last = LogRecordType::kBeginCommit;
    const LogRecord* milestone = nullptr;
    const LogRecord* listed = nullptr;  // first begin-commit/ready list
    const LogRecord* quorum = nullptr;
    const LogRecord* paxos = nullptr;
  };
  RecoveryPlan plan;
  // One insertion attempt per record, in log order: the map's iteration
  // order, which is the order recovery acts in, follows from that key
  // sequence alone.
  std::unordered_map<TxnId, Fold> folds;
  for (const LogRecord& r : log) {
    Fold& fold = folds[r.txn];
    fold.last = r.type;
    if (r.type == LogRecordType::kQuorumState) {
      fold.quorum = &r;
    } else if (r.type == LogRecordType::kPaxosState) {
      fold.paxos = &r;
    } else {
      fold.milestone = &r;
      // Snapshot entries reuse `participants` as a packed payload; only
      // begin-commit/ready carry a membership list.
      if (fold.listed == nullptr && !r.participants.empty() &&
          (r.type == LogRecordType::kBeginCommit ||
           r.type == LogRecordType::kReady)) {
        fold.listed = &r;
      }
    }
    if (const auto decision = DecisionOf(r.type)) {
      plan.decisions.emplace_back(r.txn, *decision);
    }
    if (TxnCoordinator(r.txn) == self) {
      plan.max_own_seq = std::max(plan.max_own_seq, TxnSequence(r.txn));
    }
  }

  for (const auto& [txn, fold] : folds) {
    if (fold.last == LogRecordType::kTransactionCommit ||
        fold.last == LogRecordType::kTransactionAbort) {
      continue;
    }
    InFlightTxn& t = plan.in_flight.emplace_back();
    t.txn = txn;
    if (fold.quorum != nullptr) t.quorum_state = fold.quorum->participants;
    if (fold.paxos != nullptr) t.paxos_state = fold.paxos->participants;
    if (fold.milestone == nullptr) continue;
    t.has_milestone = true;
    const LogRecordType last = fold.milestone->type;
    t.action = AnalyzeRecord(last);
    if (last == LogRecordType::kPreCommit) {
      t.resume_state = CohortState::kPreCommit;
    } else if (last == LogRecordType::kPreAbort) {
      t.resume_state = CohortState::kPreAbort;
    }
    t.participants = fold.milestone->participants;
    if (t.participants.empty() && fold.listed != nullptr) {
      t.participants = fold.listed->participants;
    }
  }
  return plan;
}

}  // namespace ecdb
