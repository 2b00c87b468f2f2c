#ifndef ECDB_COMMIT_RECOVERY_H_
#define ECDB_COMMIT_RECOVERY_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/cow_vector.h"
#include "common/types.h"
#include "net/message.h"
#include "wal/log_record.h"

namespace ecdb {

/// What a recovering node should do with a transaction that was in flight
/// when it crashed.
enum class RecoveryAction : uint8_t {
  kAbort,         // independently abort (rules i and ii of Section 4.2)
  kCommit,        // independently commit (rule iii, commit decision logged)
  kConsultPeers,  // outcome unknowable locally; ask active participants
};

/// One transaction the log leaves in flight (protocol activity but no
/// transaction-commit/abort entry), folded from all of its records.
struct InFlightTxn {
  TxnId txn = kInvalidTxn;
  /// False when the transaction has only quorum snapshot records: Paxos
  /// acceptor duties for a transaction this node never carried as an RM.
  /// Its promises and accepts must still be reseeded (acceptor amnesia
  /// lets two ballots choose differently), but there is nothing to resume.
  bool has_milestone = false;
  /// RecoveryManager::AnalyzeRecord of the last milestone entry; this and
  /// the two fields below are set only when `has_milestone`.
  RecoveryAction action = RecoveryAction::kAbort;
  /// State to resume in when `action` is kConsultPeers: kPreCommit or
  /// kPreAbort after those entries, kReady otherwise.
  CohortState resume_state = CohortState::kReady;
  /// Whom the termination protocol consults: the last milestone's
  /// participant list or, when that is empty, the first non-empty
  /// begin-commit/ready list.
  CowVector<NodeId> participants;
  /// Payloads of the last quorum-state and paxos-state entries (each
  /// snapshot supersedes the ones before it); empty when none was logged.
  CowVector<NodeId> quorum_state;
  CowVector<NodeId> paxos_state;
};

/// Everything crash recovery needs from the log, read in one pass.
struct RecoveryPlan {
  /// In-flight transactions, in the order recovery acts on them.
  std::vector<InFlightTxn> in_flight;
  /// Every decision the log witnesses (DecisionOf), in log order: the
  /// fresh engine's decision ledger is seeded from these.
  std::vector<std::pair<TxnId, Decision>> decisions;
  /// Highest sequence among the transactions `self` coordinated (0: none);
  /// a restarted process allocates past it.
  uint64_t max_own_seq = 0;
};

/// Implements the independent-recovery analysis of Section 4.2: given the
/// local WAL, decide each in-flight transaction's fate without (when
/// possible) contacting other nodes.
///
/// Rules, keyed on the *last* milestone entry for the transaction (the
/// quorum snapshot entries carry epochs, not progress, and are skipped):
///  * none / begin_commit .......... abort  (failed before voting / before
///                                   reaching a decision — rules i, ii)
///  * ready / pre-commit ........... consult peers (voted commit; the
///                                   global outcome is unknowable locally —
///                                   the case where 2PC/3PC/EC all lack
///                                   independent recovery)
///  * *-commit-decision/received ... commit (rule iii)
///  * *-abort-decision/received .... abort  (rule iii)
///  * transaction-commit/abort ..... already durable; redo is a no-op
class RecoveryManager {
 public:
  /// Action for one transaction from the type of its last entry (nullopt =
  /// no entry).
  static RecoveryAction AnalyzeRecord(std::optional<LogRecordType> last);

  /// Folds `log` (a node's WAL in append order) in one pass into the
  /// plan recovery acts on. `self` is the recovering node.
  static RecoveryPlan Plan(const std::vector<LogRecord>& log, NodeId self);
};

}  // namespace ecdb

#endif  // ECDB_COMMIT_RECOVERY_H_
