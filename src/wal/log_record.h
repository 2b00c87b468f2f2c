#ifndef ECDB_WAL_LOG_RECORD_H_
#define ECDB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/cow_vector.h"
#include "common/types.h"

namespace ecdb {

/// Write-ahead-log entry kinds. The names follow the paper's algorithms
/// verbatim (Figure 5 and the 2PC/3PC descriptions): each protocol writes a
/// specific sequence of these, and the recovery manager's independent-
/// recovery rules (Section 4.2) key off the last entry for a transaction.
enum class LogRecordType : uint8_t {
  kBeginCommit,        // coordinator: commit protocol started
  kReady,              // cohort: voted commit
  kPreCommit,          // 3PC: entered PRE-COMMIT
  kCommitDecision,     // "global-commit-decision-reached" (coordinator / term leader)
  kAbortDecision,      // "global-abort-decision-reached"
  kCommitReceived,     // EC cohort: "global-commit-received"
  kAbortReceived,      // EC cohort: "global-abort-received"
  kTransactionCommit,  // transaction durably committed
  kTransactionAbort,   // transaction durably aborted
  kPreAbort,           // E3PC: accepted an abort-valued termination attempt
  kQuorumState,        // E3PC: <last_elected, last_attempt> epochs (packed
                       // into `participants`; see commit/quorum.h)
  kPaxosState,         // Paxos Commit: acceptor promise + accepted values
                       // (packed into `participants`; see commit/quorum.h)
};

/// Returns the paper's name for the entry, e.g.
/// "global-commit-decision-reached".
std::string ToString(LogRecordType type);

/// The decision an entry of `type` witnesses: commit for the commit
/// decision, commit-received and transaction-commit entries, abort for
/// their abort counterparts, nullopt for every other entry. Recovery,
/// decision-ledger seeding and the chaos audit all read decisions off the
/// log through this one table.
constexpr std::optional<Decision> DecisionOf(LogRecordType type) {
  switch (type) {
    case LogRecordType::kCommitDecision:
    case LogRecordType::kCommitReceived:
    case LogRecordType::kTransactionCommit:
      return Decision::kCommit;
    case LogRecordType::kAbortDecision:
    case LogRecordType::kAbortReceived:
    case LogRecordType::kTransactionAbort:
      return Decision::kAbort;
    default:
      return std::nullopt;
  }
}

/// One WAL entry. Entries are tiny and fixed-size: commit protocols log
/// control-flow milestones, not data (the storage engine is in-memory, as
/// in ExpoDB).
struct LogRecord {
  uint64_t lsn = 0;  // assigned by the log on append
  TxnId txn = kInvalidTxn;
  LogRecordType type = LogRecordType::kBeginCommit;

  /// Participant list (coordinator first), recorded with begin_commit and
  /// ready entries so a recovering node in the consult-peers case knows
  /// whom to ask (Section 4.2 requires contacting other participants).
  /// A CowVector: staging a WAL record copies a short list by value and
  /// shares a long one's buffer, never deep-copying it per log entry.
  CowVector<NodeId> participants;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

}  // namespace ecdb

#endif  // ECDB_WAL_LOG_RECORD_H_
