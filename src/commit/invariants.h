#ifndef ECDB_COMMIT_INVARIANTS_H_
#define ECDB_COMMIT_INVARIANTS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/inline_vector.h"
#include "common/types.h"
#include "net/message.h"

namespace ecdb {

/// The five state classes of the expanded EC state diagram (Figure 6):
/// every protocol-visible state maps into one of these, and Figure 7
/// defines which pairs may coexist across nodes at the same instant.
enum class StateClass : uint8_t {
  kUndecided,  // INITIAL, READY, WAIT (and 3PC PRE-COMMIT for this check)
  kTransmitA,  // global abort known, still transmitting
  kTransmitC,  // global commit known, still transmitting
  kAbort,
  kCommit,
};

/// Maps a cohort state (plus decision knowledge) to its Figure-6 class.
StateClass ClassOf(CohortState state);

/// Figure 7: whether two state classes may coexist on different nodes for
/// the same transaction. E.g. TRANSMIT-C and ABORT conflict; TRANSMIT-C
/// and COMMIT coexist.
bool CanCoexist(StateClass a, StateClass b);

/// Records the decisions every node applies for every transaction and
/// flags conflicts (one node commits while another aborts — the safety
/// violation Theorem 3.1 rules out for EC). Fault-injection tests and the
/// forwarding ablation feed this monitor; any violation under plain
/// EC/2PC/3PC with node failures is a bug.
///
/// Thread-safe, and built so that recording costs a committing worker
/// nothing another worker writes: each node appends its (txn, decision)
/// records to a log of its own, whose lock only a reader ever contends.
/// Readers fold the pending records of every log into one index under a
/// readers-only lock, so the commit path never touches the index. The fold
/// does not depend on the order in which it meets different nodes' logs:
/// a transaction is a violation iff its records hold both a commit and an
/// abort, whether two nodes disagree or one node changes its own decision.
class SafetyMonitor {
 public:
  SafetyMonitor() = default;
  ~SafetyMonitor();
  SafetyMonitor(const SafetyMonitor&) = delete;
  SafetyMonitor& operator=(const SafetyMonitor&) = delete;

  /// Reports that `node` applied `decision` for `txn`.
  void RecordApplied(TxnId txn, NodeId node, Decision decision);

  /// Reports that `node` declared itself blocked on `txn`.
  void RecordBlocked(TxnId txn, NodeId node);

  /// Transactions for which conflicting decisions were applied.
  std::vector<TxnId> Violations() const;

  /// Total (txn, node) blocked reports.
  uint64_t blocked_reports() const;

  /// Distinct transactions with at least one blocked node.
  size_t BlockedTxnCount() const;

  /// The decision `node` last recorded for `txn`, if any.
  std::optional<Decision> DecisionOf(TxnId txn, NodeId node) const;

  /// All (node, decision) pairs recorded for `txn`, one per node, each with
  /// that node's last decision.
  std::vector<std::pair<NodeId, Decision>> AppliedFor(TxnId txn) const;

 private:
  friend class SafetyMonitorTestPeer;

  struct Record {
    TxnId txn;
    Decision decision;
    bool blocked;  // a RecordBlocked report; `decision` is unused
  };
  // One node's pending records. A cache line of its own, so two nodes'
  // appends never write the same line.
  struct alignas(64) NodeLog {
    std::mutex mu;
    std::vector<Record> records;
  };
  // Logs are created on a node's first record, kLogsPerChunk at a time,
  // behind a fixed directory of atomic pointers: finding a node's log
  // reads one pointer that is written once, when its chunk is created.
  static constexpr size_t kLogsPerChunk = 64;
  static constexpr size_t kChunks = (size_t{1} << 16) / kLogsPerChunk;
  struct Chunk {
    std::array<NodeLog, kLogsPerChunk> logs;
  };

  struct Applier {
    NodeId node;
    Decision decision;
  };
  struct PerTxn {
    // A transaction has tens of appliers at most, so a flat list keyed by
    // linear scan beats a per-txn hash map. The first two (both
    // participants of the evaluation's two-partition transactions) sit
    // inline, so folding their decisions does not allocate.
    InlineVector<Applier, 2> applied;
    bool conflict = false;
  };

  NodeLog& LogOf(NodeId node);

  // Moves every log's pending records into the index. Caller holds
  // index_mu_.
  void Fold() const;

  std::array<std::atomic<Chunk*>, kChunks> chunks_{};

  // The index, read and written only by readers.
  mutable std::mutex index_mu_;
  mutable FlatMap<TxnId, PerTxn> txns_;
  mutable FlatMap<TxnId, uint64_t> blocked_;
  mutable uint64_t blocked_reports_ = 0;
};

}  // namespace ecdb

#endif  // ECDB_COMMIT_INVARIANTS_H_
