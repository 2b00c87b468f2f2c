#ifndef ECDB_COMMIT_INVARIANTS_H_
#define ECDB_COMMIT_INVARIANTS_H_

#include <array>
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
/// EC/2PC/3PC with node failures is a bug. Thread-safe: the threaded
/// runtime records from every node thread concurrently.
///
/// Striped by transaction id: each node's lock table and commit engine are
/// single-thread-owned (one OS thread per node), so this monitor is the
/// one structure every node thread writes on every applied decision — the
/// actual cross-thread serialization point of the threaded runtime. One
/// global mutex here put every committing thread in one convoy; hashing
/// the txn id onto independent stripes lets decisions for different
/// transactions record in parallel, while both appliers of the *same*
/// transaction still land on one stripe — which is exactly the pair the
/// conflict check must observe together.
class SafetyMonitor {
 public:
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

  /// Decision applied by `node` for `txn`, if recorded.
  std::optional<Decision> DecisionOf(TxnId txn, NodeId node) const;

  /// All (node, decision) pairs recorded for `txn`.
  std::vector<std::pair<NodeId, Decision>> AppliedFor(TxnId txn) const;

 private:
  struct Applier {
    NodeId node;
    Decision decision;
  };
  struct PerTxn {
    // A transaction has tens of appliers at most, so a flat list keyed by
    // linear scan beats a per-txn hash map. The first two (both
    // participants of the evaluation's two-partition transactions) sit
    // inline, so recording their decisions does not allocate. Two, not
    // more: the monitor keeps a slot for every transaction ever decided,
    // so its size is resident memory.
    InlineVector<Applier, 2> applied;
    bool conflict = false;
  };

  struct Stripe {
    mutable std::mutex mu;
    FlatMap<TxnId, PerTxn> txns;
    FlatMap<TxnId, uint64_t> blocked;
    uint64_t blocked_reports = 0;
  };

  static constexpr size_t kStripes = 16;  // power of two, masks cheaply

  const Stripe& StripeFor(TxnId txn) const {
    return stripes_[FlatHash<TxnId>{}(txn) & (kStripes - 1)];
  }
  Stripe& StripeFor(TxnId txn) {
    return stripes_[FlatHash<TxnId>{}(txn) & (kStripes - 1)];
  }

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace ecdb

#endif  // ECDB_COMMIT_INVARIANTS_H_
