#include "chaos/consistency_audit.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "wal/wal.h"

namespace ecdb {

namespace {

struct WalEvidence {
  std::vector<NodeId> commit_nodes;  // nodes whose WAL has a commit record
  std::vector<NodeId> abort_nodes;   // nodes whose WAL has an abort record
};

void Dedup(std::vector<NodeId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

void CollectWalEvidence(const MemoryWal& wal, NodeId id,
                        std::unordered_map<TxnId, WalEvidence>* evidence) {
  for (const LogRecord& r : wal.Scan()) {
    if (const auto decision = DecisionOf(r.type)) {
      WalEvidence& ev = (*evidence)[r.txn];
      (*decision == Decision::kCommit ? ev.commit_nodes : ev.abort_nodes)
          .push_back(id);
    }
  }
}

std::string NodeList(const std::vector<NodeId>& nodes) {
  std::ostringstream out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out << ",";
    out << nodes[i];
  }
  return out.str();
}

/// The checks both hosts share, over the WALs, acked commits and engines
/// of every node plus the cluster's SafetyMonitor. `after` ends the
/// liveness detail: what the cluster went through before the check.
template <typename Cluster>
void CheckEvidence(Cluster* cluster, const char* after, AuditResult* result) {
  // Collect decision evidence from every WAL.
  std::unordered_map<TxnId, WalEvidence> evidence;
  for (NodeId id = 0; id < cluster->num_nodes(); ++id) {
    CollectWalEvidence(cluster->node(id).wal(), id, &evidence);
  }
  for (auto& [txn, ev] : evidence) {
    Dedup(&ev.commit_nodes);
    Dedup(&ev.abort_nodes);
  }

  // (a) Atomicity: no transaction may leave both commit and abort records
  // behind, across all nodes' stable storage.
  for (const auto& [txn, ev] : evidence) {
    if (!ev.commit_nodes.empty() && !ev.abort_nodes.empty()) {
      result->violations.push_back(
          {"atomicity", txn,
           "commit logged at node(s) " + NodeList(ev.commit_nodes) +
               " but abort logged at node(s) " + NodeList(ev.abort_nodes)});
    }
  }
  // ... and no node may have *applied* conflicting decisions (in-memory
  // view; catches conflicts the WAL scan cannot, e.g. EC-noforward apply
  // paths that logged nothing).
  std::vector<TxnId> monitor_violations = cluster->monitor().Violations();
  std::sort(monitor_violations.begin(), monitor_violations.end());
  for (TxnId txn : monitor_violations) {
    const auto it = evidence.find(txn);
    if (it != evidence.end() && !it->second.commit_nodes.empty() &&
        !it->second.abort_nodes.empty()) {
      continue;  // already reported from the WAL evidence
    }
    result->violations.push_back(
        {"atomicity", txn, "conflicting decisions applied (SafetyMonitor)"});
  }

  // (b) Durability: every client-acked protocol commit has a commit record
  // at its coordinator and no abort record anywhere.
  for (NodeId id = 0; id < cluster->num_nodes(); ++id) {
    for (TxnId txn : cluster->node(id).acked_commits()) {
      result->acked_commits++;
      const auto it = evidence.find(txn);
      const bool has_commit =
          it != evidence.end() &&
          std::binary_search(it->second.commit_nodes.begin(),
                             it->second.commit_nodes.end(),
                             TxnCoordinator(txn));
      if (!has_commit) {
        result->violations.push_back(
            {"durability", txn,
             "client-acked commit has no commit record in coordinator " +
                 std::to_string(TxnCoordinator(txn)) + "'s WAL"});
      } else if (!it->second.abort_nodes.empty()) {
        result->violations.push_back(
            {"durability", txn,
             "client-acked commit aborted at node(s) " +
                 NodeList(it->second.abort_nodes)});
      }
    }
  }

  // (c) Liveness: no node may still hold an undecided transaction. Blocked
  // 2PC cohorts are the protocol's documented failure mode — reported, not
  // counted as violations.
  for (NodeId id = 0; id < cluster->num_nodes(); ++id) {
    auto unresolved = cluster->node(id).engine().UnresolvedTxns();
    std::sort(unresolved.begin(), unresolved.end());
    for (const auto& [txn, blocked] : unresolved) {
      if (blocked) continue;
      result->violations.push_back(
          {"liveness", txn,
           "still undecided at node " + std::to_string(id) + " " + after});
    }
  }
  result->blocked_txns = cluster->monitor().BlockedTxnCount();

  std::sort(result->violations.begin(), result->violations.end(),
            [](const AuditViolation& x, const AuditViolation& y) {
              if (x.check != y.check) return x.check < y.check;
              if (x.txn != y.txn) return x.txn < y.txn;
              return x.detail < y.detail;
            });
}

}  // namespace

AuditResult RunConsistencyAudit(SimCluster* cluster, ChaosDriver* driver,
                                size_t drain_budget) {
  AuditResult result;

  // 1. Back to a fault-free network with every node up: the audit judges
  // protocol outcomes, not behaviour under an adversary that never stops.
  driver->ClearFaults();

  // 2. Stop the closed loop and drain in-flight work.
  cluster->Quiesce();
  const size_t drained = cluster->RunToQuiescence(drain_budget);
  bool quiescent = drained < drain_budget;

  // 3. Force every node through crash -> WAL replay -> RecoveryManager.
  // The order (all crash, then all recover) is the hardest variant: no
  // node can answer from live pre-crash engine state, only from WALs and
  // reseeded decision ledgers.
  for (NodeId id = 0; id < cluster->num_nodes(); ++id) {
    cluster->CrashNode(id);
  }
  for (NodeId id = 0; id < cluster->num_nodes(); ++id) {
    cluster->RecoverNode(id);
  }
  const size_t resolved = cluster->RunToQuiescence(drain_budget);
  quiescent = quiescent && resolved < drain_budget;
  result.quiescent = quiescent;
  if (!quiescent) {
    result.violations.push_back(
        {"liveness", kInvalidTxn,
         "drain did not reach quiescence within the event budget"});
  }

  // 4. The shared checks.
  CheckEvidence(cluster, "after full restart and drain", &result);
  return result;
}

AuditResult AuditThreadCluster(ThreadCluster* cluster) {
  AuditResult result;
  CheckEvidence(cluster, "after fault-free drain", &result);
  // Every engine drained iff no liveness check fired.
  result.quiescent = result.CountFor("liveness") == 0;
  return result;
}

}  // namespace ecdb
