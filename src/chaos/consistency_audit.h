#ifndef ECDB_CHAOS_CONSISTENCY_AUDIT_H_
#define ECDB_CHAOS_CONSISTENCY_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos_driver.h"
#include "cluster/sim_cluster.h"
#include "common/types.h"

namespace ecdb {

/// One audit failure. `check` is "atomicity", "durability" or "liveness";
/// `detail` is a human-readable explanation naming nodes/WAL evidence.
struct AuditViolation {
  std::string check;
  TxnId txn = kInvalidTxn;
  std::string detail;
};

/// Result of an end-of-run consistency audit.
struct AuditResult {
  /// The post-restart drain reached quiescence within the event budget.
  /// False means undrained work (reported as a liveness violation too).
  bool quiescent = false;

  /// Protocol commits acked to clients during the run (durability set).
  uint64_t acked_commits = 0;

  /// Distinct transactions that reported blocked at some node during the
  /// run (2PC's expected failure mode; informational, not a violation).
  uint64_t blocked_txns = 0;

  /// Violations, sorted by (check, txn) for deterministic output.
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
  uint64_t CountFor(const std::string& check) const {
    uint64_t n = 0;
    for (const AuditViolation& v : violations) {
      if (v.check == check) n++;
    }
    return n;
  }
};

/// Both hosts' audits end in the same evidence checks:
///   (a) atomicity — no transaction with both a commit- and an
///       abort-flavored record across all WALs, and the SafetyMonitor saw
///       no conflicting applied decisions;
///   (b) durability — every client-acked protocol commit has a commit
///       record in its coordinator's WAL and no abort record anywhere
///       (decision-level durability: the WAL logs protocol milestones, not
///       data pages; see docs/ROBUSTNESS.md for the scope);
///   (c) liveness — no node's engine still tracks an undecided,
///       non-blocked transaction (the non-blocking claim). Blocked 2PC
///       cohorts are counted in `blocked_txns`, not as violations.
/// Both require TrackAckedCommits(true) on every node from the start of
/// the run for the durability set to be complete.

/// Simulator audit: clears every injected fault through `driver` (a
/// recovered node behind a dead link would re-run elections forever),
/// quiesces the closed loop and drains, crashes *every* node and recovers
/// every node (each WAL goes through replay + the Section 4.2
/// RecoveryManager analysis, and unresolved transactions re-enter the
/// termination protocol), drains again, then runs the shared checks.
/// `quiescent` reports whether both drains finished within the budget.
AuditResult RunConsistencyAudit(SimCluster* cluster, ChaosDriver* driver,
                                size_t drain_budget = 20'000'000);

/// Threaded audit: the shared checks over a *stopped* ThreadCluster (call
/// after Quiesce() + Stop()). Wall-clock restarts are not deterministic,
/// so it audits the evidence the run left behind rather than replaying a
/// crash/recover cycle. `quiescent` reports whether every engine drained.
AuditResult AuditThreadCluster(ThreadCluster* cluster);

}  // namespace ecdb

#endif  // ECDB_CHAOS_CONSISTENCY_AUDIT_H_
