#ifndef ECDB_STATS_METRICS_H_
#define ECDB_STATS_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "common/types.h"

namespace ecdb {

/// Where a simulated worker thread's time goes. The categories are the
/// paper's Figure 12 breakdown, verbatim.
enum class TimeCategory : uint8_t {
  kUsefulWork,  // computation for read/write operations
  kTxnManager,  // maintaining transaction-associated resources
  kIndex,       // index access
  kAbort,       // cleaning up aborted transactions
  kIdle,        // worker has no task
  kCommit,      // executing the commit protocol
  kOverhead,    // fetching/cleaning the transaction table
};

inline constexpr size_t kNumTimeCategories = 7;

/// Returns the paper's label, e.g. "Useful Work".
std::string ToString(TimeCategory category);

/// Transaction and protocol counters and histograms over one measurement
/// window, summed over the nodes it covers. A plain value: hosts derive it
/// from a MetricsRegistry snapshot (CoreStats).
struct NodeStats {
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;   // aborted attempts (restarted later)
  uint64_t txns_blocked = 0;
  uint64_t commit_protocol_runs = 0;

  /// Termination-protocol rounds the nodes initiated in the window
  /// (nonzero only under failures or very aggressive timeouts).
  uint64_t termination_rounds = 0;

  /// Quorum-protocol accounting (zero for the non-quorum protocols).
  /// `acceptor_rounds`: Paxos-Commit decision rounds concluded at a
  /// leader (ballot-0 tally or a promoted ballot's accept quorum).
  /// `ballots_promoted`: ballots minted above 0 — each is one leader
  /// takeover after a timeout. `quorum_lost_rounds`: termination/ballot
  /// rounds abandoned because no quorum of replies arrived before the
  /// retry timer — the protocol's "wait, don't block" signal under
  /// partitions.
  uint64_t acceptor_rounds = 0;
  uint64_t ballots_promoted = 0;
  uint64_t quorum_lost_rounds = 0;

  /// Decision messages that contradicted an already applied decision:
  /// zero for every protocol but the forwarding-disabled EC ablation.
  uint64_t conflicting_decisions = 0;

  /// Open-loop load accounting (all zero under the closed loop). Every
  /// arrival is counted exactly once as offered and ends in exactly one of
  /// three ways — committed, rejected at admission, or terminally aborted
  /// (retry budget exhausted, quiesce drained it, or a crash killed it) —
  /// so at drain time: offered == committed + rejected + terminal aborts.
  uint64_t open_loop_offered = 0;
  uint64_t open_loop_rejected = 0;
  uint64_t open_loop_aborted = 0;  // terminal (not per-attempt) aborts

  /// Microseconds of worker time per category (Figure 12).
  std::array<uint64_t, kNumTimeCategories> time_us{};

  /// End-to-end latency (first start to final commit) of committed
  /// transactions, in microseconds.
  Histogram latency;

  /// Phase-latency breakdown of the commit protocol for commit-bound
  /// transactions (see CommitPhase in commit/commit_env.h): time to
  /// collect votes (coordinator), time from READY to the decision's
  /// arrival (participants), and time from local apply to cleanup.
  Histogram phase_vote;
  Histogram phase_transmit;
  Histogram phase_apply;

  void AddTime(TimeCategory category, uint64_t us) {
    time_us[static_cast<size_t>(category)] += us;
  }
  uint64_t TimeIn(TimeCategory category) const {
    return time_us[static_cast<size_t>(category)];
  }
};

/// Cluster-level result of a benchmark window: one read of the host's
/// MetricsRegistry (CoreStats) plus the window length and pool shape.
/// Every counter, in `total` and below, covers the simulator's
/// BeginMeasurement window (else the cluster's life) and the threaded
/// host's whole run; the registry outlives every engine, so a crash resets
/// none of them. The `net_*` and `trace_*` fields are gauges, read as of
/// collection.
struct ClusterStats {
  NodeStats total;               // summed over nodes
  double duration_seconds = 0;   // measurement window length
  uint32_t num_nodes = 0;

  /// Network loss accounting: messages a crashed node would have sent
  /// (suppressed at the source) and messages addressed to a crashed node
  /// (dropped at the sink).
  uint64_t net_messages_from_crashed = 0;
  uint64_t net_messages_to_crashed = 0;

  /// Transport coalescing + group commit accounting.
  /// `net_frames_sent` counts framed batches put on the wire: zero on the
  /// simulator with the coalescing knob off; on the threaded host, one per
  /// destination per loop iteration coalesced, one per message at a frame
  /// cap of one (same-worker deliveries bypass the network and count in
  /// neither). `net_messages_coalesced` counts the messages that rode
  /// behind another in the same frame — their ratio is the effective
  /// batch factor. `duplicate_decisions_suppressed` counts Global-*
  /// receipts short-circuited because the transaction was already decided
  /// locally (EC's O(n^2) redundancy; counted regardless of the knob).
  /// `wal_group_flushes` counts WAL flushes that covered pending records —
  /// each one stands in for the per-append syncs group commit amortized
  /// away (zero on the simulator, whose log needs no flush).
  uint64_t net_frames_sent = 0;
  uint64_t net_messages_coalesced = 0;
  uint64_t duplicate_decisions_suppressed = 0;
  uint64_t wal_group_flushes = 0;

  /// Shard-per-core worker pool accounting (threaded runtime only).
  /// `worker_mailbox_messages` crossed a worker mailbox (channel lock +
  /// possible wake); `worker_local_messages` rode the same-worker fast
  /// path and skipped the channel entirely. Their ratio shows how much
  /// traffic the M:N placement keeps on-core.
  uint64_t worker_threads = 0;
  uint64_t worker_mailbox_messages = 0;
  uint64_t worker_local_messages = 0;

  /// Trace-ring overwrites summed over nodes (TraceRecorder::dropped()):
  /// nonzero means the per-node trace export is incomplete and any span
  /// the critical-path analyzer reconstructs from it may be truncated.
  uint64_t trace_events_dropped = 0;

  /// Committed transactions per second of (simulated) time.
  double Throughput() const {
    return duration_seconds > 0
               ? static_cast<double>(total.txns_committed) / duration_seconds
               : 0.0;
  }

  /// Aborted attempts per committed transaction.
  double AbortRate() const {
    const double c = static_cast<double>(total.txns_committed);
    return c > 0 ? static_cast<double>(total.txns_aborted) / c : 0.0;
  }

  /// Fraction of worker time in `category`, over all categories.
  double TimeFraction(TimeCategory category) const;
};

}  // namespace ecdb

#endif  // ECDB_STATS_METRICS_H_
