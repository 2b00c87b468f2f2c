#ifndef ECDB_CHAOS_CAMPAIGN_H_
#define ECDB_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/consistency_audit.h"
#include "chaos/fault_plan.h"
#include "common/histogram.h"
#include "common/types.h"
#include "obs/metrics_registry.h"
#include "sim/scheduler.h"

namespace ecdb {

/// Fixed shape of one chaos case; the seed is the only thing a campaign
/// varies. Small cluster + few clients on purpose: chaos runs are about
/// fault interleavings, not load, and a small case keeps a 500-seed
/// campaign in CI territory.
struct ChaosCaseConfig {
  CommitProtocol protocol = CommitProtocol::kEasyCommit;
  uint32_t num_nodes = 4;
  uint32_t clients_per_node = 4;
  uint32_t workers_per_node = 2;
  Micros horizon_us = 600'000;
  ChaosIntensity intensity = ChaosIntensity::kDefault;

  /// Partitions touched per transaction (clamped to num_nodes). The
  /// default 2 keeps commit groups small; the 3PC multi-cohort hole needs
  /// >= 3 — a coordinator and two cohorts that can land in different cells
  /// of a split3 partition.
  uint32_t partitions_per_txn = 2;

  /// Loss-hardening for the termination protocol (see
  /// CommitEngineConfig::term_fruitless_retries). The paper's unmodified
  /// rule (0) unilaterally aborts when every queried peer's reply was
  /// lost, which under injected loss manufactures atomicity violations
  /// that say nothing about the protocol logic.
  uint32_t term_fruitless_retries = 6;

  /// Event budget for each audit drain phase.
  size_t drain_budget = 20'000'000;

  /// Run the cluster over the coalescing transport (frames + per-frame
  /// loss/latency + WAL group commit). Chaos campaigns are the safety net
  /// proving the coalesced fast path drops/delivers frames without ever
  /// violating atomicity or durability.
  bool coalesce_transport = false;

  /// Time-series telemetry for each case's cluster. When `metrics_path` is
  /// non-empty (and telemetry.enabled), every case appends a labeled JSONL
  /// section ("<protocol>_seed<N>") to that file after its audit.
  TelemetryConfig telemetry;
  std::string metrics_path;
};

/// Outcome of one seeded case.
struct ChaosCaseResult {
  uint64_t seed = 0;
  FaultPlan plan;
  AuditResult audit;
  uint64_t faults_applied = 0;
  /// What the cluster counted over the fault horizon, crashes included.
  /// The simulator reads it before the audit's drain, so drain-time
  /// completions do not skew the latency distribution and recovery rounds
  /// are not counted; the threaded host reads it after Stop().
  NodeStats horizon;
  bool ok() const { return audit.ok(); }
};

/// Runs one case: generate plan from `seed`, run the workload under it for
/// the horizon, then run the crash-recovery audit. `trace_path` non-empty
/// enables protocol tracing and writes a JSONL trace there.
ChaosCaseResult RunChaosCase(const ChaosCaseConfig& cfg, uint64_t seed,
                             const std::string& trace_path = "");

/// Replays an explicit plan (e.g. a dumped or shrunken repro). The cluster
/// seed, node count and horizon come from the plan, so a replay of a
/// dumped plan reproduces the original run bit for bit.
ChaosCaseResult ReplayFaultPlan(const ChaosCaseConfig& cfg,
                                const FaultPlan& plan,
                                const std::string& trace_path = "");

/// Runs one case on the threaded host: the plan generated from `seed` as
/// for RunChaosCase, applied to a ThreadCluster on a pool of
/// `worker_threads` event-loop threads in wall clock (compressed by
/// `time_scale`), then a fault-free tail, Quiesce, Stop and the threaded
/// audit. `horizon` is read at the plan horizon, before the tail, over
/// the same window as on the simulator.
ChaosCaseResult RunThreadedChaosCase(const ChaosCaseConfig& cfg,
                                     uint64_t seed, uint32_t worker_threads,
                                     double time_scale);

/// Runs one seeded case on some host.
using ChaosCaseRunner =
    std::function<ChaosCaseResult(const ChaosCaseConfig&, uint64_t seed)>;

/// Aggregates over a seed range for one protocol.
struct CampaignSummary {
  CommitProtocol protocol = CommitProtocol::kEasyCommit;
  uint64_t seeds_run = 0;
  uint64_t seeds_failed = 0;
  uint64_t atomicity_violations = 0;
  uint64_t durability_violations = 0;
  uint64_t liveness_violations = 0;
  uint64_t blocked_txns = 0;     // 2PC's expected mode, reported not failed
  uint64_t acked_commits = 0;
  uint64_t faults_applied = 0;
  uint64_t non_quiescent = 0;
  /// Quorum-protocol accounting (zero for the non-quorum protocols):
  /// rounds Paxos leaders concluded, ballots promoted past 0, and rounds
  /// abandoned for lack of a quorum — "waited" as opposed to 2PC's
  /// "blocked" and 3PC's "decided wrong".
  uint64_t acceptor_rounds = 0;
  uint64_t ballots_promoted = 0;
  uint64_t quorum_lost_rounds = 0;
  std::vector<uint64_t> failing_seeds;
  /// Commit latency merged across every seed's horizon window.
  Histogram latency;

  bool ok() const { return seeds_failed == 0; }
};

/// Runs seeds [first_seed, first_seed + num_seeds) through `run_case`
/// (null: the simulator, RunChaosCase). `on_failure` (may be null) is
/// invoked with each failing case, e.g. to dump + shrink plans.
CampaignSummary RunCampaign(
    const ChaosCaseConfig& cfg, uint64_t first_seed, uint64_t num_seeds,
    const std::function<void(const ChaosCaseResult&)>& on_failure = nullptr,
    const ChaosCaseRunner& run_case = nullptr);

/// Fixed-width per-protocol table (deterministic output; ends with '\n').
std::string FormatCampaignTable(const std::vector<CampaignSummary>& rows);

}  // namespace ecdb

#endif  // ECDB_CHAOS_CAMPAIGN_H_
