#include "chaos/campaign.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "chaos/chaos_driver.h"
#include "cluster/sim_cluster.h"
#include "cluster/thread_node.h"
#include "trace/trace_export.h"
#include "workload/ycsb.h"

namespace ecdb {

namespace {

ClusterConfig MakeClusterConfig(const ChaosCaseConfig& cfg, uint64_t seed,
                                uint32_t num_nodes) {
  ClusterConfig cluster;
  cluster.num_nodes = num_nodes;
  cluster.workers_per_node = cfg.workers_per_node;
  cluster.clients_per_node = cfg.clients_per_node;
  cluster.protocol = cfg.protocol;
  cluster.seed = seed;
  // Termination must survive rounds whose replies were all lost.
  cluster.commit.term_fruitless_retries = cfg.term_fruitless_retries;
  cluster.coalesce_transport = cfg.coalesce_transport;
  cluster.telemetry = cfg.telemetry;
  return cluster;
}

ThreadClusterConfig MakeThreadConfig(const ChaosCaseConfig& cfg,
                                     uint64_t seed, uint32_t worker_threads) {
  ThreadClusterConfig tc;
  tc.num_nodes = cfg.num_nodes;
  tc.clients_per_node = cfg.clients_per_node;
  tc.protocol = cfg.protocol;
  tc.worker_threads = worker_threads;
  tc.coalesce_transport = cfg.coalesce_transport;
  // Wall-clock timeouts well above a busy machine's scheduling hiccups.
  tc.commit.timeout_us = 250'000;
  tc.commit.termination_window_us = 80'000;
  tc.commit.term_fruitless_retries = cfg.term_fruitless_retries;
  tc.seed = seed;
  return tc;
}

std::unique_ptr<Workload> MakeWorkload(const ChaosCaseConfig& cfg,
                                       uint32_t num_nodes,
                                       uint64_t rows_per_partition) {
  YcsbConfig ycsb;
  ycsb.num_partitions = num_nodes;
  ycsb.rows_per_partition = rows_per_partition;
  ycsb.partitions_per_txn =
      std::max<uint32_t>(1, std::min(cfg.partitions_per_txn, num_nodes));
  return std::make_unique<YcsbWorkload>(ycsb);
}

ChaosCaseResult RunCase(const ChaosCaseConfig& cfg, const FaultPlan& plan,
                        uint64_t seed, const std::string& trace_path) {
  ChaosCaseResult result;
  result.seed = seed;
  result.plan = plan;

  SimCluster cluster(MakeClusterConfig(cfg, seed, plan.num_nodes),
                     MakeWorkload(cfg, plan.num_nodes, 1024));
  if (!trace_path.empty()) cluster.EnableTracing();
  cluster.Start();
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    cluster.node(id).TrackAckedCommits(true);
  }

  SimFaultHost host(&cluster);
  ChaosDriver driver(&host, cluster.config().network.drop_probability);
  driver.Schedule(plan);
  cluster.RunFor(static_cast<double>(plan.horizon_us) / 1e6);

  // Before the audit's drain, which lets stragglers finish fault-free and
  // would flatten the latency tail the faults actually caused.
  result.horizon = cluster.CollectStats(0).total;

  result.audit = RunConsistencyAudit(&cluster, &driver, cfg.drain_budget);
  result.faults_applied = driver.faults_applied();

  if (!trace_path.empty()) {
    TraceMeta meta;
    meta.runtime = "sim";
    meta.protocol = ToString(cfg.protocol);
    meta.num_nodes = static_cast<uint32_t>(plan.num_nodes);
    for (const TraceRecorder* rec : cluster.recorders()) {
      meta.dropped.push_back(rec->dropped());
    }
    WriteJsonlFile(meta, CollectEvents(cluster.recorders()), trace_path);
  }
  if (cluster.telemetry() != nullptr && !cfg.metrics_path.empty()) {
    // The audit already quiesced the cluster (closing the final slice);
    // StopTelemetry here is an idempotent no-op guard.
    cluster.StopTelemetry();
    cluster.telemetry()->AppendTimeseriesJsonlFile(
        ToString(cfg.protocol) + "_seed" + std::to_string(seed),
        cfg.metrics_path);
  }
  return result;
}

}  // namespace

ChaosCaseResult RunChaosCase(const ChaosCaseConfig& cfg, uint64_t seed,
                             const std::string& trace_path) {
  const FaultPlan plan =
      GenerateFaultPlan(seed, cfg.num_nodes, cfg.horizon_us, cfg.intensity);
  return RunCase(cfg, plan, seed, trace_path);
}

ChaosCaseResult ReplayFaultPlan(const ChaosCaseConfig& cfg,
                                const FaultPlan& plan,
                                const std::string& trace_path) {
  return RunCase(cfg, plan, plan.seed, trace_path);
}

ChaosCaseResult RunThreadedChaosCase(const ChaosCaseConfig& cfg,
                                     uint64_t seed, uint32_t worker_threads,
                                     double time_scale) {
  ChaosCaseResult result;
  result.seed = seed;
  result.plan =
      GenerateFaultPlan(seed, cfg.num_nodes, cfg.horizon_us, cfg.intensity);

  ThreadCluster cluster(MakeThreadConfig(cfg, seed, worker_threads),
                        MakeWorkload(cfg, cfg.num_nodes, 2048));
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    cluster.node(id).TrackAckedCommits(true);
  }
  cluster.Start();
  result.faults_applied =
      ApplyPlanToThreadCluster(result.plan, &cluster, time_scale);
  // At the plan horizon, as on the simulator: the fault-free tail and the
  // drain below would flatten the latency tail the faults caused.
  result.horizon = cluster.CollectStats(1.0).total;
  cluster.RunFor(0.3);  // fault-free tail so recovered nodes participate
  cluster.Quiesce();
  cluster.Stop();

  result.audit = AuditThreadCluster(&cluster);
  return result;
}

CampaignSummary RunCampaign(
    const ChaosCaseConfig& cfg, uint64_t first_seed, uint64_t num_seeds,
    const std::function<void(const ChaosCaseResult&)>& on_failure,
    const ChaosCaseRunner& run_case) {
  CampaignSummary summary;
  summary.protocol = cfg.protocol;
  for (uint64_t seed = first_seed; seed < first_seed + num_seeds; ++seed) {
    const ChaosCaseResult result =
        run_case ? run_case(cfg, seed) : RunChaosCase(cfg, seed);
    summary.seeds_run++;
    summary.acked_commits += result.audit.acked_commits;
    summary.blocked_txns += result.audit.blocked_txns;
    summary.faults_applied += result.faults_applied;
    summary.atomicity_violations += result.audit.CountFor("atomicity");
    summary.durability_violations += result.audit.CountFor("durability");
    summary.liveness_violations += result.audit.CountFor("liveness");
    summary.acceptor_rounds += result.horizon.acceptor_rounds;
    summary.ballots_promoted += result.horizon.ballots_promoted;
    summary.quorum_lost_rounds += result.horizon.quorum_lost_rounds;
    summary.latency.Merge(result.horizon.latency);
    if (!result.audit.quiescent) summary.non_quiescent++;
    if (!result.ok()) {
      summary.seeds_failed++;
      summary.failing_seeds.push_back(seed);
      if (on_failure) on_failure(result);
    }
  }
  return summary;
}

std::string FormatCampaignTable(const std::vector<CampaignSummary>& rows) {
  std::ostringstream out;
  auto cell = [&out](const std::string& s, int width) {
    out << s;
    for (int i = static_cast<int>(s.size()); i < width; ++i) out << ' ';
  };
  auto num = [&cell](uint64_t v, int width) {
    cell(std::to_string(v), width);
  };
  cell("protocol", 14);
  cell("seeds", 7);
  cell("failed", 8);
  cell("atomicity", 11);
  cell("durability", 12);
  cell("liveness", 10);
  // "blocked" is 2PC giving up, "failed" is a protocol violating its spec,
  // "qlost" is a quorum protocol *waiting* — the three-way distinction the
  // quorum campaign is about. "ballots" counts Paxos leader takeovers.
  cell("blocked", 9);
  cell("qlost", 7);
  cell("ballots", 9);
  cell("acked", 9);
  cell("p50us", 8);
  cell("p99us", 8);
  cell("p999us", 9);
  out << "faults\n";
  for (const CampaignSummary& row : rows) {
    cell(ToString(row.protocol), 14);
    num(row.seeds_run, 7);
    num(row.seeds_failed, 8);
    num(row.atomicity_violations, 11);
    num(row.durability_violations, 12);
    num(row.liveness_violations, 10);
    num(row.blocked_txns, 9);
    num(row.quorum_lost_rounds, 7);
    num(row.ballots_promoted, 9);
    num(row.acked_commits, 9);
    num(row.latency.Percentile(0.50), 8);
    num(row.latency.Percentile(0.99), 8);
    num(row.latency.Percentile(0.999), 9);
    out << row.faults_applied << "\n";
  }
  return out.str();
}

}  // namespace ecdb
