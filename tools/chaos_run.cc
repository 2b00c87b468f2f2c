// chaos_run: seeded chaos campaigns against the simulated cluster.
//
//   chaos_run [--seeds N] [--first-seed S] [--protocols ec,3pc,2pc]
//             [--intensity light|default|heavy] [--nodes N]
//             [--clients N] [--horizon-us N] [--retries N]
//             [--txn-partitions N] [--coalesce]
//             [--dump-dir DIR] [--trace-dir DIR]
//             [--metrics-out FILE] [--shrink]
//   chaos_run --plan FILE [--shrink] [--trace-dir DIR] [--protocols ec]
//   chaos_run --threaded [--campaign] [--workers W] [--time-scale S] ...
//
// Campaign mode runs N seeds per protocol and prints one table row per
// protocol. A failing seed's plan is dumped to --dump-dir (and, with
// --shrink, ddmin-minimized to a *.min.json repro); --trace-dir replays
// each failure with protocol tracing on and writes a JSONL trace.
// Replay mode (--plan) re-runs one dumped plan and prints the audit
// verdict. Exit code: 0 if every audit passed, 1 otherwise (blocked 2PC
// cohorts are reported in the table, not counted as failures).
//
// --threaded runs each seed's plan against the real-time ThreadCluster
// instead of the simulator: the nodes (any count, --nodes 128 works) are
// hosted M:N on a shard-per-core pool of --workers W event-loop threads,
// the plan's crash/loss/delay subset is applied in wall clock (compressed
// by --time-scale), and the verdict is the safety monitor plus liveness
// (every seed must commit through the faults). Each seed prints the
// per-worker occupancy and mailbox-vs-local traffic split. Shrink/replay/
// trace are simulator-only and are rejected with --threaded.
//
// --threaded --campaign upgrades the threaded verdict to the full
// consistency audit (WAL atomicity evidence, acked-commit durability,
// engine liveness) per seed and prints the same per-protocol table as the
// sim campaign, with the quorum wait/ballot counters.
//
// --metrics-out FILE enables time-series telemetry on every simulated
// case and appends one labeled JSONL section per seed (file truncated at
// startup). Simulator-only, like tracing.

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <memory>

#include "chaos/campaign.h"
#include "chaos/chaos_driver.h"
#include "chaos/fault_plan.h"
#include "chaos/shrinker.h"
#include "cluster/thread_node.h"
#include "common/types.h"
#include "workload/ycsb.h"

namespace {

using namespace ecdb;

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string SlugFor(CommitProtocol protocol, uint64_t seed) {
  std::string slug = ToString(protocol);
  for (char& c : slug) {
    c = static_cast<char>(std::tolower(c));
  }
  return slug + "_seed" + std::to_string(seed);
}

void PrintAudit(const AuditResult& audit) {
  std::printf("audit: %s (quiescent=%d acked=%llu blocked=%llu)\n",
              audit.ok() ? "PASS" : "FAIL", audit.quiescent ? 1 : 0,
              static_cast<unsigned long long>(audit.acked_commits),
              static_cast<unsigned long long>(audit.blocked_txns));
  for (const AuditViolation& v : audit.violations) {
    std::printf("  %s txn=%llu: %s\n", v.check.c_str(),
                static_cast<unsigned long long>(v.txn), v.detail.c_str());
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--first-seed S] [--protocols csv]\n"
               "          [--intensity light|default|heavy] [--nodes N]\n"
               "          [--clients N] [--horizon-us N] [--retries N]\n"
               "          [--txn-partitions N] [--coalesce]\n"
               "          [--dump-dir DIR] [--trace-dir DIR]\n"
               "          [--metrics-out FILE] [--shrink]\n"
               "       %s --plan FILE [--shrink] [--trace-dir DIR]\n"
               "       %s --threaded [--campaign] [--workers W]\n"
               "          [--time-scale S] ...\n",
               argv0, argv0, argv0);
  return 2;
}

ThreadClusterConfig MakeThreadConfig(const ChaosCaseConfig& cfg,
                                     uint64_t seed, uint32_t workers) {
  ThreadClusterConfig tc;
  tc.num_nodes = cfg.num_nodes;
  tc.clients_per_node = cfg.clients_per_node;
  tc.protocol = cfg.protocol;
  tc.worker_threads = workers;
  tc.coalesce_transport = cfg.coalesce_transport;
  tc.commit.timeout_us = 250'000;
  tc.commit.termination_window_us = 80'000;
  tc.commit.term_fruitless_retries = cfg.term_fruitless_retries;
  tc.commit.keep_decision_ledger = true;
  tc.seed = seed;
  return tc;
}

YcsbConfig MakeThreadYcsb(const ChaosCaseConfig& cfg) {
  YcsbConfig ycsb;
  ycsb.num_partitions = cfg.num_nodes;
  ycsb.rows_per_partition = 2048;
  ycsb.partitions_per_txn = cfg.partitions_per_txn < 1
                                ? 1
                                : (cfg.partitions_per_txn > cfg.num_nodes
                                       ? cfg.num_nodes
                                       : cfg.partitions_per_txn);
  return ycsb;
}

/// One seed of the threaded chaos campaign: plan generated exactly like
/// the sim campaign's, applied to a ThreadCluster on a worker pool in
/// (compressed) wall clock. Returns true when the seed stayed safe and
/// live.
bool RunThreadedSeed(const ChaosCaseConfig& cfg, uint64_t seed,
                     uint32_t workers, double time_scale) {
  const ThreadClusterConfig tc = MakeThreadConfig(cfg, seed, workers);
  const YcsbConfig ycsb = MakeThreadYcsb(cfg);
  const FaultPlan plan =
      GenerateFaultPlan(seed, cfg.num_nodes, cfg.horizon_us, cfg.intensity);

  ThreadCluster cluster(tc, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  ApplyPlanToThreadCluster(plan, &cluster, time_scale);
  cluster.RunFor(0.3);  // fault-free tail so recovered nodes participate
  cluster.Quiesce();
  cluster.Stop();

  const uint64_t committed = cluster.TotalCommitted();
  const size_t violations = cluster.monitor().Violations().size();
  const ClusterStats stats = cluster.CollectStats(1.0);
  std::printf("%-4s seed %-4llu: %s  committed=%llu violations=%zu "
              "faults=%zu  mailbox=%llu local=%llu\n",
              ToString(cfg.protocol).c_str(),
              static_cast<unsigned long long>(seed),
              violations == 0 && committed > 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(committed), violations,
              plan.events.size(),
              static_cast<unsigned long long>(stats.worker_mailbox_messages),
              static_cast<unsigned long long>(stats.worker_local_messages));
  const std::vector<WorkerStats> per_worker = cluster.CollectWorkerStats();
  for (size_t w = 0; w < per_worker.size(); ++w) {
    const WorkerStats& ws = per_worker[w];
    std::printf("    worker %2zu: nodes %4llu  occupancy %5.1f%%  "
                "mailbox %8llu  local %8llu  timers %7llu\n",
                w, static_cast<unsigned long long>(ws.nodes_hosted),
                100.0 * ws.Occupancy(),
                static_cast<unsigned long long>(ws.mailbox_messages),
                static_cast<unsigned long long>(ws.local_messages),
                static_cast<unsigned long long>(ws.timers_fired));
  }
  return violations == 0 && committed > 0;
}

/// Threaded campaign: every seed runs against a ThreadCluster with
/// acked-commit tracking on, then goes through AuditThreadCluster (WAL
/// atomicity evidence, acked-commit durability, engine liveness) instead
/// of the pass/fail one-liner. Aggregates into the same CampaignSummary
/// shape the sim campaign prints.
CampaignSummary RunThreadedCampaign(const ChaosCaseConfig& cfg,
                                    uint64_t first_seed, uint64_t num_seeds,
                                    uint32_t workers, double time_scale) {
  CampaignSummary summary;
  summary.protocol = cfg.protocol;
  for (uint64_t s = 0; s < num_seeds; ++s) {
    const uint64_t seed = first_seed + s;
    const ThreadClusterConfig tc = MakeThreadConfig(cfg, seed, workers);
    const YcsbConfig ycsb = MakeThreadYcsb(cfg);
    const FaultPlan plan =
        GenerateFaultPlan(seed, cfg.num_nodes, cfg.horizon_us, cfg.intensity);

    ThreadCluster cluster(tc, std::make_unique<YcsbWorkload>(ycsb));
    for (NodeId id = 0; id < static_cast<NodeId>(cluster.num_nodes()); ++id) {
      cluster.node(id).TrackAckedCommits(true);
    }
    cluster.Start();
    ApplyPlanToThreadCluster(plan, &cluster, time_scale);
    const uint64_t faults = plan.events.size();
    cluster.RunFor(0.3);  // fault-free tail so recovered nodes participate
    cluster.Quiesce();
    cluster.Stop();

    // Harvest quorum/latency counters before the audit (which only reads,
    // but keep the same order as the sim campaign for symmetry).
    const ClusterStats stats = cluster.CollectStats(1.0);
    const AuditResult audit = AuditThreadCluster(&cluster);

    summary.seeds_run++;
    summary.faults_applied += faults;
    summary.acked_commits += audit.acked_commits;
    summary.blocked_txns += audit.blocked_txns;
    summary.atomicity_violations += audit.CountFor("atomicity");
    summary.durability_violations += audit.CountFor("durability");
    summary.liveness_violations += audit.CountFor("liveness");
    summary.acceptor_rounds += stats.total.acceptor_rounds;
    summary.ballots_promoted += stats.total.ballots_promoted;
    summary.quorum_lost_rounds += stats.total.quorum_lost_rounds;
    summary.latency.Merge(stats.total.latency);
    if (!audit.quiescent) summary.non_quiescent++;
    if (!audit.ok()) {
      summary.seeds_failed++;
      summary.failing_seeds.push_back(seed);
      std::printf("FAIL %s seed %llu (threaded, %zu events, %llu faults)\n",
                  ToString(cfg.protocol).c_str(),
                  static_cast<unsigned long long>(seed), plan.events.size(),
                  static_cast<unsigned long long>(faults));
      PrintAudit(audit);
    }
  }
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 8;
  uint64_t first_seed = 1;
  std::string protocols_csv = "ec,3pc,2pc";
  std::string plan_path;
  std::string dump_dir;
  std::string trace_dir;
  bool shrink = false;
  bool threaded = false;
  bool thread_campaign = false;
  uint32_t workers = 4;
  double time_scale = 1.0;
  ChaosCaseConfig cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::strtoull(next("--seeds"), nullptr, 10);
    } else if (arg == "--first-seed") {
      first_seed = std::strtoull(next("--first-seed"), nullptr, 10);
    } else if (arg == "--protocols") {
      protocols_csv = next("--protocols");
    } else if (arg == "--intensity") {
      if (!ParseIntensity(next("--intensity"), &cfg.intensity)) {
        std::fprintf(stderr, "unknown intensity\n");
        return 2;
      }
    } else if (arg == "--nodes") {
      cfg.num_nodes =
          static_cast<uint32_t>(std::strtoul(next("--nodes"), nullptr, 10));
    } else if (arg == "--clients") {
      cfg.clients_per_node =
          static_cast<uint32_t>(std::strtoul(next("--clients"), nullptr, 10));
    } else if (arg == "--horizon-us") {
      cfg.horizon_us = std::strtoull(next("--horizon-us"), nullptr, 10);
    } else if (arg == "--retries") {
      cfg.term_fruitless_retries =
          static_cast<uint32_t>(std::strtoul(next("--retries"), nullptr, 10));
    } else if (arg == "--txn-partitions") {
      cfg.partitions_per_txn = static_cast<uint32_t>(
          std::strtoul(next("--txn-partitions"), nullptr, 10));
    } else if (arg == "--coalesce") {
      cfg.coalesce_transport = true;
    } else if (arg == "--plan") {
      plan_path = next("--plan");
    } else if (arg == "--dump-dir") {
      dump_dir = next("--dump-dir");
    } else if (arg == "--trace-dir") {
      trace_dir = next("--trace-dir");
    } else if (arg == "--metrics-out") {
      cfg.metrics_path = next("--metrics-out");
      cfg.telemetry.enabled = true;
      cfg.telemetry.sample_interval_us = 50'000;  // ~12 slices per horizon
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--threaded") {
      threaded = true;
    } else if (arg == "--campaign") {
      thread_campaign = true;
    } else if (arg == "--workers") {
      workers = static_cast<uint32_t>(
          std::strtoul(next("--workers"), nullptr, 10));
    } else if (arg == "--time-scale") {
      time_scale = std::strtod(next("--time-scale"), nullptr);
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  std::vector<CommitProtocol> protocols;
  for (const std::string& name : SplitCsv(protocols_csv)) {
    const auto p = ParseProtocol(name);
    if (!p) {
      std::fprintf(stderr, "unknown protocol '%s'\n", name.c_str());
      return 2;
    }
    protocols.push_back(*p);
  }
  if (protocols.empty()) return Usage(argv[0]);
  if (!dump_dir.empty()) std::filesystem::create_directories(dump_dir);
  if (!trace_dir.empty()) std::filesystem::create_directories(trace_dir);
  if (!cfg.metrics_path.empty()) {
    // Fresh file per invocation; each case appends its own section.
    std::ofstream trunc(cfg.metrics_path, std::ios::trunc);
  }

  // ---- Threaded campaign -------------------------------------------------
  if (threaded) {
    if (shrink || !plan_path.empty() || !trace_dir.empty() ||
        !cfg.metrics_path.empty()) {
      std::fprintf(stderr,
                   "--threaded does not support --plan/--shrink/--trace-dir/"
                   "--metrics-out (deterministic replay needs the simulator)\n");
      return 2;
    }
    if (workers == 0 || time_scale <= 0.0) {
      std::fprintf(stderr, "need --workers >= 1 and --time-scale > 0\n");
      return 2;
    }
    if (thread_campaign) {
      std::vector<CampaignSummary> rows;
      bool all_ok = true;
      for (CommitProtocol protocol : protocols) {
        cfg.protocol = protocol;
        const CampaignSummary summary =
            RunThreadedCampaign(cfg, first_seed, seeds, workers, time_scale);
        rows.push_back(summary);
        all_ok = all_ok && summary.ok();
      }
      std::fputs(FormatCampaignTable(rows).c_str(), stdout);
      return all_ok ? 0 : 1;
    }
    bool all_ok = true;
    for (CommitProtocol protocol : protocols) {
      cfg.protocol = protocol;
      for (uint64_t s = 0; s < seeds; ++s) {
        all_ok &= RunThreadedSeed(cfg, first_seed + s, workers, time_scale);
      }
    }
    return all_ok ? 0 : 1;
  }
  if (thread_campaign) {
    std::fprintf(stderr, "--campaign requires --threaded (the simulator "
                         "campaign is the default mode)\n");
    return 2;
  }

  // ---- Replay mode -------------------------------------------------------
  if (!plan_path.empty()) {
    FaultPlan plan;
    std::string error;
    if (!ReadFaultPlanFile(plan_path, &plan, &error)) {
      std::fprintf(stderr, "cannot read %s: %s\n", plan_path.c_str(),
                   error.c_str());
      return 2;
    }
    cfg.protocol = protocols.front();
    std::string trace_path;
    if (!trace_dir.empty()) {
      trace_path = trace_dir + "/" +
                   SlugFor(cfg.protocol, plan.seed) + ".trace.jsonl";
    }
    std::printf("replaying %s (%s, seed %llu, %zu events)\n",
                plan_path.c_str(), ToString(cfg.protocol).c_str(),
                static_cast<unsigned long long>(plan.seed),
                plan.events.size());
    const ChaosCaseResult result = ReplayFaultPlan(cfg, plan, trace_path);
    PrintAudit(result.audit);
    if (!trace_path.empty()) {
      std::printf("trace: %s\n", trace_path.c_str());
    }
    if (shrink && !result.ok()) {
      const ShrinkResult shrunk = ShrinkFaultPlan(cfg, plan);
      std::printf("shrunk: %zu -> %zu events in %zu replays\n",
                  plan.events.size(), shrunk.plan.events.size(),
                  shrunk.replays);
      const std::string min_path = plan_path + ".min.json";
      WriteFaultPlanFile(shrunk.plan, min_path, nullptr);
      std::printf("minimal plan: %s\n", min_path.c_str());
    }
    return result.ok() ? 0 : 1;
  }

  // ---- Campaign mode -----------------------------------------------------
  std::vector<CampaignSummary> rows;
  bool all_ok = true;
  for (CommitProtocol protocol : protocols) {
    cfg.protocol = protocol;
    auto on_failure = [&](const ChaosCaseResult& result) {
      std::printf("FAIL %s seed %llu (%zu events, %llu faults)\n",
                  ToString(protocol).c_str(),
                  static_cast<unsigned long long>(result.seed),
                  result.plan.events.size(),
                  static_cast<unsigned long long>(result.faults_applied));
      PrintAudit(result.audit);
      const std::string slug = SlugFor(protocol, result.seed);
      FaultPlan repro = result.plan;
      if (shrink) {
        const ShrinkResult shrunk = ShrinkFaultPlan(cfg, result.plan);
        if (shrunk.reproduced) {
          repro = shrunk.plan;
          std::printf("  shrunk: %zu -> %zu events in %zu replays\n",
                      result.plan.events.size(), repro.events.size(),
                      shrunk.replays);
        }
      }
      if (!dump_dir.empty()) {
        const std::string path = dump_dir + "/" + slug + ".json";
        WriteFaultPlanFile(result.plan, path, nullptr);
        std::printf("  plan: %s\n", path.c_str());
        if (shrink && repro.events.size() < result.plan.events.size()) {
          const std::string min_path = dump_dir + "/" + slug + ".min.json";
          WriteFaultPlanFile(repro, min_path, nullptr);
          std::printf("  minimal plan: %s\n", min_path.c_str());
        }
      }
      if (!trace_dir.empty()) {
        const std::string trace_path =
            trace_dir + "/" + slug + ".trace.jsonl";
        ReplayFaultPlan(cfg, repro, trace_path);
        std::printf("  trace: %s\n", trace_path.c_str());
      }
    };
    const CampaignSummary summary =
        RunCampaign(cfg, first_seed, seeds, on_failure);
    rows.push_back(summary);
    all_ok = all_ok && summary.ok();
  }
  std::fputs(FormatCampaignTable(rows).c_str(), stdout);
  return all_ok ? 0 : 1;
}
