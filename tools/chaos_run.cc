// chaos_run: seeded chaos campaigns against the simulated or the threaded
// cluster.
//
//   chaos_run [--seeds N] [--first-seed S] [--protocols ec,3pc,2pc]
//             [--intensity light|default|heavy] [--nodes N]
//             [--clients N] [--horizon-us N] [--retries N]
//             [--txn-partitions N] [--coalesce]
//             [--dump-dir DIR] [--trace-dir DIR]
//             [--metrics-out FILE] [--shrink]
//   chaos_run --plan FILE [--shrink] [--trace-dir DIR] [--protocols ec]
//   chaos_run --threaded [--workers W] [--time-scale S] [campaign flags]
//
// Campaign mode runs N seeds per protocol, audits each (WAL atomicity
// evidence, acked-commit durability, engine liveness) and prints one table
// row per protocol. A failing seed's plan is dumped to --dump-dir (and,
// with --shrink, ddmin-minimized to a *.min.json repro); --trace-dir
// replays each failure with protocol tracing on and writes a JSONL trace.
// Replay mode (--plan) re-runs one dumped plan and prints the audit
// verdict. Exit code: 0 if every audit passed, 1 otherwise (blocked 2PC
// cohorts are reported in the table, not counted as failures).
//
// --threaded runs the same campaign against the real-time ThreadCluster
// instead of the simulator: the nodes (any count, --nodes 128 works) are
// hosted M:N on a shard-per-core pool of --workers W event-loop threads,
// each seed's plan is applied in wall clock (compressed by --time-scale)
// through the same fault applier, and the stopped cluster goes through
// the threaded audit. Shrink, replay, tracing and --metrics-out need
// deterministic replay and are simulator-only.
//
// --metrics-out FILE enables time-series telemetry on every simulated
// case and appends one labeled JSONL section per seed (file truncated at
// startup).

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "chaos/fault_plan.h"
#include "chaos/shrinker.h"
#include "common/types.h"

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
               "       %s --threaded [--workers W] [--time-scale S]\n"
               "          [campaign flags]\n",
               argv0, argv0, argv0);
  return 2;
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

  ChaosCaseRunner run_case;  // null: the simulator
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
    run_case = [workers, time_scale](const ChaosCaseConfig& c, uint64_t seed) {
      return RunThreadedChaosCase(c, seed, workers, time_scale);
    };
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
        RunCampaign(cfg, first_seed, seeds, on_failure, run_case);
    rows.push_back(summary);
    all_ok = all_ok && summary.ok();
  }
  std::fputs(FormatCampaignTable(rows).c_str(), stdout);
  return all_ok ? 0 : 1;
}
