// Failure & recovery walkthrough. Re-enacts the paper's motivating
// multi-failure example (Sections 2, 3.3) step by step on the protocol
// testbed, showing why 2PC blocks and EasyCommit does not, then
// demonstrates WAL-driven independent recovery (Section 4.2).
//
// Run: ./build/examples/failure_recovery
//
// With `--trace-dir DIR`, the EasyCommit multi-failure run is re-executed
// with protocol tracing enabled and exported to DIR as
// failure_recovery_ec.jsonl (offline checker / grep) and
// failure_recovery_ec.chrome.json (load in Perfetto or chrome://tracing).
//
// With `--chaos-seed N`, the scripted walkthrough is replaced by a seeded
// chaos case (src/chaos/): a generated fault plan — crashes, restarts,
// link cuts, loss bursts, delay spikes — runs against an EasyCommit
// cluster, then the end-to-end crash-recovery audit crash-restarts every
// node and checks atomicity, durability and liveness. Same seed, same
// timeline, same verdict, every time.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/campaign.h"
#include "chaos/fault_plan.h"
#include "commit/recovery.h"
#include "commit/testbed.h"
#include "trace/trace_export.h"

using namespace ecdb;
using ecdb::testbed::ProtocolTestbed;

namespace {

// The scenario: coordinator C(0) and cohorts X(1), Y(2), Z(3). C decides
// commit, fails mid-broadcast so only X is addressed, and X fails too.
void RunMotivatingExample(CommitProtocol protocol, bool x_receives,
                          const std::string& trace_dir = "") {
  std::printf("\n--- %s, X %s the decision before failing ---\n",
              ToString(protocol).c_str(),
              x_receives ? "receives (and under EC forwards)" : "never sees");

  NetworkConfig net;
  net.base_latency_us = 100;
  net.jitter_us = 0;
  ProtocolTestbed bed(protocol, 4, net);
  if (!trace_dir.empty()) bed.EnableTracing();

  bed.network().SetSendFilter([&bed](const Message& msg) {
    const bool decision = msg.type == MsgType::kGlobalCommit ||
                          msg.type == MsgType::kGlobalAbort;
    if (decision && msg.src == 0 && !msg.forwarded && msg.dst != 1) {
      std::printf("  [fault] C crashes mid-broadcast; decision for node %u "
                  "never leaves C\n", msg.dst);
      bed.network().CrashNode(0);
      return false;
    }
    return true;
  });
  bed.network().SetDeliveryInterceptor([&bed,
                                        x_receives](const Message& msg) {
    const bool decision = msg.type == MsgType::kGlobalCommit ||
                          msg.type == MsgType::kGlobalAbort;
    if (decision && msg.src == 0 && msg.dst == 1 && !x_receives) {
      std::printf("  [fault] X crashes before the decision reaches it\n");
      bed.network().CrashNode(1);
      return false;
    }
    return true;
  });

  const TxnId txn = bed.StartAll();
  bed.Settle();
  if (x_receives && !bed.network().IsCrashed(1)) {
    std::printf("  [fault] X crashes after forwarding + committing\n");
    bed.network().CrashNode(1);
    bed.Settle();
  }

  for (NodeId id = 2; id <= 3; ++id) {
    const auto applied = bed.host(id).applied(txn);
    if (applied.has_value()) {
      std::printf("  node %u (%c): decided %s\n", id, id == 2 ? 'Y' : 'Z',
                  ToString(*applied).c_str());
    } else if (bed.host(id).blocked_count() > 0) {
      std::printf("  node %u (%c): BLOCKED — cannot terminate the "
                  "transaction\n", id, id == 2 ? 'Y' : 'Z');
    } else {
      std::printf("  node %u (%c): undecided\n", id, id == 2 ? 'Y' : 'Z');
    }
  }
  std::printf("  termination rounds run: %llu, safety violations: %zu\n",
              static_cast<unsigned long long>(
                  bed.Totals().termination_rounds),
              bed.monitor().Violations().size());

  if (!trace_dir.empty()) {
    TraceMeta meta;
    meta.runtime = "testbed";
    meta.protocol = ToString(protocol);
    meta.num_nodes = 4;
    for (const TraceRecorder* rec : bed.recorders()) {
      meta.dropped.push_back(rec->dropped());
    }
    const std::vector<TraceEvent> events = CollectEvents(bed.recorders());
    const std::string jsonl = trace_dir + "/failure_recovery_ec.jsonl";
    const std::string chrome = trace_dir + "/failure_recovery_ec.chrome.json";
    if (!WriteJsonlFile(meta, events, jsonl) ||
        !WriteChromeTraceFile(meta, events, chrome)) {
      std::fprintf(stderr, "failed to write traces under %s\n",
                   trace_dir.c_str());
      std::exit(1);
    }
    std::printf("  traced %zu events -> %s (+ .chrome.json)\n",
                events.size(), jsonl.c_str());
  }
}

// Independent recovery (Section 4.2): what a node decides from its own WAL
// after a crash.
void ShowIndependentRecovery() {
  std::printf("\n--- independent recovery from the WAL (Section 4.2) ---\n");
  MemoryWal wal;
  // Four transactions crashed at different protocol points.
  wal.Append({0, 1, LogRecordType::kReady, {0, 1, 2}});          // voted
  wal.Append({0, 2, LogRecordType::kBeginCommit, {1, 0, 2}});    // pre-vote
  wal.Append({0, 3, LogRecordType::kCommitReceived, {0, 1, 2}});
  wal.Append({0, 4, LogRecordType::kAbortDecision, {1, 0, 2}});

  const std::vector<LogRecord>& log = wal.Scan();
  for (const InFlightTxn& txn : RecoveryManager::Plan(log, 0).in_flight) {
    const auto last = std::find_if(
        log.rbegin(), log.rend(),
        [&txn](const LogRecord& r) { return r.txn == txn.txn; });
    const char* action = "?";
    switch (txn.action) {
      case RecoveryAction::kAbort:
        action = "abort independently";
        break;
      case RecoveryAction::kCommit:
        action = "commit independently";
        break;
      case RecoveryAction::kConsultPeers:
        action = "consult peers (outcome unknowable locally)";
        break;
    }
    std::printf("  txn %llu: last entry '%s' -> %s\n",
                static_cast<unsigned long long>(txn.txn),
                ToString(last->type).c_str(), action);
  }
}

// Seeded chaos mode: one generated fault plan + the full audit, narrated.
int RunChaosCaseDemo(uint64_t seed) {
  ChaosCaseConfig cfg;  // EasyCommit, 4 nodes, default intensity
  std::printf("Chaos case: %s, %u nodes, seed %llu (deterministic)\n",
              ToString(cfg.protocol).c_str(), cfg.num_nodes,
              static_cast<unsigned long long>(seed));

  const FaultPlan plan = GenerateFaultPlan(seed, cfg.num_nodes,
                                           cfg.horizon_us, cfg.intensity);
  std::printf("\nfault timeline (%zu events over %llu ms):\n",
              plan.events.size(),
              static_cast<unsigned long long>(plan.horizon_us / 1000));
  for (const FaultEvent& ev : plan.events) {
    std::printf("  t=%6llu us  %s", static_cast<unsigned long long>(ev.at_us),
                ToString(ev.type));
    if (ev.a != kInvalidNode) std::printf("  a=%u", ev.a);
    if (ev.b != kInvalidNode) std::printf("  b=%u", ev.b);
    if (ev.duration_us > 0) {
      std::printf("  for %llu us",
                  static_cast<unsigned long long>(ev.duration_us));
    }
    if (ev.probability > 0) std::printf("  p=%.2f", ev.probability);
    std::printf("\n");
  }

  const ChaosCaseResult result = RunChaosCase(cfg, seed);
  std::printf("\naudit (quiesce -> crash every node -> WAL recovery -> "
              "drain):\n");
  std::printf("  quiescent:     %s\n", result.audit.quiescent ? "yes" : "NO");
  std::printf("  acked commits: %llu\n",
              static_cast<unsigned long long>(result.audit.acked_commits));
  std::printf("  blocked txns:  %llu\n",
              static_cast<unsigned long long>(result.audit.blocked_txns));
  for (const AuditViolation& v : result.audit.violations) {
    std::printf("  VIOLATION [%s] txn=%llu: %s\n", v.check.c_str(),
                static_cast<unsigned long long>(v.txn), v.detail.c_str());
  }
  std::printf("\nverdict: %s\n", result.ok() ? "PASS — every client-acked "
              "commit survived, no node disagrees on any outcome"
                                             : "FAIL");
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--chaos-seed") == 0 && i + 1 < argc) {
      return RunChaosCaseDemo(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: failure_recovery [--trace-dir DIR] "
                   "[--chaos-seed N]\n");
      return 2;
    }
  }

  std::printf("Failure handling: the paper's motivating example\n");
  std::printf("(coordinator C + cohorts X, Y, Z; C and X fail)\n");

  RunMotivatingExample(CommitProtocol::kTwoPhase, /*x_receives=*/false);
  RunMotivatingExample(CommitProtocol::kEasyCommit, /*x_receives=*/false);
  RunMotivatingExample(CommitProtocol::kEasyCommit, /*x_receives=*/true,
                       trace_dir);
  RunMotivatingExample(CommitProtocol::kThreePhase, /*x_receives=*/false);

  ShowIndependentRecovery();

  std::printf("\nSummary: 2PC blocks Y and Z; EC terminates them in two\n"
              "phases (abort when nobody saw the decision, commit when X's\n"
              "forwards arrive); 3PC also terminates but needs its third\n"
              "phase on every transaction to do so.\n");
  return 0;
}
