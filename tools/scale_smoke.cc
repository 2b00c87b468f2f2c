// scale_smoke: budgeted large-cluster commit rounds for CI.
//
//   scale_smoke [--nodes N] [--participants K] [--rounds R]
//               [--protocol ec|ecnf|2pc|2pc-pa|2pc-pc|3pc|e3pc|paxos]
//               [--max-rss-mb MB] [--max-seconds S]
//               [--open-loop [--rate R] [--sim-seconds S]
//                            [--parts-per-txn P] [--max-in-flight M]
//                            [--threaded [--workers W]]]
//
// Default mode builds an N-node ProtocolTestbed (the discrete-event
// simulator: real scheduler, real SimNetwork, real CommitEngines) and
// drives R full commit rounds, each spanning a K-participant window that
// rotates across the cluster so successive rounds touch different links.
//
// --open-loop instead drives SimCluster proper — the full cluster loop
// (clients, execution, locks, WAL, commit protocol) rather than the
// bare-protocol testbed — under open-loop Poisson arrivals with a
// multi-partition YCSB workload: N partitions, P-partition transactions,
// R arrivals/sec/node for S simulated seconds, then a quiesce + drain.
// The run fails if the open-loop conservation law (offered == committed +
// rejected + terminal aborts) does not hold at drain.
//
// --open-loop --threaded runs the same open-loop shape on the threaded
// runtime instead: N ThreadNodes hosted M:N on a --workers W shard-per-core
// pool under wall-clock arrivals (--sim-seconds is wall time here), and the
// summary adds the per-worker occupancy / mailbox-vs-local traffic split.
// The conservation check allows the bounded wall-clock drain slack (at most
// one admission window per node still open).
//
// Both modes print one summary line and enforce two budgets:
//
//   --max-rss-mb    peak RSS (getrusage ru_maxrss) — the scale axis's
//                   memory acceptance: node/link state must be O(active),
//                   not O(N^2).
//   --max-seconds   wall-clock budget for the whole run.
//
// Exit code 0 iff every round committed everywhere (open loop:
// conservation held and something committed) and both budgets held.
// CI runs this at N=1024 (full-span rounds + an open-loop run) and
// N=10000 (K=512 windows); see .github/workflows/ci.yml.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <memory>

#include "cluster/sim_cluster.h"
#include "cluster/thread_node.h"
#include "commit/testbed.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "workload/ycsb.h"

namespace {

using namespace ecdb;
using ecdb::testbed::ProtocolTestbed;

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes N] [--participants K] [--rounds R]\n"
               "          [--protocol ec|ecnf|2pc|2pc-pa|2pc-pc|3pc|e3pc|"
               "paxos]\n"
               "          [--max-rss-mb MB] [--max-seconds S]\n"
               "          [--open-loop [--rate R] [--sim-seconds S]\n"
               "                       [--parts-per-txn P] "
               "[--max-in-flight M]\n"
               "                       [--threaded [--workers W]]]\n",
               argv0);
  return 2;
}

/// SimCluster-proper open-loop run (see file comment). Sets *failed on
/// any correctness problem; budget enforcement happens in main (shared
/// with the testbed mode).
void RunOpenLoop(uint32_t nodes, CommitProtocol protocol,
                 double rate, double sim_seconds,
                 uint32_t parts_per_txn, uint32_t max_in_flight,
                 bool* failed) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.protocol = protocol;
  cfg.coalesce_transport = true;
  cfg.network.base_latency_us = 50;
  cfg.network.jitter_us = 10;
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = rate;
  cfg.open_loop.max_in_flight_per_node = max_in_flight;
  cfg.seed = 7;

  YcsbConfig ycsb;
  ycsb.num_partitions = nodes;
  // Rows scale with the admission window, not the cluster: the store only
  // needs enough keys that concurrent transactions rarely collide.
  ycsb.rows_per_partition = 256;
  ycsb.theta = 0.6;
  ycsb.partitions_per_txn = parts_per_txn;

  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(sim_seconds);
  cluster.Quiesce();
  cluster.RunToQuiescence();

  const ClusterStats stats = cluster.CollectStats(sim_seconds);
  uint64_t offered = 0, committed = stats.total.txns_committed;
  uint64_t accounted = committed + stats.total.open_loop_rejected +
                       stats.total.open_loop_aborted;
  offered = stats.total.open_loop_offered;
  std::printf(
      "scale_smoke[open-loop]: nodes=%u protocol=%s parts_per_txn=%u "
      "rate=%.0f/s/node sim_seconds=%.2f offered=%llu committed=%llu "
      "rejected=%llu aborted=%llu p50_us=%llu p99_us=%llu\n",
      nodes, ToString(protocol).c_str(), parts_per_txn, rate, sim_seconds,
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(stats.total.open_loop_rejected),
      static_cast<unsigned long long>(stats.total.open_loop_aborted),
      static_cast<unsigned long long>(stats.total.latency.Percentile(0.50)),
      static_cast<unsigned long long>(stats.total.latency.Percentile(0.99)));

  if (committed == 0) {
    std::fprintf(stderr, "FAIL: open-loop run committed nothing\n");
    *failed = true;
  }
  // After a full drain the conservation law must hold exactly: every
  // offered arrival ended committed, shed, or terminally aborted.
  if (accounted != offered) {
    std::fprintf(stderr,
                 "FAIL: conservation violated: offered=%llu accounted=%llu\n",
                 static_cast<unsigned long long>(offered),
                 static_cast<unsigned long long>(accounted));
    *failed = true;
  }
  if (!cluster.monitor().Violations().empty()) {
    std::fprintf(stderr, "FAIL: safety violations recorded\n");
    *failed = true;
  }
}

/// Threaded-runtime open-loop smoke: the shard-per-core worker pool hosts
/// `nodes` ThreadNodes on `workers` OS threads under wall-clock Poisson
/// arrivals. `run_seconds` here is wall time, not simulated time.
void RunThreadedOpenLoop(uint32_t nodes, uint32_t workers,
                         CommitProtocol protocol, double rate,
                         double run_seconds, uint32_t parts_per_txn,
                         uint32_t max_in_flight, bool* failed) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.protocol = protocol;
  cfg.worker_threads = workers;
  cfg.coalesce_transport = true;
  // Generous wall-clock timeouts: CI machines stall; a spurious timeout
  // just looks like the paper's delay scenario but costs retries.
  cfg.commit.timeout_us = 250'000;
  cfg.commit.termination_window_us = 80'000;
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = rate;
  cfg.open_loop.max_in_flight_per_node = max_in_flight;
  cfg.seed = 7;

  YcsbConfig ycsb;
  ycsb.num_partitions = nodes;
  ycsb.rows_per_partition = 2048;
  ycsb.theta = 0.6;
  ycsb.partitions_per_txn = parts_per_txn;

  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(run_seconds);
  cluster.Quiesce();
  cluster.Stop();

  const ClusterStats stats = cluster.CollectStats(run_seconds);
  const uint64_t offered = stats.total.open_loop_offered;
  const uint64_t committed = stats.total.txns_committed;
  const uint64_t accounted = committed + stats.total.open_loop_rejected +
                             stats.total.open_loop_aborted;
  std::printf(
      "scale_smoke[threaded]: nodes=%u workers=%zu protocol=%s "
      "rate=%.0f/s/node run_seconds=%.2f offered=%llu committed=%llu "
      "rejected=%llu aborted=%llu p50_us=%llu p99_us=%llu "
      "mailbox_msgs=%llu local_msgs=%llu\n",
      nodes, cluster.num_workers(), ToString(protocol).c_str(), rate,
      run_seconds, static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(stats.total.open_loop_rejected),
      static_cast<unsigned long long>(stats.total.open_loop_aborted),
      static_cast<unsigned long long>(stats.total.latency.Percentile(0.50)),
      static_cast<unsigned long long>(stats.total.latency.Percentile(0.99)),
      static_cast<unsigned long long>(stats.worker_mailbox_messages),
      static_cast<unsigned long long>(stats.worker_local_messages));
  const std::vector<WorkerStats> per_worker = cluster.CollectWorkerStats();
  for (size_t w = 0; w < per_worker.size(); ++w) {
    const WorkerStats& ws = per_worker[w];
    std::printf("  worker %zu: nodes=%llu occupancy=%.1f%% batches=%llu "
                "mailbox=%llu local=%llu timers=%llu\n",
                w, static_cast<unsigned long long>(ws.nodes_hosted),
                100.0 * ws.Occupancy(),
                static_cast<unsigned long long>(ws.mailbox_batches),
                static_cast<unsigned long long>(ws.mailbox_messages),
                static_cast<unsigned long long>(ws.local_messages),
                static_cast<unsigned long long>(ws.timers_fired));
  }

  if (committed == 0) {
    std::fprintf(stderr, "FAIL: threaded open-loop run committed nothing\n");
    *failed = true;
  }
  // The wall-clock drain is best-effort (Quiesce waits a bounded time), so
  // unlike the simulator the books may close with a few positions still
  // open — but never more than the cluster-wide admission cap, and never
  // more closed than offered.
  const uint64_t slack = static_cast<uint64_t>(nodes) * max_in_flight;
  if (accounted > offered || offered - accounted > slack) {
    std::fprintf(stderr,
                 "FAIL: conservation violated: offered=%llu accounted=%llu "
                 "(slack %llu)\n",
                 static_cast<unsigned long long>(offered),
                 static_cast<unsigned long long>(accounted),
                 static_cast<unsigned long long>(slack));
    *failed = true;
  }
  if (!cluster.monitor().Violations().empty()) {
    std::fprintf(stderr, "FAIL: safety violations recorded\n");
    *failed = true;
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t nodes = 10'000;
  uint32_t participants = 512;
  uint32_t rounds = 3;
  CommitProtocol protocol = CommitProtocol::kEasyCommit;
  double max_rss_mb = 0;    // 0 = unenforced
  double max_seconds = 0;   // 0 = unenforced
  bool open_loop = false;
  bool threaded = false;
  uint32_t workers = 4;
  double rate = 50.0;        // arrivals/sec/node
  double sim_seconds = 0.5;  // simulated (threaded mode: wall)
  uint32_t parts_per_txn = 3;
  uint32_t max_in_flight = 16;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--nodes") {
      nodes = static_cast<uint32_t>(std::strtoul(next("--nodes"), nullptr, 10));
    } else if (arg == "--participants") {
      participants = static_cast<uint32_t>(
          std::strtoul(next("--participants"), nullptr, 10));
    } else if (arg == "--rounds") {
      rounds =
          static_cast<uint32_t>(std::strtoul(next("--rounds"), nullptr, 10));
    } else if (arg == "--protocol") {
      const char* name = next("--protocol");
      const auto parsed = ParseProtocol(name);
      if (!parsed) {
        std::fprintf(stderr, "unknown protocol '%s'\n", name);
        return 2;
      }
      protocol = *parsed;
    } else if (arg == "--max-rss-mb") {
      max_rss_mb = std::strtod(next("--max-rss-mb"), nullptr);
    } else if (arg == "--max-seconds") {
      max_seconds = std::strtod(next("--max-seconds"), nullptr);
    } else if (arg == "--open-loop") {
      open_loop = true;
    } else if (arg == "--threaded") {
      threaded = true;
    } else if (arg == "--workers") {
      workers = static_cast<uint32_t>(
          std::strtoul(next("--workers"), nullptr, 10));
    } else if (arg == "--rate") {
      rate = std::strtod(next("--rate"), nullptr);
    } else if (arg == "--sim-seconds") {
      sim_seconds = std::strtod(next("--sim-seconds"), nullptr);
    } else if (arg == "--parts-per-txn") {
      parts_per_txn = static_cast<uint32_t>(
          std::strtoul(next("--parts-per-txn"), nullptr, 10));
    } else if (arg == "--max-in-flight") {
      max_in_flight = static_cast<uint32_t>(
          std::strtoul(next("--max-in-flight"), nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (nodes < 2 || participants < 2 || rounds == 0) {
    std::fprintf(stderr, "need --nodes >= 2, --participants >= 2, "
                         "--rounds >= 1\n");
    return 2;
  }
  if (participants > nodes) participants = nodes;
  if (open_loop &&
      (rate <= 0 || sim_seconds <= 0 || parts_per_txn < 2 ||
       parts_per_txn > nodes || max_in_flight == 0)) {
    std::fprintf(stderr, "need --rate > 0, --sim-seconds > 0, "
                         "2 <= --parts-per-txn <= nodes, "
                         "--max-in-flight >= 1\n");
    return 2;
  }

  const auto wall_start = std::chrono::steady_clock::now();

  if (threaded && !open_loop) {
    std::fprintf(stderr, "--threaded requires --open-loop\n");
    return 2;
  }
  if (threaded && workers == 0) {
    std::fprintf(stderr, "--threaded needs --workers >= 1\n");
    return 2;
  }

  if (open_loop) {
    bool failed = false;
    if (threaded) {
      RunThreadedOpenLoop(nodes, workers, protocol, rate, sim_seconds,
                          parts_per_txn, max_in_flight, &failed);
    } else {
      RunOpenLoop(nodes, protocol, rate, sim_seconds, parts_per_txn,
                  max_in_flight, &failed);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    const double rss_mb = PeakRssMb();
    std::printf("scale_smoke[open-loop]: seconds=%.2f maxrss_mb=%.1f\n",
                seconds, rss_mb);
    int rc = failed ? 1 : 0;
    if (max_rss_mb > 0 && rss_mb > max_rss_mb) {
      std::fprintf(stderr, "FAIL: peak RSS %.1f MB exceeds budget %.1f MB\n",
                   rss_mb, max_rss_mb);
      rc = 1;
    }
    if (max_seconds > 0 && seconds > max_seconds) {
      std::fprintf(stderr, "FAIL: wall time %.2f s exceeds budget %.2f s\n",
                   seconds, max_seconds);
      rc = 1;
    }
    return rc;
  }

  NetworkConfig net;
  net.base_latency_us = 1;
  net.jitter_us = 0;
  CommitEngineConfig commit;
  ProtocolTestbed bed(protocol, nodes, net, commit, /*seed=*/7);
  bed.network().EnableCoalescing(true);

  // A K-participant EC round is ~K^2 decision messages; give Settle
  // comfortable headroom on top of that.
  const size_t event_budget =
      64ULL * participants * participants * rounds + 1'000'000ULL;

  uint64_t total_events = 0;
  bool all_applied = true;
  for (uint32_t r = 0; r < rounds; ++r) {
    // Rotate the participant window so each round exercises fresh links —
    // the access pattern the O(active-link) network state is built for.
    const NodeId base_id = static_cast<NodeId>(
        (static_cast<uint64_t>(r) * participants) % nodes);
    const NodeId coord = base_id;
    const TxnId txn = MakeTxnId(coord, r + 1);
    CowVector<NodeId> members;
    for (uint32_t k = 0; k < participants; ++k) {
      members.push_back(static_cast<NodeId>((base_id + k) % nodes));
    }
    for (uint32_t k = 1; k < participants; ++k) {
      const NodeId id = static_cast<NodeId>((base_id + k) % nodes);
      bed.host(id).engine().ExpectPrepare(txn, coord, members);
    }
    bed.host(coord).engine().StartCommit(txn, members, Decision::kCommit);
    total_events += bed.Settle(event_budget);
    for (uint32_t k = 0; k < participants; ++k) {
      const NodeId id = static_cast<NodeId>((base_id + k) % nodes);
      const auto decision = bed.host(id).applied(txn);
      if (!decision.has_value() || *decision != Decision::kCommit) {
        std::fprintf(stderr, "round %u: node %u did not apply commit\n", r,
                     id);
        all_applied = false;
      }
    }
  }

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const double rss_mb = PeakRssMb();
  std::printf(
      "scale_smoke: nodes=%u participants=%u rounds=%u protocol=%s "
      "events=%llu seconds=%.2f maxrss_mb=%.1f\n",
      nodes, participants, rounds, ToString(protocol).c_str(),
      static_cast<unsigned long long>(total_events), seconds, rss_mb);

  int rc = 0;
  if (!all_applied) {
    std::fprintf(stderr, "FAIL: at least one participant missed a commit\n");
    rc = 1;
  }
  if (max_rss_mb > 0 && rss_mb > max_rss_mb) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MB exceeds budget %.1f MB\n",
                 rss_mb, max_rss_mb);
    rc = 1;
  }
  if (max_seconds > 0 && seconds > max_seconds) {
    std::fprintf(stderr, "FAIL: wall time %.2f s exceeds budget %.2f s\n",
                 seconds, max_seconds);
    rc = 1;
  }
  return rc;
}
