// Parameterized YCSB driver: explore the simulated cluster from the
// command line and print the full metric readout, including the Figure-12
// style time breakdown.
//
// Usage: ycsb_demo [protocol] [nodes] [theta] [write_pct] [parts_per_txn]
//                  [coalesce] [workers]
//   protocol: any ParseProtocol name, e.g. 2pc | 3pc | ec | ec-noforward |
//             2pc-pa | 2pc-pc | e3pc | paxos    (default ec)
//   nodes:    cluster size (any size; the sim and the worker pool both
//             host hundreds of nodes)           (default 8)
//   theta:    Zipfian skew 0.0..0.95            (default 0.6)
//   write_pct: percent of operations that write (default 50)
//   parts_per_txn: partitions per transaction   (default 2)
//   coalesce: 1 enables transport coalescing    (default 0)
//   workers:  >0 runs the threaded runtime on a shard-per-core pool of
//             that many OS threads (nodes hosted node_id % workers) and
//             appends the per-worker occupancy readout; 0 = simulator
//             (default 0)

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cluster/sim_cluster.h"
#include "cluster/thread_node.h"
#include "workload/ycsb.h"

using namespace ecdb;

namespace {

/// Threaded-runtime variant: same workload knobs, wall-clock execution on
/// a shard-per-core worker pool, plus the per-worker readout the simulator
/// has no equivalent of.
int RunThreaded(const ClusterConfig& sim_config, const YcsbConfig& ycsb,
                uint32_t workers) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = sim_config.num_nodes;
  cfg.protocol = sim_config.protocol;
  cfg.worker_threads = workers;
  cfg.coalesce_transport = sim_config.coalesce_transport;
  cfg.clients_per_node = 4;
  // Wall-clock protocol timeouts, generous against scheduler noise.
  cfg.commit.timeout_us = 250'000;
  cfg.commit.termination_window_us = 80'000;
  cfg.seed = 7;

  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(1.0);
  cluster.Quiesce();
  cluster.Stop();

  const double seconds = 1.0;
  const ClusterStats stats = cluster.CollectStats(seconds);
  std::printf("\n  throughput        %10.0f txns/s\n", stats.Throughput());
  std::printf("  latency p50       %10.2f ms\n",
              stats.total.latency.Percentile(0.5) / 1000.0);
  std::printf("  latency p99       %10.2f ms\n",
              stats.total.latency.Percentile(0.99) / 1000.0);
  std::printf("  latency p99.9     %10.2f ms\n",
              stats.total.latency.Percentile(0.999) / 1000.0);
  std::printf("  aborts per commit %10.3f\n", stats.AbortRate());
  std::printf("  worker pool       %10llu threads for %zu nodes\n",
              static_cast<unsigned long long>(stats.worker_threads),
              cluster.num_nodes());
  std::printf("  message paths     %10llu mailbox / %llu same-worker local\n",
              static_cast<unsigned long long>(stats.worker_mailbox_messages),
              static_cast<unsigned long long>(stats.worker_local_messages));

  std::printf("\n  per-worker event loops:\n");
  const std::vector<WorkerStats> per_worker = cluster.CollectWorkerStats();
  for (size_t w = 0; w < per_worker.size(); ++w) {
    const WorkerStats& ws = per_worker[w];
    std::printf("    worker %2zu: nodes %4llu  occupancy %5.1f%%  "
                "batches %8llu (max %llu)  mailbox %8llu  local %8llu  "
                "timers %8llu\n",
                w, static_cast<unsigned long long>(ws.nodes_hosted),
                100.0 * ws.Occupancy(),
                static_cast<unsigned long long>(ws.mailbox_batches),
                static_cast<unsigned long long>(ws.max_batch),
                static_cast<unsigned long long>(ws.mailbox_messages),
                static_cast<unsigned long long>(ws.local_messages),
                static_cast<unsigned long long>(ws.timers_fired));
  }
  std::printf("\n  safety violations: %zu (must be 0)\n",
              cluster.monitor().Violations().size());
  return cluster.monitor().Violations().empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ClusterConfig cluster_config;
  cluster_config.num_nodes = 8;
  cluster_config.protocol = CommitProtocol::kEasyCommit;

  YcsbConfig ycsb;
  ycsb.rows_per_partition = 131072;
  ycsb.theta = 0.6;

  if (argc > 1) {
    const auto protocol = ParseProtocol(argv[1]);
    if (!protocol) {
      std::fprintf(stderr, "unknown protocol '%s'\n", argv[1]);
      return 2;
    }
    cluster_config.protocol = *protocol;
  }
  if (argc > 2) cluster_config.num_nodes = std::atoi(argv[2]);
  if (argc > 3) ycsb.theta = std::atof(argv[3]);
  if (argc > 4) ycsb.write_fraction = std::atof(argv[4]) / 100.0;
  if (argc > 5) ycsb.partitions_per_txn = std::atoi(argv[5]);
  if (argc > 6) cluster_config.coalesce_transport = std::atoi(argv[6]) != 0;
  uint32_t workers = 0;
  if (argc > 7) workers = static_cast<uint32_t>(std::atoi(argv[7]));
  ycsb.num_partitions = cluster_config.num_nodes;

  std::printf("YCSB on %u nodes, %s, theta %.2f, %.0f%% writes, "
              "%u partitions/txn%s%s\n",
              cluster_config.num_nodes,
              ToString(cluster_config.protocol).c_str(), ycsb.theta,
              ycsb.write_fraction * 100.0, ycsb.partitions_per_txn,
              cluster_config.coalesce_transport ? ", coalesced" : "",
              workers > 0 ? ", threaded" : "");

  if (workers > 0) {
    return RunThreaded(cluster_config, ycsb, workers);
  }

  SimCluster cluster(cluster_config, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(0.25);
  cluster.BeginMeasurement();
  cluster.RunFor(1.0);
  const ClusterStats stats = cluster.CollectStats(1.0);

  std::printf("\n  throughput        %10.0f txns/s\n", stats.Throughput());
  std::printf("  latency mean      %10.2f ms\n",
              stats.total.latency.Mean() / 1000.0);
  std::printf("  latency p50       %10.2f ms\n",
              stats.total.latency.Percentile(0.5) / 1000.0);
  std::printf("  latency p99       %10.2f ms\n",
              stats.total.latency.Percentile(0.99) / 1000.0);
  std::printf("  latency p99.9     %10.2f ms\n",
              stats.total.latency.Percentile(0.999) / 1000.0);
  std::printf("  aborts per commit %10.3f\n", stats.AbortRate());
  std::printf("  commit protocols  %10llu runs\n",
              static_cast<unsigned long long>(
                  stats.total.commit_protocol_runs));
  std::printf("  blocked txns      %10llu\n",
              static_cast<unsigned long long>(stats.total.txns_blocked));

  std::printf("\n  commit phase latency (committed txns, us):\n");
  struct PhaseRow {
    const char* name;
    const Histogram* h;
  };
  const PhaseRow phases[] = {
      {"vote collection", &stats.total.phase_vote},
      {"decision transmit", &stats.total.phase_transmit},
      {"decision apply", &stats.total.phase_apply},
  };
  for (const PhaseRow& p : phases) {
    std::printf("    %-18s mean %8.1f  p99 %8llu  p99.9 %8llu  (n=%llu)\n",
                p.name, p.h->Mean(),
                static_cast<unsigned long long>(p.h->Percentile(0.99)),
                static_cast<unsigned long long>(p.h->Percentile(0.999)),
                static_cast<unsigned long long>(p.h->count()));
  }
  std::printf("  termination rounds %9llu, messages at crashed nodes: "
              "from %llu / to %llu\n",
              static_cast<unsigned long long>(
                  stats.total.termination_rounds),
              static_cast<unsigned long long>(
                  stats.net_messages_from_crashed),
              static_cast<unsigned long long>(stats.net_messages_to_crashed));

  std::printf("\n  time breakdown (Figure 12 categories):\n");
  for (size_t c = 0; c < kNumTimeCategories; ++c) {
    std::printf("    %-12s %6.1f%%\n",
                ToString(static_cast<TimeCategory>(c)).c_str(),
                100.0 * stats.TimeFraction(static_cast<TimeCategory>(c)));
  }

  std::printf("\n  network: %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(
                  cluster.network().stats().messages_sent),
              static_cast<unsigned long long>(
                  cluster.network().stats().bytes_sent));
  std::printf("  coalescing: %llu frames, %llu messages coalesced, "
              "%llu duplicate decisions suppressed, %llu WAL group flushes\n",
              static_cast<unsigned long long>(stats.net_frames_sent),
              static_cast<unsigned long long>(stats.net_messages_coalesced),
              static_cast<unsigned long long>(
                  stats.duplicate_decisions_suppressed),
              static_cast<unsigned long long>(stats.wal_group_flushes));
  std::printf("  safety violations: %zu (must be 0 for 2pc/3pc/ec)\n",
              cluster.monitor().Violations().size());
  return 0;
}
