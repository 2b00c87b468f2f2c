// socket_cluster: drive the real-socket multi-process runtime from the CLI.
//
//   socket_cluster [--nodes N] [--protocol ec|ecnf|2pc|2pc-pa|2pc-pc|3pc|
//                               e3pc|paxos]
//                  [--seconds S] [--clients C]
//                  [--rate R [--max-in-flight M] [--max-attempts A]]
//                  [--no-coalesce] [--seed S] [--wal-dir DIR]
//                  [--telemetry-dir DIR]
//                  [--kill-node ID --kill-at SEC [--restart-at SEC]]
//                  [--assert-conservation] [--assert-coalesced]
//
// Forks one OS process per node; the processes form a loopback TCP mesh
// (MessageFrame over epoll, see src/cluster/socket_node.h) and run the
// YCSB load for --seconds of wall time, then quiesce, drain and report.
//
// --rate R switches to open-loop arrivals (R/sec/node); without it the
// closed loop runs --clients clients per node. --kill-node SIGKILLs that
// node's process at --kill-at seconds (peers see a real TCP reset);
// --restart-at replaces it with a fresh process over the same WAL, which
// replays recovery before serving. A kill/restart schedule requires a
// file-backed WAL; --wal-dir defaults to a fresh temp directory.
//
// --assert-conservation enforces the open-loop conservation law over the
// aggregated ledger (exit 1 on violation; only valid for kill-free runs —
// a SIGKILLed process takes its counters with it). --assert-coalesced
// enforces that transport coalescing actually batched (frames carried
// more messages than frames). CI runs both on an n=4 smoke; see
// .github/workflows/ci.yml.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <stdlib.h>  // mkdtemp

#include "cluster/socket_cluster.h"
#include "common/types.h"

namespace {

using namespace ecdb;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--nodes N] [--protocol ec|ecnf|2pc|2pc-pa|2pc-pc|3pc|"
      "e3pc|paxos]\n"
      "          [--seconds S] [--clients C]\n"
      "          [--rate R [--max-in-flight M] [--max-attempts A]]\n"
      "          [--no-coalesce] [--seed S] [--wal-dir DIR]\n"
      "          [--telemetry-dir DIR]\n"
      "          [--kill-node ID --kill-at SEC [--restart-at SEC]]\n"
      "          [--assert-conservation] [--assert-coalesced]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Node-process entry: when exec'd with the --ecdb-socket-node marker this
  // call runs the whole node lifecycle and never supervises.
  if (ecdb::MaybeRunSocketNodeChild(argc, argv)) return 0;

  SocketClusterConfig cfg;
  cfg.clients_per_node = 8;
  double seconds = 2.0;
  double kill_at = -1.0, restart_at = -1.0;
  int64_t kill_node = -1;
  bool assert_conservation = false;
  bool assert_coalesced = false;

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
      cfg.num_nodes =
          static_cast<uint32_t>(std::strtoul(next("--nodes"), nullptr, 10));
    } else if (arg == "--protocol") {
      const auto protocol = ParseProtocol(next("--protocol"));
      if (!protocol) {
        std::fprintf(stderr, "unknown protocol\n");
        return 2;
      }
      cfg.protocol = *protocol;
    } else if (arg == "--seconds") {
      seconds = std::strtod(next("--seconds"), nullptr);
    } else if (arg == "--clients") {
      cfg.clients_per_node =
          static_cast<uint32_t>(std::strtoul(next("--clients"), nullptr, 10));
    } else if (arg == "--rate") {
      cfg.open_loop = true;
      cfg.arrivals_per_sec_per_node = std::strtod(next("--rate"), nullptr);
    } else if (arg == "--max-in-flight") {
      cfg.max_in_flight_per_node = static_cast<uint32_t>(
          std::strtoul(next("--max-in-flight"), nullptr, 10));
    } else if (arg == "--max-attempts") {
      cfg.max_attempts = static_cast<uint32_t>(
          std::strtoul(next("--max-attempts"), nullptr, 10));
    } else if (arg == "--no-coalesce") {
      cfg.coalesce = false;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (arg == "--wal-dir") {
      cfg.wal_dir = next("--wal-dir");
    } else if (arg == "--telemetry-dir") {
      cfg.telemetry = true;
      cfg.telemetry_dir = next("--telemetry-dir");
    } else if (arg == "--kill-node") {
      kill_node = std::strtol(next("--kill-node"), nullptr, 10);
    } else if (arg == "--kill-at") {
      kill_at = std::strtod(next("--kill-at"), nullptr);
    } else if (arg == "--restart-at") {
      restart_at = std::strtod(next("--restart-at"), nullptr);
    } else if (arg == "--assert-conservation") {
      assert_conservation = true;
    } else if (arg == "--assert-coalesced") {
      assert_coalesced = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (cfg.num_nodes < 2 || seconds <= 0) {
    std::fprintf(stderr, "need --nodes >= 2 and --seconds > 0\n");
    return 2;
  }
  const bool has_kill = kill_node >= 0 && kill_at >= 0;
  if ((kill_node >= 0) != (kill_at >= 0)) {
    std::fprintf(stderr, "--kill-node and --kill-at go together\n");
    return 2;
  }
  if (has_kill && static_cast<uint32_t>(kill_node) >= cfg.num_nodes) {
    std::fprintf(stderr, "--kill-node out of range\n");
    return 2;
  }
  if (restart_at >= 0 && (!has_kill || restart_at <= kill_at)) {
    std::fprintf(stderr, "--restart-at needs a --kill-at before it\n");
    return 2;
  }
  if (assert_conservation && (has_kill || !cfg.open_loop)) {
    std::fprintf(stderr,
                 "--assert-conservation needs --rate and no kill schedule\n");
    return 2;
  }
  if (has_kill && cfg.wal_dir.empty()) {
    char tmpl[] = "/tmp/ecdb_socket_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    if (dir == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    cfg.wal_dir = dir;
    std::printf("socket_cluster: wal-dir %s\n", dir);
  }

  SocketCluster cluster(cfg);
  if (!cluster.Start()) {
    std::fprintf(stderr, "FAIL: cluster failed to start\n");
    cluster.Stop();
    return 1;
  }

  double elapsed = 0.0;
  auto run_until = [&](double t) {
    if (t > elapsed) {
      cluster.RunFor(t - elapsed);
      elapsed = t;
    }
  };
  if (has_kill) {
    run_until(kill_at);
    std::printf("socket_cluster: SIGKILL node %lld at %.2fs\n",
                static_cast<long long>(kill_node), kill_at);
    cluster.Kill(static_cast<NodeId>(kill_node));
    if (restart_at >= 0) {
      run_until(restart_at);
      std::printf("socket_cluster: restart node %lld at %.2fs\n",
                  static_cast<long long>(kill_node), restart_at);
      if (!cluster.Restart(static_cast<NodeId>(kill_node))) {
        std::fprintf(stderr, "FAIL: restart failed\n");
        cluster.Stop();
        return 1;
      }
    }
  }
  run_until(seconds);
  cluster.Quiesce(/*drain_seconds=*/1.0);
  SocketRunStats run = cluster.Stop();

  const SocketIoStats io = run.Io();
  const uint64_t committed = run.Committed();
  std::printf(
      "socket_cluster: nodes=%u protocol=%s coalesce=%d seconds=%.2f "
      "committed=%llu (%.0f/s) offered=%llu rejected=%llu taborted=%llu "
      "dup_suppressed=%llu p50_us=%llu p99_us=%llu\n",
      cfg.num_nodes, ToString(cfg.protocol).c_str(), cfg.coalesce ? 1 : 0,
      seconds, static_cast<unsigned long long>(committed),
      static_cast<double>(committed) / seconds,
      static_cast<unsigned long long>(run.Offered()),
      static_cast<unsigned long long>(run.Rejected()),
      static_cast<unsigned long long>(run.TerminalAborted()),
      static_cast<unsigned long long>(run.DuplicateDecisionsSuppressed()),
      static_cast<unsigned long long>(run.latency.Percentile(0.50)),
      static_cast<unsigned long long>(run.latency.Percentile(0.99)));
  std::printf(
      "socket_cluster[io]: bytes_out=%llu bytes_in=%llu writev=%llu "
      "reads=%llu frames_out=%llu msgs_out=%llu frames_per_writev=%.2f "
      "msgs_per_frame=%.2f partial=%llu eagain=%llu reconnects=%llu "
      "overflow_drops=%llu corrupt=%llu syscalls_per_txn=%.1f\n",
      static_cast<unsigned long long>(io.bytes_out),
      static_cast<unsigned long long>(io.bytes_in),
      static_cast<unsigned long long>(io.writev_calls),
      static_cast<unsigned long long>(io.read_calls),
      static_cast<unsigned long long>(io.frames_out),
      static_cast<unsigned long long>(io.messages_out),
      io.writev_calls ? static_cast<double>(io.frames_out) /
                            static_cast<double>(io.writev_calls)
                      : 0.0,
      io.frames_out ? static_cast<double>(io.messages_out) /
                          static_cast<double>(io.frames_out)
                    : 0.0,
      static_cast<unsigned long long>(io.partial_writes),
      static_cast<unsigned long long>(io.eagain_stalls),
      static_cast<unsigned long long>(io.reconnects),
      static_cast<unsigned long long>(io.overflow_drops),
      static_cast<unsigned long long>(io.corrupt_resets),
      committed ? static_cast<double>(io.Syscalls()) /
                      static_cast<double>(committed)
                : 0.0);
  for (const SocketNodeReport& n : run.nodes) {
    std::printf("  node %u: committed=%llu offered=%llu term_rounds=%llu "
                "wal_flushes=%llu wal_records=%llu reconnects=%llu\n",
                n.id, static_cast<unsigned long long>(n.committed),
                static_cast<unsigned long long>(n.offered),
                static_cast<unsigned long long>(n.termination_rounds),
                static_cast<unsigned long long>(n.wal_group_flushes),
                static_cast<unsigned long long>(n.wal_records),
                static_cast<unsigned long long>(n.io.reconnects));
  }

  int rc = 0;
  if (committed == 0) {
    std::fprintf(stderr, "FAIL: nothing committed\n");
    rc = 1;
  }
  if (assert_conservation && !run.ConservationHolds()) {
    std::fprintf(
        stderr, "FAIL: conservation violated: offered=%llu accounted=%llu\n",
        static_cast<unsigned long long>(run.Offered()),
        static_cast<unsigned long long>(run.Committed() + run.Rejected() +
                                        run.TerminalAborted()));
    rc = 1;
  }
  if (assert_coalesced &&
      (io.frames_out == 0 || io.messages_out <= io.frames_out)) {
    std::fprintf(stderr,
                 "FAIL: transport did not coalesce (frames=%llu msgs=%llu)\n",
                 static_cast<unsigned long long>(io.frames_out),
                 static_cast<unsigned long long>(io.messages_out));
    rc = 1;
  }
  return rc;
}
