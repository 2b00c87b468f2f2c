#ifndef ECDB_CLUSTER_SOCKET_CLUSTER_H_
#define ECDB_CLUSTER_SOCKET_CLUSTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/socket_node.h"
#include "common/histogram.h"
#include "common/types.h"

namespace ecdb {

/// Configuration of a multi-process socket cluster run. The supervisor
/// serializes this once and fans it out to every node process, so all
/// processes agree on the cluster shape, protocol, seed and workload.
struct SocketClusterConfig {
  uint32_t num_nodes = 4;
  CommitProtocol protocol = CommitProtocol::kEasyCommit;
  uint32_t clients_per_node = 16;

  /// Frame cap, exactly the threaded runtime's coalesce_transport: on, one
  /// frame per peer per event-loop iteration; off, one frame per message,
  /// with writev gathering off too (the bench's batching ablation). The
  /// WAL group flush precedes every send either way.
  bool coalesce = true;

  /// Real-wire runs keep the failure-free timeouts generous: protocol
  /// timeouts on a loopback wire are scheduling noise, not failures.
  Micros timeout_us = 1'000'000;
  Micros termination_window_us = 200'000;

  uint64_t seed = 42;

  /// Directory for the per-node FileWals (and a scratch the processes
  /// share); empty keeps every node's log in memory (no crash testing).
  std::string wal_dir;

  // Open-loop load (off: closed loop with clients_per_node clients).
  bool open_loop = false;
  double arrivals_per_sec_per_node = 1000.0;
  uint32_t max_in_flight_per_node = 256;
  uint32_t max_attempts = 8;

  // YCSB shape.
  uint32_t rows_per_partition = 4096;
  uint32_t partitions_per_txn = 2;
  double theta = 0.6;

  // Per-process telemetry (JSONL + Prometheus files under telemetry_dir).
  bool telemetry = false;
  std::string telemetry_dir;
};

/// One node process's end-of-run report: its registry snapshot, shipped
/// as its STATS line, with the fields the supervisor aggregates picked out
/// by name.
struct SocketNodeReport {
  NodeId id = 0;
  uint64_t committed = 0;
  uint64_t attempts_aborted = 0;
  uint64_t offered = 0;
  uint64_t rejected = 0;
  uint64_t terminal_aborted = 0;
  uint64_t duplicate_decisions_suppressed = 0;
  uint64_t termination_rounds = 0;
  uint64_t wal_group_flushes = 0;
  uint64_t wal_records = 0;
  SocketIoStats io;
  /// Every counter and gauge by name, plus each non-empty histogram's
  /// `name.sum`/`.min`/`.max` and `name@bucket` counts.
  std::map<std::string, uint64_t> metrics;
};

/// Aggregated result of a socket cluster run. Latency percentiles come
/// from per-node histogram buckets merged in the supervisor — percentiles
/// cannot be averaged across processes, but bucket counts merge exactly.
struct SocketRunStats {
  std::vector<SocketNodeReport> nodes;  // live processes at Stop() time
  Histogram latency;

  uint64_t Committed() const { return Sum(&SocketNodeReport::committed); }
  uint64_t Offered() const { return Sum(&SocketNodeReport::offered); }
  uint64_t Rejected() const { return Sum(&SocketNodeReport::rejected); }
  uint64_t TerminalAborted() const {
    return Sum(&SocketNodeReport::terminal_aborted);
  }
  uint64_t DuplicateDecisionsSuppressed() const {
    return Sum(&SocketNodeReport::duplicate_decisions_suppressed);
  }
  SocketIoStats Io() const;  // summed over nodes
  uint64_t Sum(uint64_t SocketNodeReport::*field) const;  // over nodes

  /// Conservation law over the aggregated open-loop ledger (only
  /// meaningful when every process survived to report).
  bool ConservationHolds() const {
    return Offered() == Committed() + Rejected() + TerminalAborted();
  }
};

/// Supervisor of the multi-process runtime: forks one process per node
/// (re-exec of the current binary with a `--ecdb-socket-node=` marker),
/// distributes the data-port map over a loopback control connection,
/// starts the run, and at the end collects each process's registry
/// snapshot. Also the crash lever: Kill() SIGKILLs a node process
/// mid-run (peers see a TCP reset) and Restart() replaces it with a fresh
/// process over the same WAL, announcing the new port to everyone.
class SocketCluster {
 public:
  explicit SocketCluster(SocketClusterConfig config);
  ~SocketCluster();

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  /// Spawns and starts every node process. False if any process failed to
  /// come up (the run is unusable; Stop() still reaps).
  bool Start();

  void RunFor(double seconds);

  /// Live committed-transaction total, polled from every live process
  /// (the bench's measurement-window probe).
  uint64_t TotalCommitted();

  /// SIGKILLs node `id`'s process (no warning, no flush — the real crash).
  bool Kill(NodeId id);

  /// Replaces a killed node with a fresh process over the same WAL; the
  /// new data port is broadcast to every live peer.
  bool Restart(NodeId id);

  /// Stops new arrivals everywhere, then waits for in-flight to drain.
  void Quiesce(double drain_seconds = 1.0);

  /// Halts, interrogates and reaps every live process; returns the
  /// aggregated run stats. Idempotent (second call returns empty).
  SocketRunStats Stop();

  uint32_t num_nodes() const { return config_.num_nodes; }

 private:
  struct Child {
    pid_t pid = -1;
    int ctl = -1;        // control connection fd (-1 when dead)
    uint16_t port = 0;   // data port from its HELLO
    bool live = false;
    std::string rdbuf;   // control-line reassembly
  };

  bool Spawn(NodeId id, bool restarted);
  bool AcceptHello(NodeId* out_id);
  bool SendLine(NodeId id, const std::string& line);
  bool ReadLine(NodeId id, std::string* line);
  void BroadcastPeers();
  void ReapChild(NodeId id);

  SocketClusterConfig config_;
  int ctl_listen_ = -1;
  uint16_t ctl_port_ = 0;
  std::vector<Child> children_;
  bool started_ = false;
  bool stopped_ = false;
};

/// True when `config`'s paths can reach the node processes. The fan-out
/// config is one line of space-separated key=value pairs, so `wal_dir` and
/// `telemetry_dir` must hold no whitespace; SocketCluster::Start refuses a
/// config that fails this.
bool PathsFitChildConfig(const SocketClusterConfig& config);

/// Child-process entry hook. Every binary that supervises socket clusters
/// (tools/socket_cluster, ecbench, the socket tests) calls this first
/// in main(): when the process was exec'd with the `--ecdb-socket-node=`
/// marker it runs the node-process loop to completion and returns true
/// (the caller just returns 0); otherwise returns false and main proceeds
/// as the supervisor.
bool MaybeRunSocketNodeChild(int argc, char** argv);

}  // namespace ecdb

#endif  // ECDB_CLUSTER_SOCKET_CLUSTER_H_
