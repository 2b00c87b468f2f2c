#ifndef ECBENCH_HOSTS_H_
#define ECBENCH_HOSTS_H_

// One timed run on each of the three hosts, shared by the end-to-end
// workloads (hosts.cc) and the per-layer pass (ladder.cc). Every run goes
// through the public cluster API only.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/socket_cluster.h"
#include "cluster/thread_node.h"
#include "obs/critical_path.h"
#include "workload/ycsb.h"

namespace ecbench {

/// sim-sweep shape: n=16, coalesced, 32 closed-loop clients per node.
ecdb::ClusterConfig SimConfig(ecdb::CommitProtocol protocol, uint64_t seed);
ecdb::YcsbConfig SimYcsb();

/// thr-* shape: EC n=8 on min(nproc, 8) workers, coalesced.
ecdb::ThreadClusterConfig ThreadConfig(uint64_t seed, bool open_loop);
ecdb::YcsbConfig ThreadYcsb();

/// sock-open shape: EC n=4 processes, coalesced, FileWal under `wal_dir`.
ecdb::SocketClusterConfig SocketConfig(uint64_t seed, bool open_loop,
                                       const std::string& wal_dir);

/// Simulated time of one sim-sweep leg (seconds of virtual time).
inline constexpr double kSimWarmSimSec = 0.02;
inline constexpr double kSimMeasureSimSec = 0.1;

struct SimLeg {
  double setup_s = 0;  // construction -> Start() returned
  double wall_s = 0;   // wall time of the measured RunFor
  double cpu_s = 0;
  uint64_t commits = 0;
  uint64_t messages = 0;
  uint64_t events = 0;
  uint64_t wal_records = 0;
  uint64_t wal_flushes = 0;
  uint64_t frames = 0;
  double rss_mb = 0;   // resident set at the end of the measured window
  ecdb::ClusterStats stats;
  bool safe = true;  // SafetyMonitor reported no violation
  std::optional<ecdb::CriticalPathReport> path;
};

/// Builds, warms (simulated) and measures one simulated cluster. With
/// `traced`, tracing is on for the measured window only and its JSONL
/// export is fed to AnalyzeCriticalPaths.
SimLeg RunSimLeg(ecdb::CommitProtocol protocol, uint64_t seed,
                 double warm_sim_s, double measure_sim_s, bool traced);

struct ThreadRun {
  double setup_s = 0;
  double window_s = 0;
  uint64_t window_commits = 0;
  double cpu_s = 0;            // process CPU over the window
  double scheduled = 0;        // open loop: arrivals due from Start to Quiesce
  double rss_mb = 0;           // resident set at the end of the window
  ecdb::ClusterStats stats;    // whole cluster life (no windowed stats)
  std::vector<ecdb::WorkerStats> workers;
  uint64_t wal_records = 0;
  bool safe = true;
  std::optional<ecdb::CriticalPathReport> path;

  double CommittedPerSec() const { return window_commits / window_s; }
  double CpuUsPerTxn() const { return cpu_s * 1e6 / window_commits; }
};

ThreadRun RunThreadCluster(const ecdb::ThreadClusterConfig& cfg,
                           double settle_s, double window_s, bool traced);

struct SocketRun {
  bool started = false;
  double setup_s = 0;
  double window_s = 0;
  uint64_t window_commits = 0;
  double live_s = 0;       // Start() returned -> Quiesce
  double cpu_s = 0;        // supervisor + reaped node processes, whole life
  double scheduled = 0;
  double rss_mb = 0;       // supervisor now + largest node process
  ecdb::SocketRunStats stats;

  double CommittedPerSec() const { return window_commits / window_s; }
  double CpuUsPerTxn() const { return cpu_s * 1e6 / stats.Committed(); }
};

/// Runs one socket cluster with a fresh WAL directory under `cfg.wal_dir`,
/// removed again before returning.
SocketRun RunSocketCluster(const ecdb::SocketClusterConfig& cfg,
                           double settle_s, double window_s);

/// Correctness checks shared by the end-to-end and per-layer passes. Each
/// emits `check` lines and a `ledger` where an open-loop ledger exists.
void CheckSim(const std::string& label, const SimLeg& leg);
void CheckThread(const std::string& label, const ThreadRun& run,
                 bool open_loop);
void CheckSocket(const std::string& label, const SocketRun& run,
                 uint32_t num_nodes);

/// Runs a throw-away cluster of shape `cfg` until its committed/s stops
/// rising (the machine's idle->busy ramp), then tears it down.
void WarmThread(const ecdb::ThreadClusterConfig& cfg);

}  // namespace ecbench

#endif  // ECBENCH_HOSTS_H_
