// End-to-end workloads: sim-sweep, thr-closed, thr-open and sock-open.
// Each one first runs its own load until the machine's committed/s stops
// rising, then measures several independent clusters and reports medians,
// so one stall or one cold cluster cannot set a figure.

#include "hosts.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "cluster/sim_cluster.h"
#include "common.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"

namespace ecbench {

using namespace ecdb;

namespace {

/// Clusters measured per wall-clock workload; the run's seconds are split
/// evenly over them.
constexpr int kSubRuns = 10;
/// In-cluster settle before each measured window.
constexpr double kSettleSec = 0.2;
/// Open-loop drain before a cluster stops, so its ledger closes exactly.
constexpr double kDrainSec = 0.3;
/// Upper bound on any warm-up.
constexpr double kMaxWarmSec = 8.0;

double Seconds(double since) { return WallSec() - since; }

/// Hands the warm-up cluster's freed memory back to the kernel, so the
/// timed clusters' resident-set readings are theirs. Timed clusters are
/// not trimmed between each other: each reuses the previous one's freed
/// heap, which keeps page-fault weather out of setup_s.
void ReleaseFreedMemory() { malloc_trim(0); }

/// Exports the recorders through the JSONL exporter, parses the export
/// back and runs the critical-path analyzer over it.
CriticalPathReport Analyze(const std::vector<const TraceRecorder*>& recorders,
                           const std::string& runtime, uint32_t num_nodes) {
  TraceMeta meta;
  meta.runtime = runtime;
  meta.protocol = ToString(CommitProtocol::kEasyCommit);
  meta.num_nodes = num_nodes;
  for (const TraceRecorder* r : recorders) meta.dropped.push_back(r->dropped());
  std::stringstream jsonl;
  WriteJsonl(meta, CollectEvents(recorders), jsonl);
  ParsedTrace parsed;
  std::string error;
  if (!ReadJsonlTrace(jsonl, &parsed, &error)) {
    EmitCheck("trace.parse", false, error);
    return {};
  }
  return AnalyzeCriticalPaths(parsed);
}

/// Per-cluster figures of a wall-clock workload, reduced to medians.
struct Samples {
  std::vector<double> setup, rate, cpu, p50, p99, p999, rss;
  uint64_t latency_samples = 0;

  void AddLatency(const Histogram& h) {
    p50.push_back(InterpolatedPercentile(h, 0.5));
    p99.push_back(InterpolatedPercentile(h, 0.99));
    p999.push_back(InterpolatedPercentile(h, 0.999));
    latency_samples += h.count();
  }

  void Emit() const {
    EmitMetric("setup_s", Median(setup), "s", setup.size());
    EmitMetric("committed_per_s", Median(rate), "txn/s", rate.size());
    EmitMetric("p50_us", Median(p50), "us", latency_samples);
    EmitMetric("p99_us", Median(p99), "us", latency_samples);
    EmitMetric("p999_us", Median(p999), "us", latency_samples);
    EmitMetric("cpu_us_per_txn", Median(cpu), "us", cpu.size());
    EmitMetric("peak_rss_mb", Median(rss), "MB", rss.size());
  }
};

void NoteFailFrac(uint64_t attempted, uint64_t failed) {
  Note("fail_frac = %.6f (%llu of %llu attempted)",
       attempted ? static_cast<double>(failed) / attempted : 0.0,
       static_cast<unsigned long long>(failed),
       static_cast<unsigned long long>(attempted));
}

}  // namespace

// --------------------------------------------------------------------------
// Shapes
// --------------------------------------------------------------------------

ClusterConfig SimConfig(CommitProtocol protocol, uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.clients_per_node = 32;
  cfg.protocol = protocol;
  cfg.coalesce_transport = true;
  cfg.seed = seed;
  return cfg;
}

YcsbConfig SimYcsb() {
  YcsbConfig y;
  y.num_partitions = 16;
  y.rows_per_partition = 65536;
  y.partitions_per_txn = 2;
  y.write_fraction = 0.5;
  y.theta = 0.6;
  return y;
}

ThreadClusterConfig ThreadConfig(uint64_t seed, bool open_loop) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.clients_per_node = 16;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.worker_threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, cfg.num_nodes);
  cfg.coalesce_transport = true;
  cfg.seed = seed;
  // Failure-free runs: timeouts far above scheduling noise, so a firing
  // one means a real problem (caught by the termination_rounds check).
  cfg.commit.timeout_us = 1'000'000;
  cfg.commit.termination_window_us = 200'000;
  if (open_loop) {
    cfg.open_loop.enabled = true;
    cfg.open_loop.arrivals_per_sec_per_node = 2500;
    cfg.open_loop.max_in_flight_per_node = 64;
    cfg.open_loop.max_attempts = 32;
  }
  return cfg;
}

YcsbConfig ThreadYcsb() {
  YcsbConfig y;
  y.num_partitions = 8;
  y.rows_per_partition = 16384;
  y.partitions_per_txn = 2;
  y.write_fraction = 0.5;
  y.theta = 0.6;
  return y;
}

SocketClusterConfig SocketConfig(uint64_t seed, bool open_loop,
                                 const std::string& wal_dir) {
  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.clients_per_node = 16;
  cfg.coalesce = true;
  cfg.seed = seed;
  cfg.wal_dir = wal_dir;
  cfg.open_loop = open_loop;
  cfg.arrivals_per_sec_per_node = 3000;
  cfg.max_in_flight_per_node = 64;
  cfg.max_attempts = 32;
  cfg.rows_per_partition = 16384;
  cfg.partitions_per_txn = 2;
  cfg.theta = 0.6;
  return cfg;
}

// --------------------------------------------------------------------------
// One run per host
// --------------------------------------------------------------------------

SimLeg RunSimLeg(CommitProtocol protocol, uint64_t seed, double warm_sim_s,
                 double measure_sim_s, bool traced) {
  SimLeg leg;
  {
    const double t0 = WallSec();
    SimCluster cluster(SimConfig(protocol, seed),
                       std::make_unique<YcsbWorkload>(SimYcsb()));
    cluster.Start();
    leg.setup_s = Seconds(t0);
    cluster.RunFor(warm_sim_s);
    cluster.network().ResetStats();
    cluster.BeginMeasurement();
    if (traced) cluster.EnableTracing();
    uint64_t wal0 = 0, flush0 = 0;
    for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
      wal0 += cluster.node(id).wal().Size();
      flush0 += cluster.node(id).wal().group_flushes();
    }
    const double cpu0 = CpuSec(false);
    const double w0 = WallSec();
    leg.events = cluster.scheduler().RunUntil(
        cluster.scheduler().Now() + static_cast<Micros>(measure_sim_s * 1e6));
    leg.wall_s = Seconds(w0);
    leg.cpu_s = CpuSec(false) - cpu0;
    leg.rss_mb = RssMb();
    leg.stats = cluster.CollectStats(measure_sim_s);
    leg.commits = leg.stats.total.txns_committed;
    leg.messages = cluster.network().stats().messages_sent;
    leg.frames = cluster.network().stats().frames_sent;
    for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
      leg.wal_records += cluster.node(id).wal().Size();
      leg.wal_flushes += cluster.node(id).wal().group_flushes();
    }
    leg.wal_records -= wal0;
    leg.wal_flushes -= flush0;
    leg.safe = cluster.monitor().Violations().empty();
    if (traced) {
      leg.path = Analyze(cluster.recorders(), "sim",
                         static_cast<uint32_t>(cluster.num_nodes()));
    }
  }
  return leg;
}

ThreadRun RunThreadCluster(const ThreadClusterConfig& cfg, double settle_s,
                           double window_s, bool traced) {
  ThreadRun run;
  {
    const double t0 = WallSec();
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ThreadYcsb()));
    // Large enough rings that a short traced window rarely wraps.
    if (traced) cluster.EnableTracing(1 << 18);
    cluster.Start();
    const double started = WallSec();
    run.setup_s = started - t0;
    cluster.RunFor(settle_s);
    const uint64_t before = cluster.TotalCommitted();
    const double cpu0 = CpuSec(false);
    const double w0 = WallSec();
    cluster.RunFor(window_s);
    run.window_commits = cluster.TotalCommitted() - before;
    run.window_s = Seconds(w0);
    run.cpu_s = CpuSec(false) - cpu0;
    run.rss_mb = RssMb();
    const double live_s = Seconds(started);
    if (cfg.open_loop.enabled) {
      run.scheduled =
          cfg.open_loop.arrivals_per_sec_per_node * cfg.num_nodes * live_s;
      cluster.Quiesce(kDrainSec);
    }
    cluster.Stop();
    run.stats = cluster.CollectStats(live_s);
    run.workers = cluster.CollectWorkerStats();
    for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
      run.wal_records += cluster.node(id).wal().Size();
    }
    run.safe = cluster.monitor().Violations().empty();
    if (traced) {
      run.path = Analyze(cluster.recorders(), "thread", cfg.num_nodes);
    }
  }
  return run;
}

SocketRun RunSocketCluster(const SocketClusterConfig& base, double settle_s,
                           double window_s) {
  static int cluster_seq = 0;
  SocketClusterConfig cfg = base;
  cfg.wal_dir = base.wal_dir + "/cluster" + std::to_string(cluster_seq++);
  std::filesystem::create_directories(cfg.wal_dir);

  SocketRun run;
  const double kids0 = CpuSec(true);
  const double self0 = CpuSec(false);
  const double t0 = WallSec();
  {
    SocketCluster cluster(cfg);
    run.started = cluster.Start();
    const double started = WallSec();
    run.setup_s = started - t0;
    if (run.started) {
      cluster.RunFor(settle_s);
      const uint64_t before = cluster.TotalCommitted();
      const double w0 = WallSec();
      cluster.RunFor(window_s);
      run.window_commits = cluster.TotalCommitted() - before;
      run.window_s = Seconds(w0);
      run.live_s = Seconds(started);
      if (cfg.open_loop) {
        run.scheduled =
            cfg.arrivals_per_sec_per_node * cfg.num_nodes * run.live_s;
        cluster.Quiesce(kDrainSec);
      }
    }
    run.stats = cluster.Stop();  // reaps every node process
  }
  run.cpu_s = (CpuSec(true) - kids0) + (CpuSec(false) - self0);
  // Supervisor plus the largest node process (all nodes run one shape).
  run.rss_mb = RssMb() + ChildPeakRssMb();
  std::filesystem::remove_all(cfg.wal_dir);
  return run;
}

// --------------------------------------------------------------------------
// Checks
// --------------------------------------------------------------------------

void CheckSim(const std::string& label, const SimLeg& leg) {
  EmitCheck(label + ".safety", leg.safe, "SafetyMonitor violations");
  EmitCheck(label + ".termination_rounds",
            leg.stats.total.termination_rounds == 0,
            std::to_string(leg.stats.total.termination_rounds));
  EmitCheck(label + ".progress", leg.commits > 0,
            std::to_string(leg.commits) + " commits");
}

void CheckThread(const std::string& label, const ThreadRun& run,
                 bool open_loop) {
  const NodeStats& t = run.stats.total;
  EmitCheck(label + ".safety", run.safe, "SafetyMonitor violations");
  EmitCheck(label + ".termination_rounds", t.termination_rounds == 0,
            std::to_string(t.termination_rounds));
  EmitCheck(label + ".progress", run.window_commits > 0,
            std::to_string(run.window_commits) + " commits in window");
  if (open_loop) {
    EmitLedger(label, t.open_loop_offered, t.txns_committed,
               t.open_loop_rejected, t.open_loop_aborted);
  }
}

void CheckSocket(const std::string& label, const SocketRun& run,
                 uint32_t num_nodes) {
  EmitCheck(label + ".started", run.started, "all node processes came up");
  EmitCheck(label + ".reported", run.stats.nodes.size() == num_nodes,
            std::to_string(run.stats.nodes.size()) + " node reports");
  uint64_t term = 0;
  for (const SocketNodeReport& n : run.stats.nodes) {
    term += n.termination_rounds;
  }
  EmitCheck(label + ".termination_rounds", term == 0, std::to_string(term));
  const SocketIoStats io = run.stats.Io();
  EmitCheck(label + ".overflow_drops", io.overflow_drops == 0,
            std::to_string(io.overflow_drops));
  EmitCheck(label + ".corrupt_resets", io.corrupt_resets == 0,
            std::to_string(io.corrupt_resets));
  // Every connection of the initial full mesh is counted once on each of
  // its two ends; anything above that is a re-dial.
  const uint64_t mesh = static_cast<uint64_t>(num_nodes) * (num_nodes - 1);
  EmitCheck(label + ".reconnects", io.reconnects == mesh,
            std::to_string(io.reconnects) + " vs mesh " +
                std::to_string(mesh));
  EmitCheck(label + ".progress", run.window_commits > 0,
            std::to_string(run.window_commits) + " commits in window");
  EmitLedger(label, run.stats.Offered(), run.stats.Committed(),
             run.stats.Rejected(), run.stats.TerminalAborted());
}

void WarmThread(const ThreadClusterConfig& cfg) {
  {
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ThreadYcsb()));
    cluster.Start();
    WarmUntilFlat(
        [&] {
          const uint64_t before = cluster.TotalCommitted();
          const double t0 = WallSec();
          cluster.RunFor(0.25);
          return (cluster.TotalCommitted() - before) / Seconds(t0);
        },
        kMaxWarmSec);
    cluster.Stop();
  }
  ReleaseFreedMemory();
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

namespace {

const CommitProtocol kSweep[] = {CommitProtocol::kEasyCommit,
                                 CommitProtocol::kTwoPhase,
                                 CommitProtocol::kThreePhase};

}  // namespace

void RecordSimGolden(uint64_t seed) {
  for (CommitProtocol p : kSweep) {
    const SimLeg leg =
        RunSimLeg(p, seed, kSimWarmSimSec, kSimMeasureSimSec, false);
    EmitGolden(seed, ToString(p) + ".commits", leg.commits);
    EmitGolden(seed, ToString(p) + ".messages", leg.messages);
  }
}

void RunSimSweep(const Options& opt) {
  // Warm-up: one EC cluster driven in ~250 ms wall windows of simulated
  // time until simulated commits per wall second stop rising.
  {
    SimCluster warm(SimConfig(CommitProtocol::kEasyCommit, opt.seed),
                    std::make_unique<YcsbWorkload>(SimYcsb()));
    warm.Start();
    auto committed = [&] {
      uint64_t sum = 0;
      for (NodeId id = 0; id < warm.num_nodes(); ++id) {
        sum += warm.node(id).stats().txns_committed;
      }
      return sum;
    };
    WarmUntilFlat(
        [&] {
          const uint64_t before = committed();
          const double t0 = WallSec();
          while (Seconds(t0) < 0.25) warm.RunFor(0.002);
          return (committed() - before) / Seconds(t0);
        },
        kMaxWarmSec);
  }
  ReleaseFreedMemory();

  // Timed rounds: EC, 2PC, 3PC on the same seed, repeated until the run's
  // seconds are used. Simulated outputs must repeat exactly every round.
  std::vector<std::vector<SimLeg>> rounds;
  Samples s;
  std::vector<double> wall_rate;  // simulated commits per wall second
  const double t0 = WallSec();
  while (rounds.size() < 3 || Seconds(t0) < opt.seconds) {
    std::vector<SimLeg> legs;
    double wall = 0, cpu_s = 0;
    uint64_t commits = 0;
    for (CommitProtocol p : kSweep) {
      SimLeg leg =
          RunSimLeg(p, opt.seed, kSimWarmSimSec, kSimMeasureSimSec, false);
      s.setup.push_back(leg.setup_s);
      s.rss.push_back(leg.rss_mb);
      wall += leg.wall_s;
      cpu_s += leg.cpu_s;
      commits += leg.commits;
      legs.push_back(std::move(leg));
    }
    wall_rate.push_back(commits / wall);
    s.cpu.push_back(cpu_s * 1e6 / commits);
    rounds.push_back(std::move(legs));
  }

  const std::vector<SimLeg>& first = rounds.front();
  bool deterministic = true;
  uint64_t attempted = 0;
  for (const auto& legs : rounds) {
    for (size_t i = 0; i < legs.size(); ++i) {
      deterministic &= legs[i].commits == first[i].commits &&
                       legs[i].messages == first[i].messages;
      attempted += legs[i].commits;
    }
  }
  Note("%-4s %10s %9s %10s %10s %10s", "leg", "commits", "msgs/txn",
       "p50_us", "p99_us", "sim_txn/s");
  for (size_t i = 0; i < first.size(); ++i) {
    const SimLeg& leg = first[i];
    CheckSim("sim." + ToString(kSweep[i]), leg);
    EmitGolden(opt.seed, ToString(kSweep[i]) + ".commits", leg.commits);
    EmitGolden(opt.seed, ToString(kSweep[i]) + ".messages", leg.messages);
    const Histogram& lat = leg.stats.total.latency;
    Note("%-4s %10llu %9.2f %10.1f %10.1f %10.0f",
         ToString(kSweep[i]).c_str(),
         static_cast<unsigned long long>(leg.commits),
         static_cast<double>(leg.messages) / leg.commits,
         InterpolatedPercentile(lat, 0.5), InterpolatedPercentile(lat, 0.99),
         leg.commits / kSimMeasureSimSec);
  }
  EmitCheck("sim.deterministic", deterministic,
            std::to_string(rounds.size()) + " rounds");

  // Latency and throughput are EC's simulated ones (virtual microseconds,
  // commits per virtual second), the figures of the protocol comparison;
  // they repeat exactly every round, so the first round is the sample. The
  // simulator's own speed is sim_txn_per_wall_s, which follows the host's
  // weather too closely to gate (see README.md).
  s.AddLatency(first.front().stats.total.latency);
  s.rate.push_back(first.front().commits / kSimMeasureSimSec);
  s.Emit();
  EmitMetric("sim_txn_per_wall_s", Median(wall_rate), "txn/s",
             wall_rate.size());
  std::string list;
  for (double r : wall_rate) list += " " + std::to_string(std::lround(r));
  Note("sim_txn_per_wall_s by round:%s", list.c_str());
  NoteFailFrac(attempted, 0);
  EmitCount(attempted, 0);
}

void RunThreaded(const Options& opt, bool open_loop) {
  const ThreadClusterConfig cfg = ThreadConfig(opt.seed, open_loop);
  WarmThread(cfg);
  const std::string label = open_loop ? "thr-open" : "thr-closed";
  Samples s;
  std::vector<double> ratio;
  uint64_t attempted = 0, failed = 0;
  for (int k = 0; k < kSubRuns; ++k) {
    const ThreadRun run =
        RunThreadCluster(cfg, kSettleSec, opt.seconds / kSubRuns, false);
    CheckThread(label + "." + std::to_string(k), run, open_loop);
    const NodeStats& t = run.stats.total;
    s.setup.push_back(run.setup_s);
    s.rate.push_back(run.CommittedPerSec());
    s.cpu.push_back(run.CpuUsPerTxn());
    s.rss.push_back(run.rss_mb);
    s.AddLatency(t.latency);
    if (open_loop) {
      ratio.push_back(t.open_loop_offered / run.scheduled);
      attempted += t.open_loop_offered;
      failed += t.open_loop_rejected + t.open_loop_aborted;
    } else {
      attempted += t.txns_committed;
    }
    Note("%s run %d: setup %.3f s, %.0f committed/s, p50 %.1f us, p99 %.1f "
         "us, %.2f cpu us/txn, aborts/commit %.3f",
         label.c_str(), k, run.setup_s, s.rate.back(), s.p50.back(),
         s.p99.back(), s.cpu.back(), run.stats.AbortRate());
  }
  s.Emit();
  if (open_loop) {
    Note("offered_ratio = %.4f (offered arrivals / arrivals scheduled from "
         "Start to Quiesce, median of %zu clusters)",
         Median(ratio), ratio.size());
  }
  NoteFailFrac(attempted, failed);
  EmitCount(attempted, failed);
}

void RunSocket(const Options& opt) {
  const std::string wal_root =
      std::filesystem::absolute(opt.scratch + "/sock-wal").string();
  const SocketClusterConfig cfg = SocketConfig(opt.seed, true, wal_root);
  // Warm-up: the workload's own cluster, polled in 250 ms windows until
  // committed/s stops rising.
  {
    SocketClusterConfig warm_cfg = cfg;
    warm_cfg.wal_dir = wal_root + "/warm";
    std::filesystem::create_directories(warm_cfg.wal_dir);
    SocketCluster warm(warm_cfg);
    if (warm.Start()) {
      WarmUntilFlat(
          [&] {
            const uint64_t before = warm.TotalCommitted();
            const double t0 = WallSec();
            warm.RunFor(0.25);
            return (warm.TotalCommitted() - before) / Seconds(t0);
          },
          kMaxWarmSec);
    }
    warm.Stop();
    std::filesystem::remove_all(warm_cfg.wal_dir);
  }

  Samples s;
  std::vector<double> ratio;
  uint64_t attempted = 0, failed = 0;
  for (int k = 0; k < kSubRuns; ++k) {
    const SocketRun run =
        RunSocketCluster(cfg, kSettleSec, opt.seconds / kSubRuns);
    CheckSocket("sock-open." + std::to_string(k), run, cfg.num_nodes);
    if (!run.started || run.stats.Committed() == 0) continue;
    const SocketIoStats io = run.stats.Io();
    s.setup.push_back(run.setup_s);
    s.rate.push_back(run.CommittedPerSec());
    s.cpu.push_back(run.CpuUsPerTxn());
    s.rss.push_back(run.rss_mb);
    s.AddLatency(run.stats.latency);
    ratio.push_back(run.stats.Offered() / run.scheduled);
    attempted += run.stats.Offered();
    failed += run.stats.Rejected() + run.stats.TerminalAborted();
    Note("sock-open run %d: setup %.3f s, %.0f committed/s, p50 %.1f us, "
         "p99 %.1f us, %.2f cpu us/txn, msgs/frame %.2f, syscalls/txn %.2f",
         k, run.setup_s, s.rate.back(), s.p50.back(), s.p99.back(),
         s.cpu.back(), static_cast<double>(io.messages_out) / io.frames_out,
         static_cast<double>(io.Syscalls()) / run.stats.Committed());
  }
  std::filesystem::remove_all(wal_root);
  s.Emit();
  Note("offered_ratio = %.4f (median of %zu clusters)", Median(ratio),
       ratio.size());
  NoteFailFrac(attempted, failed);
  EmitCount(attempted, failed);
}

}  // namespace ecbench
