// Integration tests for the threaded (real OS threads) runtime: the same
// protocol engines under wall-clock time and real concurrency.

#include "cluster/thread_node.h"

#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/consistency_audit.h"
#include "obs/critical_path.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

ThreadClusterConfig SmallConfig(CommitProtocol protocol) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 2;
  cfg.protocol = protocol;
  cfg.seed = 99;
  // Wall-clock timeouts must stay well above worst-case scheduling delays
  // on a loaded CI machine: a spuriously expired timeout acts like the
  // Section 4.1 message-delay scenario and can (legitimately!) break
  // safety. Generous values keep the tests deterministic.
  cfg.commit.timeout_us = 250'000;
  cfg.commit.termination_window_us = 80'000;
  return cfg;
}

// A fresh directory under the test temp dir, so no log from an earlier
// run is replayed.
std::string MakeWalDir() {
  std::string tmpl = ::testing::TempDir() + "/ecdb_thread_wal_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

YcsbConfig SmallYcsb() {
  YcsbConfig cfg;
  cfg.num_partitions = 3;
  cfg.rows_per_partition = 2048;
  cfg.theta = 0.3;
  cfg.partitions_per_txn = 2;
  return cfg;
}

class ThreadClusterProtocolTest
    : public ::testing::TestWithParam<CommitProtocol> {};

TEST_P(ThreadClusterProtocolTest, CommitsUnderRealThreads) {
  ThreadCluster cluster(SmallConfig(GetParam()),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.8);
  cluster.Stop();
  EXPECT_GT(cluster.TotalCommitted(), 20u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  EXPECT_EQ(cluster.CollectStats(0.8).total.txns_blocked, 0u);
}

TEST_P(ThreadClusterProtocolTest, LatenciesAreRecorded) {
  ThreadCluster cluster(SmallConfig(GetParam()),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.5);
  cluster.Stop();
  const ClusterStats stats = cluster.CollectStats(0.5);
  EXPECT_GT(stats.total.latency.count(), 0u);
  // One latency sample per commit, both recorded at the commit itself.
  EXPECT_EQ(stats.total.latency.count(), stats.total.txns_committed);
  EXPECT_EQ(stats.total.txns_committed, cluster.TotalCommitted());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ThreadClusterProtocolTest,
                         ::testing::Values(CommitProtocol::kTwoPhase,
                                           CommitProtocol::kThreePhase,
                                           CommitProtocol::kEasyCommit),
                         [](const auto& info) { return ToString(info.param); });

TEST(ThreadClusterTest, WalRecordsProtocolMilestones) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.5);
  cluster.Stop();
  bool saw_begin = false, saw_received = false, saw_terminal = false;
  for (NodeId id = 0; id < 3; ++id) {
    for (const LogRecord& r : cluster.node(id).wal().Scan()) {
      saw_begin |= r.type == LogRecordType::kBeginCommit;
      saw_received |= r.type == LogRecordType::kCommitReceived;
      saw_terminal |= r.type == LogRecordType::kTransactionCommit;
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_received);
  EXPECT_TRUE(saw_terminal);
}

TEST(ThreadClusterTest, FileWalPersistsAcrossRun) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.wal_dir = ::testing::TempDir();
  {
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
    cluster.Start();
    cluster.RunFor(0.4);
    cluster.Stop();
    EXPECT_GT(cluster.node(0).wal().Size(), 0u);
  }
  // Reopen the WAL file directly and confirm the records survived.
  auto wal = FileWal::Open(cfg.wal_dir + "/node0.wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_GT(wal.value()->Size(), 0u);
  std::remove((cfg.wal_dir + "/node0.wal").c_str());
  std::remove((cfg.wal_dir + "/node1.wal").c_str());
  std::remove((cfg.wal_dir + "/node2.wal").c_str());
}

// Every frame leaves after its WAL group flush at any frame cap: mid-run,
// the logs on disk already hold at least one record per transaction the
// cluster has committed.
TEST(ThreadClusterTest, UncoalescedRunKeepsFileWalDurable) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.coalesce_transport = false;
  cfg.wal_dir = MakeWalDir();
  ASSERT_FALSE(cfg.wal_dir.empty());
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.5);
  const uint64_t committed = cluster.TotalCommitted();
  uint64_t on_disk = 0;
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    auto wal =
        FileWal::Open(cfg.wal_dir + "/node" + std::to_string(id) + ".wal");
    ASSERT_TRUE(wal.ok());
    on_disk += wal.value()->Size();
  }
  cluster.Stop();
  EXPECT_GT(committed, 0u);
  EXPECT_GE(on_disk, committed);
  std::filesystem::remove_all(cfg.wal_dir);
}

// A WAL group that cannot be made durable must not be acted on: the node
// whose log sits on a full device fail-stops at its first failed flush
// instead of shipping the frames that announce the group, so it never
// commits, and the survivors' decisions stay consistent.
TEST(ThreadClusterTest, FailedWalFlushFailStopsTheNode) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.wal_dir = MakeWalDir();
  ASSERT_FALSE(cfg.wal_dir.empty());
  ASSERT_EQ(symlink("/dev/full", (cfg.wal_dir + "/node1.wal").c_str()), 0);
  YcsbConfig ycsb = SmallYcsb();
  ycsb.write_fraction = 1.0;  // every transaction runs the commit protocol
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(0.5);
  cluster.Stop();
  EXPECT_TRUE(cluster.network().IsCrashed(1));
  EXPECT_EQ(cluster.node(1).committed(), 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  std::filesystem::remove_all(cfg.wal_dir);
}

TEST(ThreadClusterTest, SurvivesNodeCrashWithoutBlocking) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  cluster.node(2).Crash();
  const uint64_t at_crash = cluster.TotalCommitted();
  // Survivors keep committing (their single-partition and 0-1 spanning
  // transactions at least). The window is wall-clock, so under CPU
  // oversubscription (ctest -j) a single fixed interval can elapse before
  // the worker threads are ever scheduled — poll with a generous deadline.
  uint64_t after = at_crash;
  // Budget ~36 s: every failed attempt burns a 250 ms commit timeout plus
  // backoff before the client redraws, and co-scheduled wall-clock tests
  // can time-slice this cluster down to a fraction of the core.
  for (int i = 0; i < 120 && after <= at_crash; ++i) {
    cluster.RunFor(0.3);
    after = cluster.TotalCommitted();
  }
  cluster.Stop();
  EXPECT_GT(after, at_crash);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  EXPECT_EQ(cluster.CollectStats(0).total.txns_blocked, 0u);
}

// A crash lands between loop iterations at either frame cap, so a node
// never applies a decision whose transmits its crash then drops.
TEST(ThreadClusterTest, CrashedNodeRecoversConsistently) {
  for (const bool coalesce : {false, true}) {
    ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
    cfg.coalesce_transport = coalesce;
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
    cluster.Start();
    cluster.RunFor(0.3);
    cluster.node(1).Crash();
    cluster.RunFor(0.3);
    cluster.node(1).Recover();
    cluster.RunFor(1.0);
    cluster.Stop();
    EXPECT_TRUE(cluster.monitor().Violations().empty())
        << "coalesce=" << coalesce;
  }
}

// The A3 ablation (locks released when the decision is applied, not at
// cleanup) runs on the threaded host too, and the run stays consistent.
TEST(ThreadClusterTest, ReleaseLocksAtDecisionPassesAudit) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.release_locks_at_decision = true;
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    cluster.node(id).TrackAckedCommits(true);
  }
  cluster.Start();
  uint64_t committed = 0;
  for (int i = 0; i < 40 && committed < 50; ++i) {
    cluster.RunFor(0.2);
    committed = cluster.TotalCommitted();
  }
  cluster.Quiesce();
  cluster.Stop();
  EXPECT_GE(committed, 50u);
  const AuditResult audit = AuditThreadCluster(&cluster);
  for (const AuditViolation& v : audit.violations) {
    ADD_FAILURE() << v.check << " txn=" << v.txn << ": " << v.detail;
  }
  EXPECT_GT(audit.acked_commits, 0u);
}

// Once the closed loop is quiesced and in-flight work drains, every
// transaction has released its locks: no lock entry and no client slot may
// remain on any node, even under a skewed, conflict-heavy load.
TEST(ThreadClusterTest, NoLockLeaksAfterQuiescentDrain) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.num_nodes = 4;
  YcsbConfig ycsb = SmallYcsb();
  ycsb.num_partitions = 4;
  ycsb.theta = 0.8;
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  uint64_t committed = 0;
  for (int i = 0; i < 40 && committed == 0; ++i) {
    cluster.RunFor(0.1);
    committed = cluster.TotalCommitted();
  }
  ASSERT_GT(committed, 0u);
  cluster.Quiesce(0.5);
  cluster.Stop();
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    EXPECT_EQ(cluster.node(id).locks().ActiveEntries(), 0u) << "node " << id;
    EXPECT_EQ(cluster.node(id).InFlightClientCount(), 0u) << "node " << id;
  }
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// Quiesce is sticky across crash/recover: the recovered node's clients
// stay idle instead of issuing new transactions.
TEST(ThreadClusterTest, QuiescedNodeStartsNothingAfterRecovery) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  uint64_t committed = 0;
  for (int i = 0; i < 40 && committed == 0; ++i) {
    cluster.RunFor(0.1);
    committed = cluster.TotalCommitted();
  }
  ASSERT_GT(committed, 0u);
  cluster.Quiesce();
  const uint64_t drained = cluster.TotalCommitted();
  cluster.node(1).Crash();
  cluster.RunFor(0.1);
  ASSERT_TRUE(cluster.node(1).Recover());
  cluster.RunFor(0.3);
  cluster.Stop();
  EXPECT_EQ(cluster.TotalCommitted(), drained);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// Recover() on a node that is up is rejected — false, and the node keeps
// running untouched — exactly as on the simulator
// (SimNodeTest.RecoverOnLiveNodeIsRejected).
TEST(ThreadClusterTest, RecoverOnLiveNodeIsRejected) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kEasyCommit),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.1);
  EXPECT_FALSE(cluster.node(1).Recover());
  cluster.node(1).Crash();
  cluster.RunFor(0.1);
  EXPECT_TRUE(cluster.node(1).Recover());
  EXPECT_FALSE(cluster.node(1).Recover());
  const uint64_t before = cluster.node(1).committed();
  uint64_t after = before;
  for (int i = 0; i < 40 && after == before; ++i) {
    cluster.RunFor(0.1);
    after = cluster.node(1).committed();
  }
  cluster.Stop();
  EXPECT_GT(after, before);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// The execution watchdog (5 protocol timeouts) is cancelled once every
// fragment answers, so a fault-free run far longer than the watchdog fires
// only the timers its aborts and protocol timeouts account for, not one
// per multi-partition transaction.
TEST(ThreadClusterTest, ExecWatchdogIsCancelledWhenFragmentsAnswer) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.commit.timeout_us = 20'000;  // watchdog: 100 ms
  cfg.commit.termination_window_us = 10'000;
  YcsbConfig ycsb = SmallYcsb();
  ycsb.rows_per_partition = 65536;
  ycsb.theta = 0.0;
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(1.0);
  cluster.Stop();
  const ClusterStats stats = cluster.CollectStats(1.0);
  uint64_t fired = 0;
  for (const WorkerStats& w : cluster.CollectWorkerStats()) {
    fired += w.timers_fired;
  }
  ASSERT_GT(stats.total.commit_protocol_runs, 200u);
  EXPECT_LE(fired, stats.total.txns_aborted + stats.total.termination_rounds +
                       stats.total.commit_protocol_runs / 10);
}

TEST(ThreadClusterTest, OpenLoopGeneratesLoadAndConserves) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = 500.0;
  cfg.open_loop.max_in_flight_per_node = 8;
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  // Poll rather than a fixed window: on a loaded CI machine the node
  // threads can be starved for long stretches.
  uint64_t committed = 0;
  for (int i = 0; i < 40 && committed == 0; ++i) {
    cluster.RunFor(0.2);
    committed = cluster.TotalCommitted();
  }
  cluster.Quiesce();
  cluster.Stop();
  EXPECT_GT(committed, 0u);

  const NodeStats s = cluster.CollectStats(0).total;
  const uint64_t offered = s.open_loop_offered;
  const uint64_t accounted =
      cluster.TotalCommitted() + s.open_loop_rejected + s.open_loop_aborted;
  EXPECT_GT(offered, 0u);
  // Conservation, with slack for transactions still in flight when the
  // drain window closed: nothing is ever counted twice, so accounted can
  // trail offered by at most the cluster-wide admission cap.
  EXPECT_LE(accounted, offered);
  EXPECT_GE(accounted + static_cast<uint64_t>(cfg.num_nodes) *
                            cfg.open_loop.max_in_flight_per_node,
            offered);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// YCSB whose transaction generation takes 3 ms of wall clock: the worker
// reaches every open-loop arrival at least that late.
class SlowNextTxnYcsb : public YcsbWorkload {
 public:
  using YcsbWorkload::YcsbWorkload;
  TxnRequest NextTxn(PartitionId home, Rng& rng) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return YcsbWorkload::NextTxn(home, rng);
  }
};

// An open-loop transaction's latency counts from its arrival's deadline,
// so time the host spent getting to it (here: generating it) shows.
TEST(ThreadClusterTest, OpenLoopLatencyCountsFromArrivalDeadline) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = 50.0;
  cfg.open_loop.max_in_flight_per_node = 4;
  ThreadCluster cluster(cfg, std::make_unique<SlowNextTxnYcsb>(SmallYcsb()));
  cluster.Start();
  uint64_t committed = 0;
  for (int i = 0; i < 40 && committed < 5; ++i) {
    cluster.RunFor(0.2);
    committed = cluster.TotalCommitted();
  }
  cluster.Stop();
  const ClusterStats stats = cluster.CollectStats(0);
  ASSERT_GT(stats.total.latency.count(), 0u);
  EXPECT_GE(stats.total.latency.min(), 3000u);
}

// --- Shard-per-core worker pool (worker_threads > 0) ---

ThreadClusterConfig WorkerPoolConfig(uint32_t nodes, uint32_t workers) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.clients_per_node = 2;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.worker_threads = workers;
  cfg.seed = 7;
  cfg.commit.timeout_us = 250'000;
  cfg.commit.termination_window_us = 80'000;
  return cfg;
}

YcsbConfig WorkerPoolYcsb(uint32_t nodes) {
  YcsbConfig cfg;
  cfg.num_partitions = nodes;
  cfg.rows_per_partition = 1024;
  cfg.theta = 0.3;
  cfg.partitions_per_txn = 2;
  return cfg;
}

// Stress for the M:N runtime under TSan: 12 nodes on 3 workers, so every
// worker demuxes a shared mailbox AND the same-worker fast path carries
// real traffic (each worker co-hosts 4 nodes). Commits prove no lost
// wakeups — a swallowed wake would stall a whole 4-node shard, not one
// node — and the stats split proves both delivery paths were exercised.
TEST(ThreadClusterWorkerPoolTest, SharedWorkersCommitOnBothDeliveryPaths) {
  for (const bool coalesce : {false, true}) {
    ThreadClusterConfig cfg = WorkerPoolConfig(12, 3);
    cfg.coalesce_transport = coalesce;
    ThreadCluster cluster(cfg,
                          std::make_unique<YcsbWorkload>(WorkerPoolYcsb(12)));
    cluster.Start();
    // Poll: on a loaded CI machine 3 workers for 12 nodes can be starved.
    uint64_t committed = 0;
    for (int i = 0; i < 60 && committed < 50; ++i) {
      cluster.RunFor(0.2);
      committed = cluster.TotalCommitted();
    }
    cluster.Stop();
    EXPECT_GT(committed, 20u) << "coalesce=" << coalesce;
    EXPECT_TRUE(cluster.monitor().Violations().empty());
    EXPECT_EQ(cluster.CollectStats(0).total.txns_blocked, 0u);

    const std::vector<WorkerStats> workers = cluster.CollectWorkerStats();
    ASSERT_EQ(workers.size(), 3u);
    uint32_t hosted = 0;
    for (const WorkerStats& w : workers) hosted += w.nodes_hosted;
    EXPECT_EQ(hosted, cfg.num_nodes);

    const ClusterStats stats = cluster.CollectStats(1.0);
    EXPECT_EQ(stats.worker_threads, 3u);
    // Cross-worker deliveries crossed a mailbox; co-hosted destinations
    // rode the local queue. Both must be non-zero at this shape.
    EXPECT_GT(stats.worker_mailbox_messages, 0u) << "coalesce=" << coalesce;
    EXPECT_GT(stats.worker_local_messages, 0u) << "coalesce=" << coalesce;
    // Cross-worker frames: whole buffers when coalesced, one message per
    // frame at a frame cap of one.
    EXPECT_GT(stats.net_frames_sent, 0u) << "coalesce=" << coalesce;
    if (coalesce) {
      EXPECT_GT(stats.net_messages_coalesced, 0u);
    } else {
      EXPECT_EQ(stats.net_messages_coalesced, 0u);
    }
  }
}

// Crashing one hosted node must wipe ONLY that node: its timers and its
// open-loop arrival chain go stale via the epoch bump, while the co-hosted
// node on the same worker (same shared timer heap, same mailbox) keeps
// committing. Recovery rebases the arrival chain and the node resumes.
// Worker layout at n=4, W=2: worker 0 hosts {0, 2}, worker 1 hosts {1, 3}.
TEST(ThreadClusterWorkerPoolTest, CrashIsolatesCoHostedNodes) {
  ThreadClusterConfig cfg = WorkerPoolConfig(4, 2);
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = 400.0;
  cfg.open_loop.max_in_flight_per_node = 8;
  ThreadCluster cluster(cfg,
                        std::make_unique<YcsbWorkload>(WorkerPoolYcsb(4)));
  cluster.Start();
  uint64_t warm = 0;
  for (int i = 0; i < 40 && warm == 0; ++i) {
    cluster.RunFor(0.2);
    warm = cluster.TotalCommitted();
  }
  ASSERT_GT(warm, 0u);

  cluster.node(2).Crash();
  // Let the crash request drain (and any message already mid-dispatch
  // land) before freezing the crashed node's counter.
  cluster.RunFor(0.3);
  const uint64_t crashed_frozen = cluster.node(2).committed();
  const uint64_t cohost_at_crash = cluster.node(0).committed();

  // The co-hosted node 0 shares worker 0 with the crashed node: its
  // timers, arrivals, and mailbox share must be undisturbed.
  uint64_t cohost_after = cohost_at_crash;
  for (int i = 0; i < 120 && cohost_after <= cohost_at_crash; ++i) {
    cluster.RunFor(0.3);
    cohost_after = cluster.node(0).committed();
  }
  EXPECT_GT(cohost_after, cohost_at_crash);
  // The crashed node's arrival chain died with its epoch: nothing commits.
  EXPECT_EQ(cluster.node(2).committed(), crashed_frozen);

  cluster.node(2).Recover();
  // Recovery rebases the arrival chain to "now"; new arrivals commit.
  uint64_t recovered = crashed_frozen;
  for (int i = 0; i < 120 && recovered <= crashed_frozen; ++i) {
    cluster.RunFor(0.3);
    recovered = cluster.node(2).committed();
  }
  EXPECT_GT(recovered, crashed_frozen);

  cluster.Quiesce();
  cluster.Stop();
  EXPECT_TRUE(cluster.monitor().Violations().empty());

  // Conservation across the crash/recover cycle: offered ==
  // committed + rejected + terminal aborts, with slack bounded by the
  // cluster-wide admission cap for still-in-flight work at drain close.
  const NodeStats s = cluster.CollectStats(0).total;
  const uint64_t offered = s.open_loop_offered;
  const uint64_t accounted =
      cluster.TotalCommitted() + s.open_loop_rejected + s.open_loop_aborted;
  EXPECT_LE(accounted, offered);
  EXPECT_GE(accounted + static_cast<uint64_t>(cfg.num_nodes) *
                            cfg.open_loop.max_in_flight_per_node,
            offered);
}

TEST(ThreadClusterWorkerPoolTest, SingleWorkerHostsWholeCluster) {
  // W=1 is the other degenerate case: every node on one event loop, all
  // traffic on the local queue (the bounded drain must not livelock).
  ThreadClusterConfig cfg = WorkerPoolConfig(4, 1);
  ThreadCluster cluster(cfg,
                        std::make_unique<YcsbWorkload>(WorkerPoolYcsb(4)));
  cluster.Start();
  uint64_t committed = 0;
  for (int i = 0; i < 60 && committed < 20; ++i) {
    cluster.RunFor(0.2);
    committed = cluster.TotalCommitted();
  }
  cluster.Stop();
  EXPECT_GT(committed, 10u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  const ClusterStats stats = cluster.CollectStats(1.0);
  // No other worker exists: every cross-node message took the fast path.
  EXPECT_GT(stats.worker_local_messages, 0u);
  EXPECT_EQ(stats.worker_mailbox_messages, 0u);
}

// Every worker of a cluster counts NowUs() from the one epoch that
// ThreadCluster::Start takes, so trace timestamps from different workers
// share a time base. With a per-worker epoch, a worker that started late
// stamps its receives before their sends, and the critical-path walk, which
// jumps from a receive to its send, walks the same time twice (coverage
// above 1).
TEST(ThreadClusterWorkerPoolTest, WorkersShareOneClock) {
  // One worker per node: every message crosses workers.
  ThreadClusterConfig cfg = WorkerPoolConfig(8, 8);
  ThreadCluster cluster(cfg,
                        std::make_unique<YcsbWorkload>(WorkerPoolYcsb(8)));
  cluster.EnableTracing(1 << 16);
  cluster.Start();
  // Read one after another on one thread, clocks with one epoch never go
  // backwards from node to node.
  Micros last = 0;
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    const Micros now = cluster.node(id).NowUs();
    EXPECT_GE(now, last) << "node " << id;
    last = now;
  }
  uint64_t committed = 0;
  for (int i = 0; i < 60 && committed < 200; ++i) {
    cluster.RunFor(0.05);
    committed = cluster.TotalCommitted();
  }
  cluster.Stop();
  ASSERT_GT(committed, 20u);

  ParsedTrace trace;
  trace.meta.runtime = "thread";
  trace.meta.protocol = ToString(cfg.protocol);
  trace.meta.num_nodes = cfg.num_nodes;
  for (const TraceRecorder* r : cluster.recorders()) {
    trace.meta.dropped.push_back(r->dropped());
  }
  trace.events = CollectEvents(cluster.recorders());
  // Sends keyed by (sender, per-sender seq), as the analyzer joins them.
  std::unordered_map<uint64_t, Micros> sent_at;
  for (const TraceEvent& ev : trace.events) {
    if (ev.type == TraceEventType::kMsgSend) {
      sent_at[(uint64_t{ev.node} << 48) ^ ev.arg] = ev.at;
    }
  }
  uint64_t matched = 0, early = 0;
  for (const TraceEvent& ev : trace.events) {
    if (ev.type != TraceEventType::kMsgRecv) continue;
    const auto it = sent_at.find((uint64_t{ev.peer} << 48) ^ ev.arg);
    if (it == sent_at.end()) continue;
    ++matched;
    if (ev.at < it->second) ++early;
  }
  ASSERT_GT(matched, 100u);
  EXPECT_EQ(early, 0u) << "of " << matched << " matched receives";

  const CriticalPathReport report = AnalyzeCriticalPaths(trace);
  ASSERT_GT(report.txns_complete, 0u);
  EXPECT_LE(report.Coverage(), 1.0);
}

// The stats view must agree with the sources it summarizes: ecbench's
// wal.flushes_per_txn and net.msgs_per_frame read these fields.
TEST(ThreadClusterTest, StatsMatchWalAndNetworkCounts) {
  ThreadClusterConfig cfg = SmallConfig(CommitProtocol::kEasyCommit);
  cfg.coalesce_transport = true;
  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.4);
  cluster.Stop();
  const ClusterStats stats = cluster.CollectStats(0.4);
  uint64_t group_flushes = 0;
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    group_flushes += cluster.node(id).wal().group_flushes();
  }
  EXPECT_GT(group_flushes, 0u);
  EXPECT_EQ(stats.wal_group_flushes, group_flushes);
  const NetworkStats net = cluster.network().stats();
  EXPECT_GT(net.frames_sent, 0u);
  EXPECT_EQ(stats.net_frames_sent, net.frames_sent);
  EXPECT_EQ(stats.net_messages_coalesced, net.messages_coalesced);
}

TEST(ThreadClusterTest, StopIsIdempotent) {
  ThreadCluster cluster(SmallConfig(CommitProtocol::kTwoPhase),
                        std::make_unique<YcsbWorkload>(SmallYcsb()));
  cluster.Start();
  cluster.RunFor(0.1);
  cluster.Stop();
  cluster.Stop();  // must not crash or hang
}

}  // namespace
}  // namespace ecdb
