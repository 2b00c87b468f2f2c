// Multi-process socket runtime tests: a real loopback TCP mesh of node
// processes. NOTE: this binary is its own supervisor AND its own node
// executable — the cluster re-execs argv[0] with the --ecdb-socket-node
// marker — so it links gtest without gtest_main and provides the main()
// below.

#include "cluster/socket_cluster.h"

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "gtest/gtest.h"
#include "wal/wal.h"

namespace ecdb {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/ecdb_socket_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

TEST(SocketClusterTest, LoopbackOpenLoopConservation) {
  // n=4 open loop on loopback TCP: after quiesce + drain the aggregated
  // ledger must balance exactly — every arrival that entered a process
  // left it as committed, rejected, or terminally aborted, across real
  // sockets and real process boundaries.
  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.open_loop = true;
  cfg.arrivals_per_sec_per_node = 1500;
  cfg.coalesce = true;
  cfg.seed = 11;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.5);
  EXPECT_GT(cluster.TotalCommitted(), 0u);  // live poll over control plane
  cluster.Quiesce(/*drain_seconds=*/1.0);
  SocketRunStats run = cluster.Stop();

  ASSERT_EQ(run.nodes.size(), 4u);
  EXPECT_GT(run.Committed(), 0u);
  EXPECT_TRUE(run.ConservationHolds())
      << "offered=" << run.Offered() << " committed=" << run.Committed()
      << " rejected=" << run.Rejected()
      << " taborted=" << run.TerminalAborted();
  // One latency sample per commit, both recorded at the commit itself.
  EXPECT_EQ(run.latency.count(), run.Committed());
  // Each STATS report is the node's whole registry snapshot.
  MetricsRegistry core;
  RegisterCoreMetrics(&core);
  for (const SocketNodeReport& n : run.nodes) {
    for (const std::string& name : core.counter_names()) {
      EXPECT_EQ(n.metrics.count(name), 1u) << "node " << n.id << ": " << name;
    }
    for (const SocketIoGauge& g : kSocketIoGauges) {
      EXPECT_EQ(n.metrics.count(g.name), 1u) << "node " << n.id << ": "
                                             << g.name;
    }
  }

  const SocketIoStats io = run.Io();
  // Coalescing must actually batch: frames carried more messages than
  // there were frames, and the gather path put them on the wire.
  EXPECT_GT(io.frames_out, 0u);
  EXPECT_GT(io.messages_out, io.frames_out);
  EXPECT_GT(io.writev_calls, 0u);
  // Framing stayed intact end to end across every split the kernel chose.
  EXPECT_EQ(io.corrupt_resets, 0u);
  EXPECT_EQ(io.overflow_drops, 0u);
  // Latency percentiles merged from per-process histogram buckets.
  EXPECT_GT(run.latency.Percentile(0.50), 0u);
}

TEST(SocketClusterTest, CrashDuringDecisionFloodAndRecovery) {
  // Kill a node process (SIGKILL, no flush — peers see a TCP reset) while
  // the closed-loop EC traffic keeps the decision flood dense, then
  // restart it over the same WAL. The survivors must keep committing
  // through the crash, the replacement must recover from its log and
  // commit new transactions, and EC's duplicate-decision suppression must
  // show the flood was actually redundant end to end.
  const std::string wal_dir = MakeTempDir();
  ASSERT_FALSE(wal_dir.empty());

  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.coalesce = true;
  cfg.wal_dir = wal_dir;
  cfg.seed = 23;
  // Failure-detection timeouts sized to the outage: a client stuck on the
  // dead node must abort, retry and commit a transaction that avoids it
  // within the survivor-progress window below (exec waits time out at 5x
  // the protocol timeout: 600 ms).
  cfg.timeout_us = 120'000;
  cfg.termination_window_us = 60'000;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);

  EXPECT_GT(cluster.TotalCommitted(), 0u);
  ASSERT_TRUE(cluster.Kill(2));
  // Survivors keep making progress while node 2 is a black hole (its
  // transactions time out; everything else flows around it). Both polls
  // exclude the dead process, so the delta is survivor-only progress.
  cluster.RunFor(0.3);
  const uint64_t outage_early = cluster.TotalCommitted();
  cluster.RunFor(1.0);
  const uint64_t outage_late = cluster.TotalCommitted();
  EXPECT_GT(outage_late, outage_early);

  ASSERT_TRUE(cluster.Restart(2));
  cluster.RunFor(1.2);
  cluster.Quiesce(/*drain_seconds=*/1.0);
  SocketRunStats run = cluster.Stop();

  ASSERT_EQ(run.nodes.size(), 4u);
  const SocketNodeReport* restarted = nullptr;
  for (const SocketNodeReport& n : run.nodes) {
    if (n.id == 2) restarted = &n;
  }
  ASSERT_NE(restarted, nullptr);
  // The replacement process's counters start at zero, so committed > 0
  // here means NEW transactions committed after recovery — the node
  // converged back into the mesh.
  EXPECT_GT(restarted->committed, 0u);
  // It recovered over a non-empty log: the WAL replay saw the pre-crash
  // history (group commit flushed it before the kill).
  EXPECT_GT(restarted->wal_records, restarted->committed);
  // The initiator sides re-dialed the new port: more attaches than the
  // initial mesh build alone would produce.
  SocketIoStats io = run.Io();
  EXPECT_GT(io.reconnects, 2u * 6u /* initial mesh, both endpoints */);
  // EC's redundancy did its job across the wire.
  EXPECT_GT(run.DuplicateDecisionsSuppressed(), 0u);
  // TCP kept the byte streams intact through resets: every connection
  // either delivered whole frames or died cleanly — no framing damage.
  EXPECT_EQ(io.corrupt_resets, 0u);
}

TEST(SocketClusterTest, UncoalescedRestartReplaysPreKillLog) {
  // At a frame cap of one the WAL group flush still precedes every send,
  // so a SIGKILLed node leaves its pre-kill history on disk and the
  // replacement process replays it.
  const std::string wal_dir = MakeTempDir();
  ASSERT_FALSE(wal_dir.empty());

  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.coalesce = false;
  cfg.wal_dir = wal_dir;
  cfg.seed = 23;
  cfg.timeout_us = 120'000;
  cfg.termination_window_us = 60'000;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);
  const uint64_t committed_before_kill = cluster.TotalCommitted();
  ASSERT_TRUE(cluster.Kill(2));
  // Node 2's log exactly as the kill left it: what the restart replays.
  uint64_t on_disk_at_kill = 0;
  {
    auto wal = FileWal::Open(wal_dir + "/node2.wal");
    ASSERT_TRUE(wal.ok());
    on_disk_at_kill = wal.value()->Size();
  }
  // Node 2 coordinates about a quarter of the committed transactions and
  // logs several records for each of them.
  EXPECT_GT(committed_before_kill, 0u);
  EXPECT_GE(on_disk_at_kill, committed_before_kill / cfg.num_nodes);

  ASSERT_TRUE(cluster.Restart(2));
  cluster.RunFor(0.5);
  SocketRunStats run = cluster.Stop();
  const SocketNodeReport* restarted = nullptr;
  for (const SocketNodeReport& n : run.nodes) {
    if (n.id == 2) restarted = &n;
  }
  ASSERT_NE(restarted, nullptr);
  // The replacement's log holds the replayed history plus whatever it
  // wrote since.
  EXPECT_GE(restarted->wal_records, on_disk_at_kill);
  std::filesystem::remove_all(wal_dir);
}

TEST(SocketClusterTest, TornTailBetweenKillsKeepsLaterRecords) {
  // A SIGKILL mid group flush can leave a torn record at the end of the
  // log. The replacement process must cut it off before appending, or
  // everything it logs hides behind the torn bytes from the next restart.
  const std::string wal_dir = MakeTempDir();
  ASSERT_FALSE(wal_dir.empty());
  const std::string wal_path = wal_dir + "/node2.wal";

  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.wal_dir = wal_dir;
  cfg.seed = 29;
  cfg.timeout_us = 120'000;
  cfg.termination_window_us = 60'000;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);
  ASSERT_TRUE(cluster.Kill(2));
  uint64_t on_disk_at_first_kill = 0;
  {
    auto wal = FileWal::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    on_disk_at_first_kill = wal.value()->Size();
  }
  EXPECT_GT(on_disk_at_first_kill, 0u);
  {
    std::ofstream torn(wal_path, std::ios::binary | std::ios::app);
    torn.write("\xDB\xEC\x01\x02\x03\x04\x05", 7);
    ASSERT_TRUE(torn.good());
  }

  ASSERT_TRUE(cluster.Restart(2));
  cluster.RunFor(0.5);
  ASSERT_TRUE(cluster.Kill(2));
  {
    auto wal = FileWal::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    EXPECT_GT(wal.value()->Size(), on_disk_at_first_kill);
  }
  cluster.Stop();
  std::filesystem::remove_all(wal_dir);
}

TEST(SocketClusterTest, UncoalescedPathStillConverges) {
  // The ablation baseline (per-message frames, one write syscall each) is
  // slower but must be just as correct.
  SocketClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.coalesce = false;
  cfg.seed = 5;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);
  cluster.Quiesce(/*drain_seconds=*/0.5);
  SocketRunStats run = cluster.Stop();

  EXPECT_GT(run.Committed(), 0u);
  const SocketIoStats io = run.Io();
  // One message per frame, one syscall per frame: no batching anywhere.
  EXPECT_EQ(io.frames_out, io.messages_out);
  EXPECT_EQ(io.corrupt_resets, 0u);
}

}  // namespace
}  // namespace ecdb

int main(int argc, char** argv) {
  // Node-process entry: the supervisor re-execs this binary with a marker
  // flag; such invocations run one node and never reach gtest.
  if (ecdb::MaybeRunSocketNodeChild(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
