// Integration tests: the full simulated distributed database (execution
// engine + concurrency control + commit protocols + workloads) running
// end-to-end, with and without failures.

#include "cluster/sim_cluster.h"

#include <memory>

#include <gtest/gtest.h>

#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

ClusterConfig SmallCluster(CommitProtocol protocol) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.protocol = protocol;
  cfg.seed = 1234;
  return cfg;
}

YcsbConfig SmallYcsb(uint32_t partitions) {
  YcsbConfig cfg;
  cfg.num_partitions = partitions;
  cfg.rows_per_partition = 8192;
  cfg.theta = 0.5;
  return cfg;
}

class SimClusterProtocolTest
    : public ::testing::TestWithParam<CommitProtocol> {};

TEST_P(SimClusterProtocolTest, CommitsTransactionsWithoutViolations) {
  SimCluster cluster(SmallCluster(GetParam()),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.BeginMeasurement();
  cluster.RunFor(0.5);
  const ClusterStats stats = cluster.CollectStats(0.5);
  EXPECT_GT(stats.total.txns_committed, 100u);
  EXPECT_GT(stats.total.commit_protocol_runs, 0u);
  EXPECT_EQ(stats.total.txns_blocked, 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

TEST_P(SimClusterProtocolTest, LatencyIsMeasured) {
  SimCluster cluster(SmallCluster(GetParam()),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.BeginMeasurement();
  cluster.RunFor(0.3);
  const ClusterStats stats = cluster.CollectStats(0.3);
  EXPECT_GT(stats.total.latency.count(), 0u);
  // One latency sample per commit, both recorded at the commit itself.
  EXPECT_EQ(stats.total.latency.count(), stats.total.txns_committed);
  // A multi-partition transaction needs at least two network round trips.
  EXPECT_GT(stats.total.latency.Percentile(0.5),
            2 * cluster.config().network.base_latency_us);
}

TEST_P(SimClusterProtocolTest, TimeBreakdownCoversAllCategories) {
  SimCluster cluster(SmallCluster(GetParam()),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.BeginMeasurement();
  cluster.RunFor(0.5);
  const ClusterStats stats = cluster.CollectStats(0.5);
  EXPECT_GT(stats.total.TimeIn(TimeCategory::kUsefulWork), 0u);
  EXPECT_GT(stats.total.TimeIn(TimeCategory::kIndex), 0u);
  EXPECT_GT(stats.total.TimeIn(TimeCategory::kTxnManager), 0u);
  EXPECT_GT(stats.total.TimeIn(TimeCategory::kCommit), 0u);
  EXPECT_GT(stats.total.TimeIn(TimeCategory::kOverhead), 0u);
  double sum = 0;
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    sum += stats.TimeFraction(static_cast<TimeCategory>(i));
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SimClusterProtocolTest,
                         ::testing::Values(CommitProtocol::kTwoPhase,
                                           CommitProtocol::kThreePhase,
                                           CommitProtocol::kEasyCommit),
                         [](const auto& info) { return ToString(info.param); });

TEST(SimClusterTest, DeterministicForSameSeed) {
  auto run = [] {
    SimCluster cluster(SmallCluster(CommitProtocol::kEasyCommit),
                       std::make_unique<YcsbWorkload>(SmallYcsb(4)));
    cluster.Start();
    cluster.RunFor(0.3);
    cluster.BeginMeasurement();
    cluster.RunFor(0.3);
    return cluster.CollectStats(0.3).total.txns_committed;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimClusterTest, ReadOnlyWorkloadSkipsCommitProtocol) {
  ClusterConfig cfg = SmallCluster(CommitProtocol::kEasyCommit);
  YcsbConfig ycfg = SmallYcsb(4);
  ycfg.write_fraction = 0.0;
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycfg));
  cluster.Start();
  cluster.RunFor(0.5);
  const ClusterStats stats = cluster.CollectStats(0.5);
  EXPECT_GT(stats.total.txns_committed, 100u);
  // Section 5.2: read-only txns skip it.
  EXPECT_EQ(stats.total.commit_protocol_runs, 0u);
}

TEST(SimClusterTest, SinglePartitionTxnsSkipCommitProtocol) {
  ClusterConfig cfg = SmallCluster(CommitProtocol::kTwoPhase);
  YcsbConfig ycfg = SmallYcsb(4);
  ycfg.partitions_per_txn = 1;
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycfg));
  cluster.Start();
  cluster.RunFor(0.5);
  const ClusterStats stats = cluster.CollectStats(0.5);
  EXPECT_GT(stats.total.txns_committed, 100u);
  EXPECT_EQ(stats.total.commit_protocol_runs, 0u);
  EXPECT_EQ(cluster.network().stats().messages_sent, 0u);  // all local
}

TEST(SimClusterTest, ContentionCausesAborts) {
  ClusterConfig cfg = SmallCluster(CommitProtocol::kEasyCommit);
  YcsbConfig ycfg = SmallYcsb(4);
  ycfg.rows_per_partition = 64;  // tiny hot set
  ycfg.theta = 0.9;
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycfg));
  cluster.Start();
  cluster.RunFor(0.5);
  EXPECT_GT(cluster.CollectStats(0.5).total.txns_aborted, 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

TEST(SimClusterTest, AtomicityAllOrNothingUnderContention) {
  // Every committed write bumps a row version exactly once; with undo on
  // abort, the sum of versions equals the number of committed writes.
  // (A cheap whole-database atomicity check.)
  ClusterConfig cfg = SmallCluster(CommitProtocol::kEasyCommit);
  cfg.clients_per_node = 8;
  YcsbConfig ycfg = SmallYcsb(4);
  ycfg.rows_per_partition = 256;
  ycfg.theta = 0.8;
  ycfg.write_fraction = 1.0;
  YcsbWorkload* ycsb = new YcsbWorkload(ycfg);
  SimCluster cluster(cfg, std::unique_ptr<Workload>(ycsb));
  cluster.Start();
  cluster.RunFor(0.4);
  // Stop issuing new work by draining: run until in-flight txns settle.
  // (Clients are closed-loop, so instead compare version sums to committed
  // write counts after a quiescent barrier: freeze by crashing clients is
  // intrusive; we instead run and account exactly.)
  cluster.RunFor(0.1);
  // Committed writes: 10 ops * write_fraction 1.0 per committed txn...
  // except some committed ops may target the same row (versions still
  // bump per write). Count versions and compare with a lower bound.
  uint64_t version_sum = 0;
  for (NodeId id = 0; id < 4; ++id) {
    Table* table = cluster.node(id).store().GetTable(YcsbWorkload::kTableId);
    for (uint64_t row = 0; row < ycfg.rows_per_partition; ++row) {
      version_sum +=
          table->Version(table->Get(ycsb->EncodeKey(id, row)).value());
    }
  }
  uint64_t committed = 0;
  for (NodeId id = 0; id < 4; ++id) {
    committed += cluster.node(id).stats().txns_committed;
  }
  // In-flight transactions at the instant of measurement blur the exact
  // equality; committed writes dominate, so the version sum must be close
  // to 10 * committed (within the in-flight population).
  const uint64_t expected = committed * 10;
  const uint64_t in_flight_bound = 4ull * cfg.clients_per_node * 10;
  EXPECT_GE(version_sum + in_flight_bound, expected);
  EXPECT_LE(version_sum, expected + in_flight_bound);
}

TEST(SimClusterTest, TpccRunsEndToEnd) {
  ClusterConfig cfg = SmallCluster(CommitProtocol::kEasyCommit);
  TpccConfig tcfg;
  tcfg.num_partitions = 4;
  tcfg.warehouses_per_partition = 2;
  tcfg.customers_per_district = 32;
  tcfg.items = 256;
  SimCluster cluster(cfg, std::make_unique<TpccWorkload>(tcfg));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.BeginMeasurement();
  cluster.RunFor(0.5);
  const ClusterStats stats = cluster.CollectStats(0.5);
  EXPECT_GT(stats.total.txns_committed, 100u);
  // TPC-C is mostly single-partition: protocol runs well below commits.
  EXPECT_LT(stats.total.commit_protocol_runs, stats.total.txns_committed);
  EXPECT_GT(stats.total.commit_protocol_runs, 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// ---------------------------------------------------------------------------
// Failures in the full system
// ---------------------------------------------------------------------------

TEST(SimClusterFailureTest, EasyCommitSurvivesCoordinatorCrash) {
  SimCluster cluster(SmallCluster(CommitProtocol::kEasyCommit),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.CrashNode(0);
  cluster.RunFor(0.5);  // survivors keep processing
  uint64_t committed_after = 0;
  for (NodeId id = 1; id < 4; ++id) {
    committed_after += cluster.node(id).stats().txns_committed;
  }
  EXPECT_EQ(cluster.CollectStats(0.7).total.txns_blocked, 0u);  // EC never blocks
  EXPECT_GT(committed_after, 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  // Survivors hold no leaked protocol state for dead transactions.
  for (NodeId id = 1; id < 4; ++id) {
    EXPECT_LT(cluster.node(id).engine().ActiveCount(), 64u);
  }
}

TEST(SimClusterFailureTest, TwoPhaseCommitCanBlockOnDoubleCrash) {
  ClusterConfig cfg = SmallCluster(CommitProtocol::kTwoPhase);
  cfg.num_nodes = 4;
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  // Crash two nodes close together mid-traffic.
  cluster.CrashNode(0);
  cluster.CrashNode(1);
  cluster.RunFor(0.5);
  // Blocking is schedule-dependent; the essential assertions are safety
  // and the absence of crashes. (The deterministic blocking scenario is
  // covered by the protocol-level tests.)
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

TEST(SimClusterFailureTest, CrashedNodeRecoversAndResolvesInFlight) {
  SimCluster cluster(SmallCluster(CommitProtocol::kEasyCommit),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.CrashNode(2);
  cluster.RunFor(0.2);
  cluster.RecoverNode(2);
  cluster.RunFor(0.5);
  // The recovered node resolved its in-flight transactions consistently:
  // no conflicting decisions recorded anywhere.
  EXPECT_TRUE(cluster.monitor().Violations().empty());
  // And the WAL of node 2 has no permanently unresolved entries flagged
  // as decisions without terminal records... (spot check: recovery ran).
  EXPECT_FALSE(cluster.node(2).crashed());
}

TEST(SimClusterFailureTest, ProtocolCountersNeverRunBackwardsAcrossCrashes) {
  // A crash recreates the node's engine. The window's protocol counters
  // must still only grow: a later collection never reads below an earlier
  // one.
  SimCluster cluster(SmallCluster(CommitProtocol::kEasyCommit),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.BeginMeasurement();
  cluster.CrashNode(0);
  cluster.RunFor(0.3);
  const ClusterStats early = cluster.CollectStats(0.3);
  cluster.CrashNode(1);
  cluster.RunFor(0.05);
  const ClusterStats late = cluster.CollectStats(0.35);
  EXPECT_GT(early.total.termination_rounds, 0u);
  EXPECT_GE(late.total.termination_rounds, early.total.termination_rounds);
  EXPECT_GE(late.total.acceptor_rounds, early.total.acceptor_rounds);
  EXPECT_GE(late.total.ballots_promoted, early.total.ballots_promoted);
  EXPECT_GE(late.total.quorum_lost_rounds, early.total.quorum_lost_rounds);
  EXPECT_GE(late.duplicate_decisions_suppressed,
            early.duplicate_decisions_suppressed);
}

TEST(SimClusterFailureTest, ClusterKeepsCommittingAfterRecovery) {
  SimCluster cluster(SmallCluster(CommitProtocol::kEasyCommit),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.CrashNode(3);
  cluster.RunFor(0.3);
  cluster.RecoverNode(3);
  cluster.node(3).StartClients();
  cluster.BeginMeasurement();
  cluster.RunFor(0.3);
  const ClusterStats stats = cluster.CollectStats(0.3);
  EXPECT_GT(stats.total.txns_committed, 50u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

}  // namespace
}  // namespace ecdb
