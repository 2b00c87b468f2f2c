// Open-loop load model tests: the arrival generator, admission control,
// the conservation law, and deterministic replay.
//
// The conservation law is the load-model's ledger: every arrival is
// counted exactly once as offered, and — once the cluster drains — ends in
// exactly one of {committed, rejected at admission, terminally aborted}.
// Any double-count or leak (a slot lost, a retry forgotten, a crash
// swallowing an admitted transaction) breaks the equality.

#include "workload/open_loop.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

ClusterConfig OpenLoopCluster(double rate_per_node,
                              uint32_t max_in_flight = 64) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.seed = 1234;
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = rate_per_node;
  cfg.open_loop.max_in_flight_per_node = max_in_flight;
  return cfg;
}

YcsbConfig SmallYcsb(uint32_t partitions) {
  YcsbConfig cfg;
  cfg.num_partitions = partitions;
  cfg.rows_per_partition = 8192;
  cfg.theta = 0.5;
  return cfg;
}

struct OpenLoopTotals {
  uint64_t offered = 0;
  uint64_t committed = 0;
  uint64_t rejected = 0;
  uint64_t aborted = 0;  // terminal
  size_t in_flight = 0;
};

OpenLoopTotals Totals(SimCluster& cluster) {
  OpenLoopTotals t;
  const NodeStats s = cluster.CollectStats(0).total;
  t.offered = s.open_loop_offered;
  t.committed = s.txns_committed;
  t.rejected = s.open_loop_rejected;
  t.aborted = s.open_loop_aborted;
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    t.in_flight += cluster.node(id).InFlightClientCount();
  }
  return t;
}

// --------------------------------------------------------------------------
// Arrival generator
// --------------------------------------------------------------------------

TEST(ArrivalScheduleTest, SameSeedSameGapSequence) {
  OpenLoopConfig cfg;
  cfg.arrivals_per_sec_per_node = 2000.0;
  ArrivalSchedule a(cfg, 77);
  ArrivalSchedule b(cfg, 77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextGapUs(), b.NextGapUs()) << "gap #" << i;
  }
}

TEST(ArrivalScheduleTest, PoissonGapsHaveConfiguredMean) {
  OpenLoopConfig cfg;
  cfg.arrivals_per_sec_per_node = 1000.0;  // mean gap 1000us
  ArrivalSchedule sched(cfg, 42);
  uint64_t total = 0;
  constexpr int kGaps = 50000;
  for (int i = 0; i < kGaps; ++i) total += sched.NextGapUs();
  const double mean = static_cast<double>(total) / kGaps;
  EXPECT_NEAR(mean, 1000.0, 20.0);  // ~2% tolerance at 50k draws
}

// --------------------------------------------------------------------------
// Conservation law
// --------------------------------------------------------------------------

TEST(OpenLoopSimTest, ConservationHoldsMidRunAndAtDrain) {
  SimCluster cluster(OpenLoopCluster(/*rate_per_node=*/2000.0),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.3);

  // Mid-run: in-flight transactions are the (only) open positions.
  OpenLoopTotals mid = Totals(cluster);
  EXPECT_GT(mid.offered, 1000u);
  EXPECT_EQ(mid.offered,
            mid.committed + mid.rejected + mid.aborted + mid.in_flight);

  // Quiesce ends the arrival streams; draining closes every position.
  cluster.Quiesce();
  cluster.RunToQuiescence();
  OpenLoopTotals end = Totals(cluster);
  EXPECT_EQ(end.in_flight, 0u);
  EXPECT_EQ(end.offered, end.committed + end.rejected + end.aborted);
  EXPECT_GT(end.committed, 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

TEST(OpenLoopSimTest, AdmissionControlShedsWhenSaturated) {
  // A tiny admission window under a flood: most arrivals must be shed,
  // and the per-node occupancy may never exceed the cap.
  SimCluster cluster(
      OpenLoopCluster(/*rate_per_node=*/50'000.0, /*max_in_flight=*/2),
      std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.2);
  OpenLoopTotals mid = Totals(cluster);
  EXPECT_GT(mid.rejected, 0u);
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    EXPECT_LE(cluster.node(id).InFlightClientCount(), 2u);
  }
  cluster.Quiesce();
  cluster.RunToQuiescence();
  OpenLoopTotals end = Totals(cluster);
  EXPECT_EQ(end.offered, end.committed + end.rejected + end.aborted);
}

TEST(OpenLoopSimTest, ConservationSurvivesCrashAndRecovery) {
  SimCluster cluster(OpenLoopCluster(/*rate_per_node=*/2000.0),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  cluster.Start();
  cluster.RunFor(0.15);
  // The crash kills node 1's admitted in-flight transactions (counted as
  // terminal aborts) and its pending arrival event; recovery restarts the
  // arrival stream.
  cluster.CrashNode(1);
  cluster.RunFor(0.1);
  cluster.RecoverNode(1);
  const uint64_t at_recovery = cluster.node(1).committed();
  cluster.RunFor(0.15);
  cluster.Quiesce();
  cluster.RunToQuiescence();
  OpenLoopTotals end = Totals(cluster);
  EXPECT_EQ(end.in_flight, 0u);
  EXPECT_EQ(end.offered, end.committed + end.rejected + end.aborted);
  // The recovered node resumed generating load after the crash.
  EXPECT_GT(cluster.node(1).committed(), at_recovery);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// --------------------------------------------------------------------------
// Deterministic replay
// --------------------------------------------------------------------------

struct ReplayResult {
  std::vector<uint64_t> deliveries;  // packed (time, type, src, dst)
  OpenLoopTotals totals;
  Micros final_now = 0;
};

ReplayResult RunReplayScenario() {
  SimCluster cluster(OpenLoopCluster(/*rate_per_node=*/1500.0),
                     std::make_unique<YcsbWorkload>(SmallYcsb(4)));
  ReplayResult r;
  cluster.network().SetDeliveryInterceptor([&](const Message& m) {
    r.deliveries.push_back((cluster.scheduler().Now() << 20) ^
                           (static_cast<uint64_t>(m.type) << 12) ^
                           (static_cast<uint64_t>(m.src) << 6) ^
                           static_cast<uint64_t>(m.dst));
    return true;
  });
  cluster.Start();
  cluster.RunFor(0.2);
  cluster.Quiesce();
  cluster.RunToQuiescence();
  r.totals = Totals(cluster);
  r.final_now = cluster.scheduler().Now();
  return r;
}

TEST(OpenLoopSimTest, SameSeedAndRateReplayIdentically) {
  const ReplayResult a = RunReplayScenario();
  const ReplayResult b = RunReplayScenario();
  EXPECT_FALSE(a.deliveries.empty());
  EXPECT_EQ(a.deliveries, b.deliveries);  // full trace, not just counts
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.totals.offered, b.totals.offered);
  EXPECT_EQ(a.totals.committed, b.totals.committed);
  EXPECT_EQ(a.totals.rejected, b.totals.rejected);
  EXPECT_EQ(a.totals.aborted, b.totals.aborted);
}

}  // namespace
}  // namespace ecdb
