// Message-loss soak: every protocol family must stay safe when the
// network silently drops a few percent of all messages — no conflicting
// applied decisions, and every commit acked to a client durable at its
// coordinator. Loss stays ON through the drain: the point is that the
// protocols (with the decision ledger + bounded fruitless-retry
// hardening) resolve every transaction *through* the lossy network, not
// after it heals.

#include <cstdint>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "wal/log_record.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

// gtest has no printer for this type, so each case's listed name carries
// the parameter's raw bytes. The padding after `protocol` is therefore a
// zeroed member: left implicit it held whatever the stack did, and the
// test names changed from build to build.
struct SoakCase {
  SoakCase(CommitProtocol protocol_in, double drop_probability_in)
      : protocol(protocol_in), drop_probability(drop_probability_in) {}

  CommitProtocol protocol;
  uint8_t zero_padding[7] = {};
  double drop_probability;
};
static_assert(sizeof(SoakCase) == sizeof(CommitProtocol) + 7 + sizeof(double),
              "SoakCase must have no implicit padding");

class LossSoakTest : public ::testing::TestWithParam<SoakCase> {};

TEST_P(LossSoakTest, AckedCommitsSurviveSustainedLoss) {
  const SoakCase& param = GetParam();

  ClusterConfig config;
  config.num_nodes = 4;
  config.workers_per_node = 2;
  config.clients_per_node = 4;
  config.protocol = param.protocol;
  config.seed = 20180326;
  config.network.drop_probability = param.drop_probability;
  // Loss hardening (see CommitEngineConfig): keep decisions answerable
  // forever and re-run elections whose replies were all lost instead of
  // deciding from silence.
  config.commit.keep_decision_ledger = true;
  config.commit.term_fruitless_retries = 8;

  YcsbConfig ycsb;
  ycsb.num_partitions = config.num_nodes;
  ycsb.rows_per_partition = 1024;
  ycsb.partitions_per_txn = 2;

  SimCluster cluster(config, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    cluster.node(id).TrackAckedCommits(true);
  }
  cluster.RunFor(0.4);

  // Quiesce and drain with loss still active.
  cluster.Quiesce();
  const size_t kBudget = 20'000'000;
  const size_t executed = cluster.RunToQuiescence(kBudget);
  EXPECT_LT(executed, kBudget) << "drain did not quiesce under loss";

  EXPECT_GT(cluster.network().stats().messages_dropped, 0u)
      << "soak must actually drop messages";
  EXPECT_TRUE(cluster.monitor().Violations().empty());

  // Durability: every commit acked to a client has a commit record in its
  // coordinator's WAL and no abort record anywhere.
  uint64_t acked = 0;
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    for (TxnId txn : cluster.node(id).acked_commits()) {
      acked++;
      const NodeId coordinator = TxnCoordinator(txn);
      bool commit_logged = false;
      for (const LogRecord& r : cluster.node(coordinator).wal().Scan()) {
        if (r.txn == txn && (r.type == LogRecordType::kCommitDecision ||
                             r.type == LogRecordType::kTransactionCommit)) {
          commit_logged = true;
          break;
        }
      }
      EXPECT_TRUE(commit_logged)
          << "acked commit " << txn << " missing from coordinator WAL";
      for (NodeId other = 0; other < cluster.num_nodes(); ++other) {
        for (const LogRecord& r : cluster.node(other).wal().Scan()) {
          if (r.txn == txn && (r.type == LogRecordType::kAbortDecision ||
                               r.type == LogRecordType::kAbortReceived ||
                               r.type == LogRecordType::kTransactionAbort)) {
            ADD_FAILURE() << "acked commit " << txn << " aborted at node "
                          << other;
          }
        }
      }
    }
  }
  EXPECT_GT(acked, 100u) << "soak should commit real work";
}

std::string SoakName(const ::testing::TestParamInfo<SoakCase>& info) {
  std::string name = ToString(info.param.protocol);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + (info.param.drop_probability < 0.03 ? "_p01" : "_p05");
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, LossSoakTest,
    ::testing::Values(SoakCase{CommitProtocol::kEasyCommit, 0.01},
                      SoakCase{CommitProtocol::kEasyCommit, 0.05},
                      SoakCase{CommitProtocol::kTwoPhase, 0.01},
                      SoakCase{CommitProtocol::kTwoPhase, 0.05},
                      SoakCase{CommitProtocol::kThreePhase, 0.01},
                      SoakCase{CommitProtocol::kThreePhase, 0.05}),
    SoakName);

}  // namespace
}  // namespace ecdb
