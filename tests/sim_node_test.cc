// Node-level tests of the simulated execution engine: remote fragment
// rollbacks, message reordering tombstones, execution timeouts and the
// lock-release-at-cleanup rule.

#include "cluster/sim_node.h"

#include <memory>
#include <span>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "commit/recovery.h"
#include "common/logging.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

ClusterConfig BaseConfig(CommitProtocol protocol = CommitProtocol::kEasyCommit) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.protocol = protocol;
  cfg.seed = 777;
  return cfg;
}

YcsbConfig BaseYcsb() {
  YcsbConfig cfg;
  cfg.num_partitions = 3;
  cfg.rows_per_partition = 4096;
  cfg.theta = 0.4;
  return cfg;
}

TEST(SimNodeTest, WalContainsProtocolMilestones) {
  SimCluster cluster(BaseConfig(), std::make_unique<YcsbWorkload>(BaseYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  bool begin = false, ready = false, received = false, terminal = false;
  for (NodeId id = 0; id < 3; ++id) {
    for (const LogRecord& r : cluster.node(id).wal().Scan()) {
      begin |= r.type == LogRecordType::kBeginCommit;
      ready |= r.type == LogRecordType::kReady;
      received |= r.type == LogRecordType::kCommitReceived;
      terminal |= r.type == LogRecordType::kTransactionCommit;
    }
  }
  EXPECT_TRUE(begin);
  EXPECT_TRUE(ready);
  EXPECT_TRUE(received);  // EC-specific entry
  EXPECT_TRUE(terminal);
}

TEST(SimNodeTest, ReadyRecordsCarryParticipants) {
  SimCluster cluster(BaseConfig(), std::make_unique<YcsbWorkload>(BaseYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  bool found = false;
  for (const LogRecord& r : cluster.node(1).wal().Scan()) {
    if (r.type == LogRecordType::kReady && !r.participants.empty()) {
      found = true;
      EXPECT_GE(r.participants.size(), 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SimNodeTest, NoLockLeaksAfterQuiescentDrain) {
  // Once the closed loop is quiesced and the scheduler drains, every
  // transaction has committed or aborted and released its locks: no lock
  // entry and no client slot may remain on any node.
  for (CommitProtocol protocol :
       {CommitProtocol::kEasyCommit, CommitProtocol::kTwoPhase,
        CommitProtocol::kThreePhase}) {
    SCOPED_TRACE(ToString(protocol));
    SimCluster cluster(BaseConfig(protocol),
                       std::make_unique<YcsbWorkload>(BaseYcsb()));
    cluster.Start();
    cluster.RunFor(0.3);
    cluster.Quiesce();
    cluster.RunToQuiescence();
    for (NodeId id = 0; id < 3; ++id) {
      EXPECT_GT(cluster.node(id).committed(), 0u) << "node " << id;
      EXPECT_EQ(cluster.node(id).locks().ActiveEntries(), 0u) << "node " << id;
      EXPECT_EQ(cluster.node(id).InFlightClientCount(), 0u) << "node " << id;
    }
  }
}

TEST(SimNodeTest, EngineStateStaysBounded) {
  SimCluster cluster(BaseConfig(), std::make_unique<YcsbWorkload>(BaseYcsb()));
  cluster.Start();
  cluster.RunFor(0.5);
  for (NodeId id = 0; id < 3; ++id) {
    // Active protocol records are bounded by in-flight transactions.
    EXPECT_LT(cluster.node(id).engine().ActiveCount(),
              3u * 4u * 4u);
  }
}

TEST(SimNodeTest, VoteOverrideForcesAborts) {
  ClusterConfig cfg = BaseConfig();
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(BaseYcsb()));
  cluster.Start();
  // Every fragment on node 1 votes abort: multi-partition transactions
  // touching node 1 must abort (and be retried forever); single-partition
  // and node-1-free transactions still commit.
  cluster.node(1).set_vote_override(
      [](TxnId) { return Decision::kAbort; });
  cluster.RunFor(0.3);
  cluster.BeginMeasurement();
  cluster.RunFor(0.3);
  const ClusterStats stats = cluster.CollectStats(0.3);
  EXPECT_GT(stats.total.txns_committed, 0u);
  EXPECT_GT(stats.total.txns_aborted, 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

TEST(SimNodeTest, RowsRevertOnAbortedAttempts) {
  // With vote overrides forcing aborts of all protocol transactions that
  // touch node 2's fragments, the database state must reflect only
  // committed work (atomicity): versions change only via commits.
  ClusterConfig cfg = BaseConfig(CommitProtocol::kTwoPhase);
  YcsbConfig ycfg = BaseYcsb();
  ycfg.write_fraction = 1.0;
  YcsbWorkload* ycsb = new YcsbWorkload(ycfg);
  SimCluster cluster(cfg, std::unique_ptr<Workload>(ycsb));
  cluster.Start();
  cluster.RunFor(0.4);
  uint64_t version_sum = 0;
  for (NodeId id = 0; id < 3; ++id) {
    Table* table = cluster.node(id).store().GetTable(YcsbWorkload::kTableId);
    for (uint64_t row = 0; row < 4096; ++row) {
      version_sum +=
          table->Version(table->Get(ycsb->EncodeKey(id, row)).value());
    }
  }
  uint64_t committed = 0;
  for (NodeId id = 0; id < 3; ++id) {
    committed += cluster.node(id).stats().txns_committed;
  }
  const uint64_t in_flight_bound = 3ull * cfg.clients_per_node * 10;
  EXPECT_GE(version_sum + in_flight_bound, committed * 10);
  EXPECT_LE(version_sum, committed * 10 + in_flight_bound);
}

/// Two partitions, one row each (key = partition). Every transaction
/// writes its home row twice, then the other partition's row.
class RepeatedWriteWorkload : public Workload {
 public:
  static constexpr TableId kTable = 0;
  static constexpr uint64_t kColumn0 = 41;
  static constexpr uint64_t kColumn1 = 7;

  void LoadPartition(PartitionStore* store,
                     const KeyPartitioner&) const override {
    ECDB_CHECK(store->CreateTable(kTable, "rows", 2, /*first=*/store->id(),
                                  /*stride=*/1, /*count=*/1)
                   .ok());
    Table* table = store->GetTable(kTable);
    const std::span<uint64_t> cells = table->Columns(0);
    cells[0] = kColumn0;
    cells[1] = kColumn1;
  }

  TxnRequest NextTxn(PartitionId home, Rng&) override {
    TxnRequest req;
    req.ops = {{kTable, home, AccessMode::kWrite},
               {kTable, home, AccessMode::kWrite},
               {kTable, Key{1} - home, AccessMode::kWrite}};
    return req;
  }
};

TEST(SimNodeTest, AbortRestoresRowsWrittenTwice) {
  // Each write logs column 0 and the version before bumping both; an abort
  // must undo newest-first, so a row written twice returns to its original
  // image rather than to the one between the two writes.
  ClusterConfig cfg = BaseConfig();
  cfg.num_nodes = 2;
  cfg.clients_per_node = 1;
  SimCluster cluster(cfg, std::make_unique<RepeatedWriteWorkload>());
  cluster.Start();
  for (NodeId id = 0; id < 2; ++id) {
    cluster.node(id).set_vote_override(
        [](TxnId) { return Decision::kAbort; });
  }
  cluster.RunFor(0.05);
  cluster.Quiesce();
  cluster.RunToQuiescence();
  for (NodeId id = 0; id < 2; ++id) {
    const Table* table =
        cluster.node(id).store().GetTable(RepeatedWriteWorkload::kTable);
    const RowId row = table->Get(id).value();
    EXPECT_EQ(table->Version(row), 0u) << "node " << id;
    EXPECT_EQ(table->Columns(row)[0], RepeatedWriteWorkload::kColumn0);
    EXPECT_EQ(table->Columns(row)[1], RepeatedWriteWorkload::kColumn1);
  }
  const ClusterStats stats = cluster.CollectStats(0.05);
  EXPECT_GT(stats.total.txns_aborted, 10u);
  EXPECT_EQ(stats.total.txns_committed, 0u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

TEST(SimNodeTest, EarlyLockReleaseLowersAbortRate) {
  // The A3 ablation knob: releasing locks at decision time (instead of at
  // cleanup, Section 5.3) shortens the conflict window, so the abort rate
  // must not increase.
  auto run = [](bool early) {
    ClusterConfig cfg = BaseConfig();
    cfg.release_locks_at_decision = early;
    YcsbConfig ycsb = BaseYcsb();
    ycsb.rows_per_partition = 512;
    ycsb.theta = 0.7;
    ycsb.write_fraction = 0.9;
    SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
    cluster.Start();
    cluster.RunFor(0.2);
    cluster.BeginMeasurement();
    cluster.RunFor(0.4);
    return cluster.CollectStats(0.4);
  };
  const ClusterStats paper = run(false);
  const ClusterStats early = run(true);
  EXPECT_LE(early.AbortRate(), paper.AbortRate() * 1.02);
  EXPECT_GE(early.Throughput(), paper.Throughput() * 0.95);
}

TEST(SimNodeTest, PresumedVariantsRunEndToEnd) {
  for (CommitProtocol protocol : {CommitProtocol::kTwoPhasePresumedAbort,
                                  CommitProtocol::kTwoPhasePresumedCommit}) {
    SimCluster cluster(BaseConfig(protocol),
                       std::make_unique<YcsbWorkload>(BaseYcsb()));
    cluster.Start();
    cluster.RunFor(0.2);
    cluster.BeginMeasurement();
    cluster.RunFor(0.3);
    const ClusterStats stats = cluster.CollectStats(0.3);
    EXPECT_GT(stats.total.txns_committed, 100u) << ToString(protocol);
    EXPECT_TRUE(cluster.monitor().Violations().empty()) << ToString(protocol);
  }
}

TEST(SimNodeTest, CrashClearsVolatileStateKeepsWal) {
  SimCluster cluster(BaseConfig(), std::make_unique<YcsbWorkload>(BaseYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  const uint64_t wal_size = cluster.node(1).wal().Size();
  EXPECT_GT(wal_size, 0u);
  cluster.CrashNode(1);
  EXPECT_TRUE(cluster.node(1).crashed());
  EXPECT_EQ(cluster.node(1).engine().ActiveCount(), 0u);
  EXPECT_EQ(cluster.node(1).locks().ActiveEntries(), 0u);
  EXPECT_GE(cluster.node(1).wal().Size(), wal_size);  // stable storage
}

TEST(SimNodeTest, RecoveryFinalizesInFlightTxnsInWal) {
  SimCluster cluster(BaseConfig(),
                     std::make_unique<YcsbWorkload>(BaseYcsb()));
  cluster.Start();
  cluster.RunFor(0.3);
  cluster.CrashNode(1);
  cluster.RunFor(0.2);
  cluster.RecoverNode(1);
  cluster.RunFor(0.5);
  // After recovery + termination, consult-peers cases resolve; only
  // transactions whose outcome is still being consulted may remain.
  const RecoveryPlan plan =
      RecoveryManager::Plan(cluster.node(1).wal().Scan(), 1);
  EXPECT_LT(plan.in_flight.size(), 24u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// Recover() on a node that is up is rejected — false, no WAL pass, no
// client restart — exactly as on the threaded host
// (ThreadClusterTest.RecoverOnLiveNodeIsRejected).
TEST(SimNodeTest, RecoverOnLiveNodeIsRejected) {
  SimCluster cluster(BaseConfig(), std::make_unique<YcsbWorkload>(BaseYcsb()));
  cluster.Start();
  cluster.RunFor(0.1);
  const size_t wal_size = cluster.node(1).wal().Size();
  const size_t in_flight = cluster.node(1).InFlightClientCount();
  EXPECT_FALSE(cluster.RecoverNode(1));
  EXPECT_EQ(cluster.node(1).wal().Size(), wal_size);
  EXPECT_EQ(cluster.node(1).InFlightClientCount(), in_flight);

  cluster.CrashNode(1);
  EXPECT_TRUE(cluster.RecoverNode(1));
  EXPECT_FALSE(cluster.RecoverNode(1));
  cluster.RunFor(0.2);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

}  // namespace
}  // namespace ecdb
