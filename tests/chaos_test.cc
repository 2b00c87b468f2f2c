// Tests for the chaos campaign engine: fault-plan generation and JSON
// round-trips, deterministic replay, the end-to-end crash-recovery audit
// over small campaigns, the ddmin shrinker on a pinned failing case, the
// fault applier's link rule on a recording host, and the ThreadNetwork
// fault-injection hooks and threaded campaign (named ThreadNetworkChaos*
// so the TSan CI job picks them up).

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/campaign.h"
#include "chaos/chaos_driver.h"
#include "chaos/consistency_audit.h"
#include "chaos/fault_plan.h"
#include "chaos/shrinker.h"
#include "net/channel.h"
#include "cluster/thread_node.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

TEST(ChaosPlanTest, JsonRoundTripIsByteIdentical) {
  for (const ChaosIntensity intensity :
       {ChaosIntensity::kLight, ChaosIntensity::kDefault,
        ChaosIntensity::kHeavy}) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      const FaultPlan plan = GenerateFaultPlan(seed, 4, 600'000, intensity);
      const std::string json = plan.ToJson();
      FaultPlan parsed;
      std::string error;
      ASSERT_TRUE(ParseFaultPlan(json, &parsed, &error)) << error;
      EXPECT_EQ(parsed, plan);
      // Canonical form: reserializing the parse is byte-identical.
      EXPECT_EQ(parsed.ToJson(), json);
    }
  }
}

TEST(ChaosPlanTest, ParseRejectsMalformedInput) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParseFaultPlan("", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("{", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("{\"seed\":1}", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan(
      "{\"seed\":1,\"num_nodes\":4,\"horizon_us\":1000,"
      "\"intensity\":\"default\",\"events\":[{\"at_us\":1,\"type\":"
      "\"no_such_fault\"}]}",
      &plan, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ChaosPlanTest, FileRoundTrip) {
  const FaultPlan plan =
      GenerateFaultPlan(7, 4, 600'000, ChaosIntensity::kHeavy);
  const std::string path = ::testing::TempDir() + "/chaos_plan.json";
  std::string error;
  ASSERT_TRUE(WriteFaultPlanFile(plan, path, &error)) << error;
  FaultPlan read;
  ASSERT_TRUE(ReadFaultPlanFile(path, &read, &error)) << error;
  EXPECT_EQ(read, plan);
}

TEST(ChaosPlanTest, GeneratedPlansAreWellFormed) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const FaultPlan plan =
        GenerateFaultPlan(seed, 4, 600'000, ChaosIntensity::kDefault);
    EXPECT_EQ(plan.seed, seed);
    EXPECT_EQ(plan.num_nodes, 4u);
    Micros prev = 0;
    std::multiset<NodeId> down;
    for (const FaultEvent& ev : plan.events) {
      EXPECT_GE(ev.at_us, prev) << "events must be sorted";
      prev = ev.at_us;
      // Faults end well before the horizon so the in-run drain can win.
      EXPECT_LT(ev.at_us, plan.horizon_us * 8 / 10);
      if (ev.type == FaultType::kCrash) {
        EXPECT_LT(ev.a, plan.num_nodes);
        down.insert(ev.a);
        // Below heavy, a majority of nodes stays up at all times.
        EXPECT_LE(down.size(), (plan.num_nodes - 1) / 2);
      } else if (ev.type == FaultType::kRecover) {
        ASSERT_TRUE(down.count(ev.a)) << "recover without crash";
        down.erase(down.find(ev.a));
      }
    }
    EXPECT_TRUE(down.empty()) << "every crash needs a matching recover";
  }
}

TEST(ChaosPlanTest, GenerationIsDeterministic) {
  const FaultPlan a = GenerateFaultPlan(11, 4, 600'000, ChaosIntensity::kHeavy);
  const FaultPlan b = GenerateFaultPlan(11, 4, 600'000, ChaosIntensity::kHeavy);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(ChaosPlanTest, Split3RoundTripsByteIdentical) {
  FaultPlan plan;
  plan.seed = 42;
  plan.num_nodes = 5;
  plan.horizon_us = 600'000;
  plan.intensity = ChaosIntensity::kHeavy;
  plan.events.push_back({.at_us = 10'000, .type = FaultType::kSplit3,
                         .group = {0}, .group_b = {1, 2}});
  plan.events.push_back(
      {.at_us = 90'000, .type = FaultType::kPartitionHeal});

  const std::string json = plan.ToJson();
  EXPECT_NE(json.find("\"split3\""), std::string::npos);
  EXPECT_NE(json.find("\"group_b\""), std::string::npos);
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(ChaosPlanTest, Split3IsGeneratedHeavyOnlyWithDisjointCells) {
  bool saw_split3 = false;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    for (const ChaosIntensity intensity :
         {ChaosIntensity::kLight, ChaosIntensity::kDefault,
          ChaosIntensity::kHeavy}) {
      const FaultPlan plan = GenerateFaultPlan(seed, 4, 600'000, intensity);
      for (const FaultEvent& ev : plan.events) {
        if (ev.type != FaultType::kSplit3) continue;
        // Only the heavy regime may tear the cluster into three cells.
        EXPECT_EQ(intensity, ChaosIntensity::kHeavy);
        saw_split3 = true;
        ASSERT_FALSE(ev.group.empty());
        ASSERT_FALSE(ev.group_b.empty());
        std::set<NodeId> cell_a(ev.group.begin(), ev.group.end());
        for (const NodeId n : ev.group_b) {
          EXPECT_LT(n, plan.num_nodes);
          EXPECT_FALSE(cell_a.count(n)) << "cells must be disjoint";
        }
        // The third cell (the rest) must be non-empty too, or it is not
        // a three-way split.
        EXPECT_LT(ev.group.size() + ev.group_b.size(), plan.num_nodes);
      }
    }
  }
  EXPECT_TRUE(saw_split3) << "heavy generator never produced a split3";
}

// ---------------------------------------------------------------------------
// Campaigns + audit (simulator)
// ---------------------------------------------------------------------------

ChaosCaseConfig SmallCaseConfig(CommitProtocol protocol) {
  ChaosCaseConfig cfg;
  cfg.protocol = protocol;
  return cfg;
}

TEST(ChaosCampaignTest, IdenticalSeedGivesIdenticalOutcome) {
  const ChaosCaseConfig cfg = SmallCaseConfig(CommitProtocol::kEasyCommit);
  const ChaosCaseResult a = RunChaosCase(cfg, 17);
  const ChaosCaseResult b = RunChaosCase(cfg, 17);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.plan.ToJson(), b.plan.ToJson());
  EXPECT_EQ(a.faults_applied, b.faults_applied);
  EXPECT_EQ(a.audit.acked_commits, b.audit.acked_commits);
  EXPECT_EQ(a.audit.blocked_txns, b.audit.blocked_txns);
  ASSERT_EQ(a.audit.violations.size(), b.audit.violations.size());
  for (size_t i = 0; i < a.audit.violations.size(); ++i) {
    EXPECT_EQ(a.audit.violations[i].check, b.audit.violations[i].check);
    EXPECT_EQ(a.audit.violations[i].txn, b.audit.violations[i].txn);
    EXPECT_EQ(a.audit.violations[i].detail, b.audit.violations[i].detail);
  }
}

TEST(ChaosCampaignTest, ReplayOfGeneratedPlanMatchesCase) {
  const ChaosCaseConfig cfg = SmallCaseConfig(CommitProtocol::kEasyCommit);
  const ChaosCaseResult direct = RunChaosCase(cfg, 23);
  const ChaosCaseResult replay = ReplayFaultPlan(cfg, direct.plan);
  EXPECT_EQ(replay.audit.acked_commits, direct.audit.acked_commits);
  EXPECT_EQ(replay.audit.violations.size(), direct.audit.violations.size());
  EXPECT_EQ(replay.faults_applied, direct.faults_applied);
}

TEST(ChaosCampaignTest, EasyCommitSurvivesDefaultChaos) {
  const CampaignSummary summary = RunCampaign(
      SmallCaseConfig(CommitProtocol::kEasyCommit), /*first_seed=*/1,
      /*num_seeds=*/10);
  EXPECT_TRUE(summary.ok()) << summary.seeds_failed << " seeds failed";
  EXPECT_EQ(summary.atomicity_violations, 0u);
  EXPECT_EQ(summary.durability_violations, 0u);
  EXPECT_EQ(summary.liveness_violations, 0u);
  EXPECT_GT(summary.acked_commits, 0u);
  EXPECT_GT(summary.faults_applied, 0u);
}

TEST(ChaosCampaignTest, ThreePhaseSurvivesDefaultChaos) {
  const CampaignSummary summary = RunCampaign(
      SmallCaseConfig(CommitProtocol::kThreePhase), /*first_seed=*/1,
      /*num_seeds=*/6);
  EXPECT_TRUE(summary.ok()) << summary.seeds_failed << " seeds failed";
  EXPECT_EQ(summary.atomicity_violations, 0u);
  EXPECT_EQ(summary.durability_violations, 0u);
}

TEST(ChaosCampaignTest, TwoPhaseBlocksButStaysSafe) {
  // 2PC under chaos blocks (the failure mode the paper removes); blocking
  // is reported in the summary, not counted as an audit violation.
  const CampaignSummary summary = RunCampaign(
      SmallCaseConfig(CommitProtocol::kTwoPhase), /*first_seed=*/1,
      /*num_seeds=*/20);
  EXPECT_TRUE(summary.ok()) << summary.seeds_failed << " seeds failed";
  EXPECT_EQ(summary.atomicity_violations, 0u);
  EXPECT_EQ(summary.durability_violations, 0u);
  EXPECT_GT(summary.blocked_txns, 0u)
      << "this seed range is known to block 2PC cohorts";
}

TEST(ChaosCampaignTest, QuorumProtocolsSurviveDefaultChaos) {
  for (const CommitProtocol protocol :
       {CommitProtocol::kThreePhaseE3PC, CommitProtocol::kPaxosCommit}) {
    const CampaignSummary summary =
        RunCampaign(SmallCaseConfig(protocol), /*first_seed=*/1,
                    /*num_seeds=*/6);
    EXPECT_TRUE(summary.ok())
        << ToString(protocol) << ": " << summary.seeds_failed
        << " seeds failed";
    EXPECT_EQ(summary.atomicity_violations, 0u);
    EXPECT_EQ(summary.durability_violations, 0u);
    EXPECT_EQ(summary.liveness_violations, 0u);
    EXPECT_GT(summary.acked_commits, 0u);
  }
}

TEST(ChaosCampaignTest, PaxosCommitReportsAcceptorRounds) {
  const CampaignSummary summary =
      RunCampaign(SmallCaseConfig(CommitProtocol::kPaxosCommit),
                  /*first_seed=*/1, /*num_seeds=*/3);
  EXPECT_TRUE(summary.ok());
  // Every committed transaction concluded a ballot-0 acceptor round, so
  // the counter plumbing (engine -> NodeStats -> campaign) must be live.
  EXPECT_GT(summary.acceptor_rounds, 0u);
}

TEST(ChaosCampaignTest, CampaignTableIsDeterministic) {
  const ChaosCaseConfig cfg = SmallCaseConfig(CommitProtocol::kEasyCommit);
  const CampaignSummary a = RunCampaign(cfg, 1, 3);
  const CampaignSummary b = RunCampaign(cfg, 1, 3);
  EXPECT_EQ(FormatCampaignTable({a}), FormatCampaignTable({b}));
}

// One pinned row of a `chaos_run` table: failed, the three violation
// counts, blocked, qlost, ballots, acked, p50/p99/p999 and faults.
struct PinnedRow {
  CommitProtocol protocol;
  uint64_t failed, atomicity, durability, liveness, blocked, qlost, ballots,
      acked, p50, p99, p999, faults;
};

void ExpectPinnedRows(const ChaosCaseConfig& base,
                      const std::vector<PinnedRow>& rows) {
  for (const PinnedRow& want : rows) {
    ChaosCaseConfig cfg = base;
    cfg.protocol = want.protocol;
    const CampaignSummary got = RunCampaign(cfg, 1, 8);
    SCOPED_TRACE(ToString(want.protocol));
    EXPECT_EQ(got.seeds_run, 8u);
    EXPECT_EQ(got.seeds_failed, want.failed);
    EXPECT_EQ(got.atomicity_violations, want.atomicity);
    EXPECT_EQ(got.durability_violations, want.durability);
    EXPECT_EQ(got.liveness_violations, want.liveness);
    EXPECT_EQ(got.blocked_txns, want.blocked);
    EXPECT_EQ(got.quorum_lost_rounds, want.qlost);
    EXPECT_EQ(got.ballots_promoted, want.ballots);
    EXPECT_EQ(got.acked_commits, want.acked);
    EXPECT_EQ(got.latency.Percentile(0.50), want.p50);
    EXPECT_EQ(got.latency.Percentile(0.99), want.p99);
    EXPECT_EQ(got.latency.Percentile(0.999), want.p999);
    EXPECT_EQ(got.faults_applied, want.faults);
  }
}

// The simulator's chaos tables, pinned row by row: any change to the
// simulated protocols, crash recovery, fault applier or audit that moves a
// single figure fails here. Same configuration as `chaos_run --seeds 8`
// (CI's table over the seven protocols), the same with `--coalesce`, and
// `chaos_run --seeds 8 --intensity heavy --txn-partitions 3 --protocols
// e3pc,paxos`. ROADMAP item 8's planned golden re-record is the one change
// meant to move these rows; it updates them deliberately, together with
// the determinism goldens.
TEST(ChaosCampaignTest, SmokeTablesMatchPinnedRows) {
  using P = CommitProtocol;
  ExpectPinnedRows(
      ChaosCaseConfig{},
      {
          {P::kEasyCommit, 0, 0, 0, 0, 0, 0, 0, 11602, 1983, 102399, 188415,
           56},
          {P::kThreePhase, 0, 0, 0, 0, 0, 0, 0, 8703, 2943, 110591, 212991,
           56},
          {P::kTwoPhase, 0, 0, 0, 0, 8, 0, 0, 10216, 1983, 106495, 180223,
           56},
          {P::kTwoPhasePresumedAbort, 0, 0, 0, 0, 6, 0, 0, 10207, 1983,
           106495, 212991, 56},
          {P::kTwoPhasePresumedCommit, 0, 0, 0, 0, 9, 0, 0, 11606, 1983,
           90111, 180223, 56},
          {P::kThreePhaseE3PC, 0, 0, 0, 0, 0, 75, 0, 8798, 2943, 106495, 229375, 56},
          {P::kPaxosCommit, 0, 0, 0, 0, 0, 71, 205, 12926, 1983, 94207,
           196607, 56},
      });

  ChaosCaseConfig coalesced;
  coalesced.coalesce_transport = true;
  ExpectPinnedRows(
      coalesced,
      {
          {P::kEasyCommit, 0, 0, 0, 0, 0, 0, 0, 11602, 1983, 102399, 188415,
           56},
          {P::kThreePhase, 0, 0, 0, 0, 0, 0, 0, 8703, 2943, 110591, 212991,
           56},
          {P::kTwoPhase, 0, 0, 0, 0, 8, 0, 0, 10216, 1983, 106495, 180223,
           56},
          {P::kTwoPhasePresumedAbort, 0, 0, 0, 0, 6, 0, 0, 10207, 1983,
           106495, 212991, 56},
          {P::kTwoPhasePresumedCommit, 0, 0, 0, 0, 9, 0, 0, 11606, 1983,
           90111, 180223, 56},
          {P::kThreePhaseE3PC, 0, 0, 0, 0, 0, 75, 0, 8798, 2943, 106495,
           229375, 56},
          {P::kPaxosCommit, 0, 0, 0, 0, 0, 42, 135, 12967, 1983, 94207,
           180223, 56},
      });

  ChaosCaseConfig heavy;
  heavy.intensity = ChaosIntensity::kHeavy;
  heavy.partitions_per_txn = 3;
  ExpectPinnedRows(
      heavy,
      {
          {P::kThreePhaseE3PC, 0, 0, 0, 0, 0, 76, 0, 3681, 3967, 327679, 507903, 131},
          {P::kPaxosCommit, 0, 0, 0, 0, 0, 82, 246, 5118, 2943, 253951,
           442367, 131},
      });
}

// ---------------------------------------------------------------------------
// The negative case: EC without decision forwarding fails the audit, and
// the shrinker produces a smaller plan that still reproduces it.
// ---------------------------------------------------------------------------

// Pinned by running heavy-intensity campaigns against the no-forwarding
// ablation under the paper's *unmodified* termination rule (retries=0 —
// with the loss-hardened rule the decision ledger acts as pull-based
// forwarding and masks the ablation; see docs/ROBUSTNESS.md). Keep in
// sync with the engine: if a protocol change legitimately fixes this
// seed, re-hunt with
//   chaos_run --protocols ec-noforward --intensity heavy --retries 0
constexpr uint64_t kNoForwardFailingSeed = 4;

ChaosCaseConfig NoForwardConfig() {
  ChaosCaseConfig cfg;
  cfg.protocol = CommitProtocol::kEasyCommitNoForward;
  cfg.intensity = ChaosIntensity::kHeavy;
  cfg.term_fruitless_retries = 0;
  return cfg;
}

TEST(ChaosShrinkTest, NoForwardAblationFailsAuditAndShrinks) {
  const ChaosCaseConfig cfg = NoForwardConfig();
  const ChaosCaseResult result = RunChaosCase(cfg, kNoForwardFailingSeed);
  ASSERT_FALSE(result.ok())
      << "pinned ec-noforward seed no longer fails; re-hunt (see comment)";

  const ShrinkResult shrunk = ShrinkFaultPlan(cfg, result.plan);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_LT(shrunk.plan.events.size(), result.plan.events.size())
      << "shrinker must remove at least one event";
  EXPECT_GT(shrunk.replays, 0u);

  // The minimal plan replays to a failing audit, and its JSON form
  // round-trips (what chaos_run dumps as the repro artifact).
  const ChaosCaseResult replay = ReplayFaultPlan(cfg, shrunk.plan);
  EXPECT_FALSE(replay.ok());
  FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(shrunk.plan.ToJson(), &parsed, &error)) << error;
  EXPECT_EQ(parsed, shrunk.plan);
}

// ---------------------------------------------------------------------------
// The 3PC termination hole, pinned. Campaign-found (seed 1 of
//   chaos_run --protocols 3pc --intensity heavy --txn-partitions 3
// ) and ddmin-shrunk from 15 events to one: a single partition stranding
// the coordinator's cell away from a READY majority while the commit
// groups span three partitions. The coordinator's PRE-COMMIT timeout
// decides commit unilaterally; the far cell elects and aborts. E3PC's
// quorum termination rule refuses both minority decisions, so the same
// plan replays clean under kThreePhaseE3PC.
// ---------------------------------------------------------------------------

constexpr char kPinnedThreePcHolePlan[] =
    "{\"seed\":1,\"num_nodes\":4,\"horizon_us\":600000,"
    "\"intensity\":\"heavy\",\"events\":[{\"at_us\":48848,"
    "\"type\":\"partition\",\"group\":[2,3]}]}";

ChaosCaseConfig MultiCohortConfig(CommitProtocol protocol) {
  ChaosCaseConfig cfg;
  cfg.protocol = protocol;
  cfg.intensity = ChaosIntensity::kHeavy;
  cfg.partitions_per_txn = 3;
  return cfg;
}

std::string DescribeViolations(const AuditResult& audit) {
  std::string out;
  for (const AuditViolation& v : audit.violations) {
    out += v.check + " txn=" + std::to_string(v.txn) + ": " + v.detail + "\n";
  }
  return out;
}

TEST(ChaosQuorumTest, PinnedMultiCohortPlanBreaksThreePhase) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(kPinnedThreePcHolePlan, &plan, &error)) << error;

  const ChaosCaseResult result =
      ReplayFaultPlan(MultiCohortConfig(CommitProtocol::kThreePhase), plan);
  ASSERT_FALSE(result.ok())
      << "pinned 3PC multi-cohort repro no longer fails; if a protocol "
         "change legitimately fixed it, re-hunt with chaos_run "
         "--protocols 3pc --intensity heavy --txn-partitions 3";
  EXPECT_GT(result.audit.CountFor("atomicity"), 0u)
      << "the hole is specifically an atomicity split, not blocking";
}

TEST(ChaosQuorumTest, E3pcClearsThePinnedThreePhaseRepro) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(kPinnedThreePcHolePlan, &plan, &error)) << error;

  const ChaosCaseResult result = ReplayFaultPlan(
      MultiCohortConfig(CommitProtocol::kThreePhaseE3PC), plan);
  EXPECT_TRUE(result.ok()) << DescribeViolations(result.audit);
  EXPECT_EQ(result.audit.blocked_txns, 0u);
}

TEST(ChaosQuorumTest, PaxosCommitClearsThePinnedThreePhaseRepro) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(kPinnedThreePcHolePlan, &plan, &error)) << error;

  const ChaosCaseResult result =
      ReplayFaultPlan(MultiCohortConfig(CommitProtocol::kPaxosCommit), plan);
  EXPECT_TRUE(result.ok()) << DescribeViolations(result.audit);
  EXPECT_EQ(result.audit.blocked_txns, 0u);
}

// ---------------------------------------------------------------------------
// The fault applier, on a recording host
// ---------------------------------------------------------------------------

// Records what the applier sets, on a plan clock the test advances.
class RecordingHost : public FaultHost {
 public:
  explicit RecordingHost(size_t num_nodes) : num_nodes_(num_nodes) {}

  size_t num_nodes() const override { return num_nodes_; }
  void Crash(NodeId node) override { down_nodes.insert(node); }
  void Recover(NodeId node) override { down_nodes.erase(node); }
  void SetLinkDown(NodeId a, NodeId b, bool down) override {
    const std::pair<NodeId, NodeId> link = std::minmax(a, b);
    if (down) {
      links_down.insert(link);
    } else {
      links_down.erase(link);
    }
  }
  void SetDropProbability(double p) override { drop_probability = p; }
  void SetExtraDelay(NodeId a, NodeId b, Micros extra_us) override {
    if (extra_us > 0) {
      delays[{a, b}] = extra_us;
    } else {
      delays.erase({a, b});
    }
  }
  Micros Now() const override { return now_; }
  void After(Micros delay_us, std::function<void()> fn) override {
    actions_.emplace(now_ + delay_us, std::move(fn));  // FIFO on ties
  }

  /// Fires every action due at or before `t`, then sets the clock to `t`.
  void RunUntil(Micros t) {
    while (!actions_.empty() && actions_.begin()->first <= t) {
      auto action = actions_.extract(actions_.begin());
      now_ = action.key();
      action.mapped()();
    }
    now_ = t;
  }

  bool LinkDown(NodeId a, NodeId b) const {
    return links_down.count(std::minmax(a, b)) != 0;
  }

  std::set<NodeId> down_nodes;
  std::set<std::pair<NodeId, NodeId>> links_down;
  double drop_probability = 0.0;
  std::map<std::pair<NodeId, NodeId>, Micros> delays;

 private:
  size_t num_nodes_;
  Micros now_ = 0;
  std::multimap<Micros, std::function<void()>> actions_;
};

FaultPlan PlanOf(uint32_t num_nodes, std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.num_nodes = num_nodes;
  plan.horizon_us = 1'000;
  plan.events = std::move(events);
  return plan;
}

// The link rule, first overlap order: a link cut before a partition stays
// down when the partition heals, until its own heal.
TEST(ChaosDriverTest, CutBeforePartitionOutlivesPartitionHeal) {
  RecordingHost host(3);
  ChaosDriver driver(&host, 0.0);
  driver.Schedule(PlanOf(
      3, {{.at_us = 10, .type = FaultType::kLinkCut, .a = 0, .b = 2},
          {.at_us = 20, .type = FaultType::kPartition, .group = {2}},
          {.at_us = 30, .type = FaultType::kPartitionHeal},
          {.at_us = 40, .type = FaultType::kLinkHeal, .a = 0, .b = 2}}));
  host.RunUntil(20);
  EXPECT_TRUE(host.LinkDown(0, 2));
  EXPECT_TRUE(host.LinkDown(1, 2));
  EXPECT_FALSE(host.LinkDown(0, 1));
  host.RunUntil(30);
  EXPECT_TRUE(host.LinkDown(0, 2));
  EXPECT_FALSE(host.LinkDown(1, 2));
  host.RunUntil(40);
  EXPECT_TRUE(host.links_down.empty());
}

// Second overlap order: a link cut during a partition outlives it too.
TEST(ChaosDriverTest, CutDuringPartitionOutlivesPartitionHeal) {
  RecordingHost host(3);
  ChaosDriver driver(&host, 0.0);
  driver.Schedule(PlanOf(
      3, {{.at_us = 10, .type = FaultType::kPartition, .group = {2}},
          {.at_us = 20, .type = FaultType::kLinkCut, .a = 0, .b = 2},
          {.at_us = 30, .type = FaultType::kPartitionHeal},
          {.at_us = 40, .type = FaultType::kLinkHeal, .a = 0, .b = 2}}));
  host.RunUntil(20);
  EXPECT_TRUE(host.LinkDown(0, 2));
  EXPECT_TRUE(host.LinkDown(1, 2));
  host.RunUntil(30);
  EXPECT_TRUE(host.LinkDown(0, 2));
  EXPECT_FALSE(host.LinkDown(1, 2));
  host.RunUntil(40);
  EXPECT_TRUE(host.links_down.empty());
}

// A link's own heal does not reopen it while it crosses a partition.
TEST(ChaosDriverTest, LinkHealDuringPartitionKeepsCrossingLinkDown) {
  RecordingHost host(3);
  ChaosDriver driver(&host, 0.0);
  driver.Schedule(PlanOf(
      3, {{.at_us = 10, .type = FaultType::kLinkCut, .a = 0, .b = 2},
          {.at_us = 20, .type = FaultType::kPartition, .group = {2}},
          {.at_us = 30, .type = FaultType::kLinkHeal, .a = 0, .b = 2},
          {.at_us = 40, .type = FaultType::kPartitionHeal}}));
  host.RunUntil(30);
  EXPECT_TRUE(host.LinkDown(0, 2));
  EXPECT_TRUE(host.LinkDown(1, 2));
  host.RunUntil(40);
  EXPECT_TRUE(host.links_down.empty());
}

TEST(ChaosDriverTest, Split3CutsEveryCrossCellLink) {
  RecordingHost host(4);
  ChaosDriver driver(&host, 0.0);
  driver.Schedule(PlanOf(
      4, {{.at_us = 10, .type = FaultType::kSplit3, .group = {0},
           .group_b = {1}},
          {.at_us = 20, .type = FaultType::kPartitionHeal}}));
  host.RunUntil(10);
  const std::set<std::pair<NodeId, NodeId>> cross = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}};
  EXPECT_EQ(host.links_down, cross);  // 2 and 3 share the third cell
  host.RunUntil(20);
  EXPECT_TRUE(host.links_down.empty());
}

TEST(ChaosDriverTest, BurstAndSpikeEndAfterTheirDuration) {
  RecordingHost host(2);
  ChaosDriver driver(&host, 0.01);
  driver.Schedule(PlanOf(
      2, {{.at_us = 10, .type = FaultType::kLossBurst, .duration_us = 50,
           .probability = 0.5},
          {.at_us = 20, .type = FaultType::kDelaySpike, .a = 0, .b = 1,
           .duration_us = 30, .delay_us = 700}}));
  host.RunUntil(20);
  EXPECT_EQ(host.drop_probability, 0.5);
  EXPECT_EQ(host.delays.size(), 2u);  // both directions
  EXPECT_EQ(host.delays[std::make_pair(NodeId{1}, NodeId{0})], 700u);
  host.RunUntil(50);
  EXPECT_TRUE(host.delays.empty());
  EXPECT_EQ(host.drop_probability, 0.5);
  host.RunUntil(60);
  EXPECT_EQ(host.drop_probability, 0.01);
  EXPECT_EQ(driver.faults_applied(), 2u);
}

// Overlapping bursts: the earlier one's end does not cut the later one
// short, and the later one's end falls back to the earlier one's loss
// while that is still in its window.
TEST(ChaosDriverTest, OverlappingBurstsEachLastTheirDuration) {
  RecordingHost host(2);
  ChaosDriver driver(&host, 0.01);
  driver.Schedule(PlanOf(
      2, {{.at_us = 10, .type = FaultType::kLossBurst, .duration_us = 40,
           .probability = 0.5},
          {.at_us = 20, .type = FaultType::kLossBurst, .duration_us = 100,
           .probability = 0.3},
          {.at_us = 30, .type = FaultType::kLossBurst, .duration_us = 30,
           .probability = 0.9}}));
  host.RunUntil(30);
  EXPECT_EQ(host.drop_probability, 0.9);
  host.RunUntil(50);  // the first burst ends inside the other two
  EXPECT_EQ(host.drop_probability, 0.9);
  host.RunUntil(60);  // the third ends: the second still holds
  EXPECT_EQ(host.drop_probability, 0.3);
  host.RunUntil(119);
  EXPECT_EQ(host.drop_probability, 0.3);
  host.RunUntil(120);
  EXPECT_EQ(host.drop_probability, 0.01);
}

// Overlapping spikes on one link, planned in either direction, end the
// same way; a spike on another link is independent.
TEST(ChaosDriverTest, OverlappingSpikesOnALinkEachLastTheirDuration) {
  RecordingHost host(3);
  ChaosDriver driver(&host, 0.0);
  driver.Schedule(PlanOf(
      3, {{.at_us = 10, .type = FaultType::kDelaySpike, .a = 0, .b = 1,
           .duration_us = 30, .delay_us = 700},
          {.at_us = 20, .type = FaultType::kDelaySpike, .a = 1, .b = 0,
           .duration_us = 50, .delay_us = 300},
          {.at_us = 20, .type = FaultType::kDelaySpike, .a = 1, .b = 2,
           .duration_us = 10, .delay_us = 900}}));
  const auto delay = [&host](NodeId a, NodeId b) {
    const auto it = host.delays.find({a, b});
    return it == host.delays.end() ? Micros{0} : it->second;
  };
  host.RunUntil(20);
  EXPECT_EQ(delay(0, 1), 300u);
  EXPECT_EQ(delay(1, 0), 300u);
  EXPECT_EQ(delay(2, 1), 900u);
  host.RunUntil(30);
  EXPECT_EQ(delay(1, 2), 0u);
  EXPECT_EQ(delay(0, 1), 300u);
  host.RunUntil(40);  // the first spike ends inside the second
  EXPECT_EQ(delay(0, 1), 300u);
  EXPECT_EQ(delay(1, 0), 300u);
  host.RunUntil(70);
  EXPECT_TRUE(host.delays.empty());
}

// A later spike that ends first falls back to the earlier one's delay.
TEST(ChaosDriverTest, InnerSpikeEndFallsBackToOuterSpike) {
  RecordingHost host(2);
  ChaosDriver driver(&host, 0.0);
  driver.Schedule(PlanOf(
      2, {{.at_us = 10, .type = FaultType::kDelaySpike, .a = 0, .b = 1,
           .duration_us = 100, .delay_us = 700},
          {.at_us = 20, .type = FaultType::kDelaySpike, .a = 0, .b = 1,
           .duration_us = 10, .delay_us = 300}}));
  host.RunUntil(25);
  EXPECT_EQ(host.delays[std::make_pair(NodeId{0}, NodeId{1})], 300u);
  host.RunUntil(30);
  EXPECT_EQ(host.delays[std::make_pair(NodeId{0}, NodeId{1})], 700u);
  EXPECT_EQ(host.delays[std::make_pair(NodeId{1}, NodeId{0})], 700u);
  host.RunUntil(110);
  EXPECT_TRUE(host.delays.empty());
}

TEST(ChaosDriverTest, ClearFaultsRestoresAFaultFreeHost) {
  RecordingHost host(4);
  ChaosDriver driver(&host, 0.01);
  driver.Schedule(PlanOf(
      4, {{.at_us = 10, .type = FaultType::kCrash, .a = 1},
          {.at_us = 10, .type = FaultType::kLinkCut, .a = 0, .b = 3},
          {.at_us = 10, .type = FaultType::kPartition, .group = {2}},
          {.at_us = 10, .type = FaultType::kLossBurst, .duration_us = 100,
           .probability = 0.5},
          {.at_us = 10, .type = FaultType::kDelaySpike, .a = 0, .b = 1,
           .duration_us = 100, .delay_us = 700}}));
  host.RunUntil(10);
  EXPECT_EQ(host.down_nodes, std::set<NodeId>{1});
  EXPECT_EQ(host.links_down.size(), 4u);  // 0-3 plus 2's three links
  driver.ClearFaults();
  EXPECT_TRUE(host.down_nodes.empty());
  EXPECT_TRUE(host.links_down.empty());
  EXPECT_TRUE(host.delays.empty());
  EXPECT_EQ(host.drop_probability, 0.01);
  // The restores still pending change nothing.
  host.RunUntil(200);
  EXPECT_TRUE(host.delays.empty());
  EXPECT_EQ(host.drop_probability, 0.01);
}

// ---------------------------------------------------------------------------
// ThreadNetwork fault hooks (TSan-covered: ThreadNetworkChaos*)
// ---------------------------------------------------------------------------

Message Make(NodeId src, NodeId dst) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.txn = MakeTxnId(src, 1);
  return m;
}

TEST(ThreadNetworkChaosTest, FullLossDropsEverythingUntilCleared) {
  ThreadNetwork net(2);
  net.SetFaultSeed(7);
  net.SetDropProbability(1.0);
  for (int i = 0; i < 8; ++i) net.Send(Make(0, 1));
  EXPECT_EQ(net.channel(1).Size(), 0u);
  EXPECT_EQ(net.stats().messages_dropped, 8u);
  net.SetDropProbability(0.0);
  net.Send(Make(0, 1));
  std::vector<Message> batch;
  ASSERT_TRUE(net.channel(1).PopAll(&batch, 100ms));
  EXPECT_EQ(net.stats().messages_delivered, 1u);
  net.Shutdown();
}

TEST(ThreadNetworkChaosTest, LinkCutIsBidirectionalAndHealable) {
  ThreadNetwork net(3);
  net.SetLinkDown(0, 1, true);
  net.Send(Make(0, 1));
  net.Send(Make(1, 0));
  EXPECT_EQ(net.channel(0).Size(), 0u);
  EXPECT_EQ(net.channel(1).Size(), 0u);
  // The third node is unaffected.
  net.Send(Make(0, 2));
  std::vector<Message> batch;
  ASSERT_TRUE(net.channel(2).PopAll(&batch, 100ms));
  net.SetLinkDown(0, 1, false);
  net.Send(Make(0, 1));
  ASSERT_TRUE(net.channel(1).PopAll(&batch, 100ms));
  net.Shutdown();
}

TEST(ThreadNetworkChaosTest, ExtraDelayDefersDelivery) {
  ThreadNetwork net(2);
  net.SetExtraDelay(0, 1, 50'000);
  net.Send(Make(0, 1));
  std::vector<Message> batch;
  // Not delivered synchronously; the delay pump hands it over later.
  EXPECT_FALSE(net.channel(1).PopAll(&batch, 0us));
  ASSERT_TRUE(net.channel(1).PopAll(&batch, 2000ms));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].src, 0u);
  net.SetExtraDelay(0, 1, 0);
  net.Shutdown();
}

TEST(ThreadNetworkChaosTest, DelayedMessagesArriveInDueOrder) {
  ThreadNetwork net(3);
  net.SetExtraDelay(0, 2, 40'000);
  net.SetExtraDelay(1, 2, 10'000);
  net.Send(Make(0, 2));  // due in 40 ms
  net.Send(Make(1, 2));  // due in 10 ms: overtakes the first
  std::vector<Message> got;
  std::vector<Message> batch;
  while (got.size() < 2 && net.channel(2).PopAll(&batch, 2000ms)) {
    for (Message& m : batch) got.push_back(std::move(m));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].src, 1u);
  EXPECT_EQ(got[1].src, 0u);
  net.Shutdown();
}

TEST(ThreadNetworkChaosTest, ApplyPlanToThreadClusterStaysSafe) {
  ThreadClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 2;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.seed = 77;
  // Generous wall-clock timeouts: a spuriously expired timeout on a busy
  // CI machine acts like the Section 4.1 delay scenario.
  cfg.commit.timeout_us = 250'000;
  cfg.commit.termination_window_us = 80'000;

  YcsbConfig ycsb;
  ycsb.num_partitions = 3;
  ycsb.rows_per_partition = 2048;
  ycsb.partitions_per_txn = 2;

  ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();

  FaultPlan plan;
  plan.seed = 77;
  plan.num_nodes = 3;
  plan.horizon_us = 300'000;
  plan.events.push_back(
      {.at_us = 50'000, .type = FaultType::kCrash, .a = 2});
  plan.events.push_back(
      {.at_us = 120'000, .type = FaultType::kLossBurst,
       .duration_us = 60'000, .probability = 0.02});
  plan.events.push_back(
      {.at_us = 200'000, .type = FaultType::kRecover, .a = 2});
  // Blocks until the plan horizon, then heals the network and recovers
  // any node still down.
  ApplyPlanToThreadCluster(plan, &cluster, /*time_scale=*/1.0);

  cluster.RunFor(0.3);
  cluster.Quiesce();
  cluster.Stop();
  EXPECT_GT(cluster.TotalCommitted(), 5u);
  EXPECT_TRUE(cluster.monitor().Violations().empty());
}

// The wall-clock campaign path end-to-end for the quorum variants: plan
// applied to a live ThreadCluster, then the stopped-cluster evidence audit
// (what chaos_run --threaded runs per seed). TSan-covered via the
// ThreadNetworkChaos* name.
TEST(ThreadNetworkChaosTest, ThreadedAuditPassesQuorumProtocols) {
  for (const CommitProtocol protocol :
       {CommitProtocol::kThreePhaseE3PC, CommitProtocol::kPaxosCommit}) {
    ThreadClusterConfig cfg;
    cfg.num_nodes = 3;
    cfg.clients_per_node = 2;
    cfg.protocol = protocol;
    cfg.seed = 91;
    cfg.commit.timeout_us = 250'000;
    cfg.commit.termination_window_us = 80'000;

    YcsbConfig ycsb;
    ycsb.num_partitions = 3;
    ycsb.rows_per_partition = 2048;
    ycsb.partitions_per_txn = 2;

    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
    for (NodeId id = 0; id < cfg.num_nodes; ++id) {
      cluster.node(id).TrackAckedCommits(true);
    }
    cluster.Start();

    FaultPlan plan;
    plan.seed = 91;
    plan.num_nodes = 3;
    plan.horizon_us = 200'000;
    plan.events.push_back(
        {.at_us = 40'000, .type = FaultType::kLossBurst,
         .duration_us = 50'000, .probability = 0.02});
    ApplyPlanToThreadCluster(plan, &cluster, /*time_scale=*/1.0);

    cluster.RunFor(0.2);
    cluster.Quiesce();
    cluster.Stop();

    const AuditResult audit = AuditThreadCluster(&cluster);
    EXPECT_TRUE(audit.ok())
        << ToString(protocol) << ":\n" << DescribeViolations(audit);
    EXPECT_GT(audit.acked_commits, 0u) << ToString(protocol);
  }
}

// One seed of the threaded campaign through the shared campaign loop: the
// same plan generator, fault applier, audit and summary as the simulator's
// campaign.
TEST(ThreadNetworkChaosTest, ThreadedCaseRunsThroughTheSharedCampaignLoop) {
  ChaosCaseConfig cfg;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 2;
  cfg.horizon_us = 200'000;
  const CampaignSummary summary = RunCampaign(
      cfg, /*first_seed=*/3, /*num_seeds=*/1, nullptr,
      [](const ChaosCaseConfig& c, uint64_t seed) {
        return RunThreadedChaosCase(c, seed, /*worker_threads=*/2,
                                    /*time_scale=*/1.0);
      });
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.seeds_run, 1u);
  EXPECT_EQ(summary.faults_applied,
            GenerateFaultPlan(3, 3, 200'000, cfg.intensity).events.size());
  EXPECT_GT(summary.acked_commits, 0u);
}

}  // namespace
}  // namespace ecdb
