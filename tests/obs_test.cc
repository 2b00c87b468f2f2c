// Tests for the observability subsystem: the sharded metrics registry
// (including the concurrent record/snapshot contract TSan checks), the
// time-series sampler's delta slices and byte-deterministic JSONL export
// on the simulator, the Prometheus exposition, and the offline
// critical-path analyzer (pinned golden on the protocol testbed plus the
// ring-drop truncation contract).

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sim_cluster.h"
#include "commit/testbed.h"
#include "obs/critical_path.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace {

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, ShardsMergeIntoSnapshot) {
  MetricsRegistry reg;
  const CounterId c0 = reg.Counter("alpha");
  const CounterId c1 = reg.Counter("beta");
  const GaugeId g = reg.Gauge("gamma");
  const HistId h = reg.Hist("delta");
  reg.Activate(3);
  ASSERT_TRUE(reg.enabled());

  reg.Add(0, c0, 1);
  reg.Add(1, c0, 10);
  reg.Add(2, c0, 100);
  reg.Add(2, c1, 7);
  reg.Set(g, 42);
  reg.Set(g, 43);  // gauges overwrite
  reg.Observe(0, h, 50);
  reg.Observe(1, h, 50);
  reg.Observe(2, h, 5000);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters[c0], 111u);
  EXPECT_EQ(snap.counters[c1], 7u);
  EXPECT_EQ(snap.gauges[g], 43u);
  EXPECT_EQ(snap.hist_counts[h], 3u);
  EXPECT_EQ(snap.hist_sums[h], 5100u);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.hist_buckets[h]) bucket_total += b;
  EXPECT_EQ(bucket_total, 3u);
}

// A measurement window is a snapshot minus its baseline; the extremes
// restart at the window's start because they cannot be differenced.
TEST(MetricsRegistryTest, WindowIsSnapshotMinusBaseline) {
  MetricsRegistry reg;
  const CounterId c = reg.Counter("ops");
  const HistId h = reg.Hist("lat");
  reg.Activate(2);
  reg.Add(0, c, 5);
  reg.Observe(0, h, 9000);
  reg.Observe(1, h, 3);
  const MetricsSnapshot base = reg.Snapshot();
  EXPECT_EQ(base.hist_mins[h], 3u);
  EXPECT_EQ(base.hist_maxes[h], 9000u);
  reg.ResetExtremes();
  reg.Add(1, c, 2);
  reg.Observe(0, h, 100);
  reg.Observe(1, h, 700);

  const MetricsSnapshot now = reg.Snapshot();
  EXPECT_EQ(now.Since(MetricsSnapshot{}).counters[c], 7u);
  const MetricsSnapshot delta = now.Since(base);
  EXPECT_EQ(delta.counters[c], 2u);
  const Histogram window = delta.Hist(h);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_DOUBLE_EQ(window.Mean(), 400.0);
  EXPECT_EQ(window.min(), 100u);
  EXPECT_EQ(window.max(), 700u);
  EXPECT_EQ(window.Percentile(1.0), 700u);
}

// The TSan target: workers hammer their own shards while a sampler thread
// snapshots concurrently. The registry's contract is relaxed atomics only
// — any lock, plain load, or shared non-atomic cell shows up here.
TEST(MetricsRegistryTest, ConcurrentRecordAndSnapshotIsClean) {
  MetricsRegistry reg;
  const CounterId c = reg.Counter("ops");
  const GaugeId g = reg.Gauge("level");
  const HistId h = reg.Hist("lat");
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kOpsPerShard = 50'000;
  reg.Activate(kShards);

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snap = reg.Snapshot();
      // Counters are monotone: concurrent snapshots may be torn across
      // cells but each cell never goes backward.
      EXPECT_GE(snap.counters[c], last);
      last = snap.counters[c];
    }
  });

  std::vector<std::thread> workers;
  for (uint32_t s = 0; s < kShards; ++s) {
    workers.emplace_back([&, s] {
      for (uint64_t i = 0; i < kOpsPerShard; ++i) {
        reg.Add(s, c);
        reg.Observe(s, h, i % 2048);
        if ((i & 1023) == 0) reg.Set(g, i);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  sampler.join();

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters[c], kShards * kOpsPerShard);
  EXPECT_EQ(snap.hist_counts[h], kShards * kOpsPerShard);
}

// --------------------------------------------------------------------------
// TelemetrySampler
// --------------------------------------------------------------------------

TEST(TelemetrySamplerTest, SlicesCarryPerIntervalDeltas) {
  MetricsRegistry reg;
  CoreMetrics core = RegisterCoreMetrics(&reg);
  reg.Activate(1);
  TelemetryConfig cfg;
  cfg.enabled = true;
  TelemetrySampler sampler(&reg, cfg);
  sampler.Reset(0);

  reg.Add(0, core.txns_committed, 5);
  reg.Observe(0, core.latency_us, 100);
  reg.Observe(0, core.latency_us, 200);
  sampler.Sample(100'000);
  reg.Add(0, core.txns_committed, 3);
  sampler.Sample(200'000);

  ASSERT_EQ(sampler.slices().size(), 2u);
  const Timeslice& s0 = sampler.slices()[0];
  const Timeslice& s1 = sampler.slices()[1];
  EXPECT_EQ(s0.start_us, 0u);
  EXPECT_EQ(s0.end_us, 100'000u);
  EXPECT_EQ(s0.counters[core.txns_committed], 5u);
  EXPECT_EQ(s0.hists[core.latency_us].count, 2u);
  EXPECT_EQ(s0.hists[core.latency_us].sum, 300u);
  // Second interval: only the delta, not the cumulative total.
  EXPECT_EQ(s1.counters[core.txns_committed], 3u);
  EXPECT_EQ(s1.hists[core.latency_us].count, 0u);
}

TEST(TelemetrySamplerTest, RingIsBoundedAndCountsDrops) {
  MetricsRegistry reg;
  reg.Counter("c");
  reg.Activate(1);
  TelemetryConfig cfg;
  cfg.enabled = true;
  TelemetrySampler sampler(&reg, cfg);
  sampler.Reset(0);
  const Micros samples = TelemetrySampler::kMaxSlices + 3;
  for (Micros t = 1; t <= samples; ++t) sampler.Sample(t * 1000);
  EXPECT_EQ(sampler.slices().size(), TelemetrySampler::kMaxSlices);
  EXPECT_EQ(sampler.slices_dropped(), 3u);
  // The survivors are the newest slices.
  EXPECT_EQ(sampler.slices().front().end_us, 4000u);
  EXPECT_EQ(sampler.slices().back().end_us, samples * 1000);
}

TEST(TelemetrySamplerTest, BucketPercentileMatchesHistogram) {
  Histogram hist;
  std::vector<uint64_t> buckets(Histogram::kNumBuckets, 0);
  uint64_t count = 0;
  for (uint64_t v = 1; v <= 10'000; v += 7) {
    hist.Record(v);
    buckets[Histogram::BucketFor(v)]++;
    count++;
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    // Histogram::Percentile refines ranks landing in the extreme buckets
    // to the exact recorded min/max; the raw-bucket path can only resolve
    // to the bucket's upper bound. Equal everywhere else.
    const uint64_t from_buckets =
        TelemetrySampler::BucketPercentile(buckets, count, q);
    const uint64_t from_hist = hist.Percentile(q);
    EXPECT_GE(from_buckets, from_hist) << "q=" << q;
    EXPECT_LE(from_buckets,
              Histogram::BucketUpperBound(Histogram::BucketFor(from_hist)))
        << "q=" << q;
  }
}

// --------------------------------------------------------------------------
// Simulator integration: determinism and export formats
// --------------------------------------------------------------------------

std::string RunSimTelemetry(uint64_t seed, std::string* prom_out = nullptr) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.seed = seed;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_interval_us = 50'000;
  YcsbConfig ycsb;
  ycsb.num_partitions = cfg.num_nodes;
  ycsb.rows_per_partition = 1024;
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.RunFor(0.3);
  cluster.StopTelemetry();
  std::ostringstream out;
  cluster.telemetry()->WriteTimeseriesJsonl("obs_test", out);
  if (prom_out != nullptr) {
    std::ostringstream prom;
    cluster.telemetry()->WritePrometheusText(prom);
    *prom_out = prom.str();
  }
  return out.str();
}

TEST(SimTelemetryTest, TwoIdenticalRunsExportByteIdenticalSeries) {
  const std::string a = RunSimTelemetry(99);
  const std::string b = RunSimTelemetry(99);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // Virtual-time sampling: 0.3s at 50ms → ~6 full slices plus the final
  // one StopTelemetry closes, after the meta line.
  EXPECT_GE(std::count(a.begin(), a.end(), '\n'), 7);
  EXPECT_NE(a.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(a.find("txns_committed"), std::string::npos);
  EXPECT_NE(a.find("latency_us"), std::string::npos);
}

TEST(SimTelemetryTest, PrometheusExpositionListsCoreMetrics) {
  std::string prom;
  RunSimTelemetry(7, &prom);
  EXPECT_NE(prom.find("# TYPE ecdb_txns_committed counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE ecdb_net_messages_sent gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("ecdb_latency_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("ecdb_latency_us_count"), std::string::npos);
}

TEST(SimTelemetryTest, CommittedCounterSumMatchesClusterStats) {
  ClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.seed = 5;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_interval_us = 50'000;
  YcsbConfig ycsb;
  ycsb.num_partitions = cfg.num_nodes;
  ycsb.rows_per_partition = 1024;
  SimCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
  cluster.Start();
  cluster.BeginMeasurement();
  cluster.RunFor(0.3);
  cluster.StopTelemetry();
  const ClusterStats stats = cluster.CollectStats(0.3);
  uint64_t committed_in_slices = 0;
  const CounterId committed_id = 0;  // txns_committed registers first
  for (const Timeslice& s : cluster.telemetry()->slices()) {
    committed_in_slices += s.counters[committed_id];
  }
  EXPECT_EQ(committed_in_slices, stats.total.txns_committed);
  EXPECT_GT(committed_in_slices, 0u);
}


// --------------------------------------------------------------------------
// Critical-path analyzer
// --------------------------------------------------------------------------

// Synthetic truncation: a recv whose matching send was overwritten in the
// ring must flag the span, never mis-attribute it.
TEST(CriticalPathTest, MissingSendMarksSpanTruncated) {
  ParsedTrace trace;
  trace.meta.runtime = "synthetic";
  trace.meta.protocol = "EC";
  trace.meta.num_nodes = 2;
  trace.meta.dropped = {4, 0};
  const TxnId txn = MakeTxnId(0, 1);
  TraceEvent recv;
  recv.type = TraceEventType::kMsgRecv;
  recv.at = 50;
  recv.node = 1;
  recv.peer = 0;
  recv.arg = 99;  // sender seq that never appears as a kMsgSend
  recv.txn = txn;
  TraceEvent apply;
  apply.type = TraceEventType::kDecisionApply;
  apply.at = 70;
  apply.node = 1;
  apply.txn = txn;
  trace.events = {recv, apply};

  const CriticalPathReport report = AnalyzeCriticalPaths(trace);
  ASSERT_EQ(report.txns_analyzed, 1u);
  EXPECT_EQ(report.txns_complete, 0u);
  EXPECT_EQ(report.txns_truncated, 1u);
  EXPECT_EQ(report.trace_events_dropped, 4u);
  const std::string text = FormatCriticalPathReport(report);
  EXPECT_NE(text.find("truncated"), std::string::npos);
}

TEST(CriticalPathTest, ChainsRecvToSendAcrossNodes) {
  ParsedTrace trace;
  trace.meta.num_nodes = 2;
  const TxnId txn = MakeTxnId(0, 1);
  TraceEvent start;
  start.type = TraceEventType::kTxnState;
  start.at = 0;
  start.node = 0;
  start.txn = txn;
  TraceEvent send;
  send.type = TraceEventType::kMsgSend;
  send.at = 10;
  send.node = 0;
  send.peer = 1;
  send.arg = 1;  // seq
  send.txn = txn;
  TraceEvent recv;
  recv.type = TraceEventType::kMsgRecv;
  recv.at = 35;
  recv.node = 1;
  recv.peer = 0;
  recv.arg = 1;  // matches send's (sender, seq)
  recv.txn = txn;
  TraceEvent apply;
  apply.type = TraceEventType::kDecisionApply;
  apply.at = 40;
  apply.node = 1;
  apply.txn = txn;
  trace.events = {start, send, recv, apply};

  const CriticalPathReport report = AnalyzeCriticalPaths(trace);
  ASSERT_EQ(report.txns_analyzed, 1u);
  EXPECT_EQ(report.txns_complete, 1u);
  ASSERT_EQ(report.txns.size(), 1u);
  const TxnCriticalPath& path = report.txns[0];
  EXPECT_EQ(path.total_us, 40u);
  // start→send (10) + send→recv network hop (25) + recv→apply (5).
  EXPECT_EQ(path.attributed_us, 40u);
  ASSERT_EQ(path.edges.size(), 3u);
  EXPECT_EQ(path.edges[1].category, "network");
  EXPECT_EQ(path.edges[1].duration_us, 25u);
  EXPECT_GT(report.by_category.count("network"), 0u);
}

// Pinned golden: a traced EC commit on the 3-node protocol testbed must
// attribute ≥95% of end-to-end latency, with the EasyCommit TRANSMIT step
// reported separately from the decision apply.
TEST(CriticalPathTest, TestbedEcGoldenAttributesNinetyFivePercent) {
  testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, 3);
  bed.EnableTracing(1 << 10);
  const TxnId txn = bed.StartAll();
  bed.Settle();
  ASSERT_TRUE(bed.AllActiveDecided(txn));

  TraceMeta meta;
  meta.runtime = "testbed";
  meta.protocol = ToString(CommitProtocol::kEasyCommit);
  meta.num_nodes = 3;
  std::ostringstream jsonl;
  WriteJsonl(meta, CollectEvents(bed.recorders()), jsonl);
  std::istringstream in(jsonl.str());
  ParsedTrace parsed;
  std::string error;
  ASSERT_TRUE(ReadJsonlTrace(in, &parsed, &error)) << error;

  const CriticalPathReport report = AnalyzeCriticalPaths(parsed);
  ASSERT_GE(report.txns_analyzed, 1u);
  EXPECT_EQ(report.txns_truncated, 0u);
  EXPECT_GE(report.Coverage(), 0.95);
  // The hidden TRANSMIT step is its own attribution bucket, split from
  // the apply (execution) edges. It shows up as the GlobalCommit send
  // edge: the engine records the kDecisionTransmit marker after the
  // sends, so the backward walk lands on the sends themselves.
  EXPECT_GT(report.by_label.count("send:GlobalCommit"), 0u);
  EXPECT_GT(report.by_category.count("transmit"), 0u);
  bool saw_network = false;
  for (const auto& [label, agg] : report.by_label) {
    if (label.rfind("net:", 0) == 0 && agg.count > 0) saw_network = true;
  }
  EXPECT_TRUE(saw_network);
  const std::string text = FormatCriticalPathReport(report);
  EXPECT_NE(text.find("attributed"), std::string::npos);
  EXPECT_NE(text.find("transmit"), std::string::npos);
}

}  // namespace
}  // namespace ecdb
