// Tests for the metrics / time-breakdown accounting.

#include "stats/metrics.h"

#include <gtest/gtest.h>

namespace ecdb {
namespace {

TEST(TimeCategoryTest, PaperLabels) {
  EXPECT_EQ(ToString(TimeCategory::kUsefulWork), "Useful Work");
  EXPECT_EQ(ToString(TimeCategory::kTxnManager), "Txn Manager");
  EXPECT_EQ(ToString(TimeCategory::kIndex), "Index");
  EXPECT_EQ(ToString(TimeCategory::kAbort), "Abort");
  EXPECT_EQ(ToString(TimeCategory::kIdle), "Idle");
  EXPECT_EQ(ToString(TimeCategory::kCommit), "Commit");
  EXPECT_EQ(ToString(TimeCategory::kOverhead), "Overhead");
}

TEST(NodeStatsTest, AddAndReadTime) {
  NodeStats stats;
  stats.AddTime(TimeCategory::kCommit, 100);
  stats.AddTime(TimeCategory::kCommit, 50);
  EXPECT_EQ(stats.TimeIn(TimeCategory::kCommit), 150u);
  EXPECT_EQ(stats.TimeIn(TimeCategory::kAbort), 0u);
}

TEST(HistogramTest, MergeEmptyIntoEmpty) {
  Histogram a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_DOUBLE_EQ(a.Mean(), 0.0);
  EXPECT_EQ(a.Percentile(0.5), 0u);
}

TEST(HistogramTest, MergeEmptyIntoNonEmptyKeepsBounds) {
  Histogram a, empty;
  a.Record(1000);
  a.Record(2000);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 1000u);
  EXPECT_EQ(a.max(), 2000u);
}

TEST(HistogramTest, MergeNonEmptyIntoEmptyAdoptsBounds) {
  Histogram empty, b;
  b.Record(1000);
  b.Record(2000);
  empty.Merge(b);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 1000u);
  EXPECT_EQ(empty.max(), 2000u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 1500.0);
}

TEST(HistogramTest, SingleSamplePercentilesAreExact) {
  Histogram h;
  h.Record(12345);
  EXPECT_EQ(h.Percentile(0.0), 12345u);
  EXPECT_EQ(h.Percentile(0.5), 12345u);
  EXPECT_EQ(h.Percentile(0.99), 12345u);
  EXPECT_EQ(h.Percentile(1.0), 12345u);
}

TEST(HistogramTest, PercentileZeroIsMin) {
  // Regression: rank used to round down to 0 at q=0, returning the first
  // non-empty bucket's *upper* bound (1023 for a sample of 1000) rather
  // than the tracked minimum.
  Histogram h;
  h.Record(1000);
  h.Record(2000);
  EXPECT_EQ(h.Percentile(0.0), 1000u);
  EXPECT_EQ(h.Percentile(1.0), 2000u);
}

TEST(ClusterStatsTest, Throughput) {
  ClusterStats stats;
  stats.total.txns_committed = 5000;
  stats.duration_seconds = 2.0;
  EXPECT_DOUBLE_EQ(stats.Throughput(), 2500.0);
}

TEST(ClusterStatsTest, ThroughputWithZeroDuration) {
  ClusterStats stats;
  stats.total.txns_committed = 5;
  EXPECT_DOUBLE_EQ(stats.Throughput(), 0.0);
}

TEST(ClusterStatsTest, AbortRate) {
  ClusterStats stats;
  stats.total.txns_committed = 100;
  stats.total.txns_aborted = 25;
  EXPECT_DOUBLE_EQ(stats.AbortRate(), 0.25);
  ClusterStats empty;
  EXPECT_DOUBLE_EQ(empty.AbortRate(), 0.0);
}

TEST(ClusterStatsTest, TimeFractionsSumToOne) {
  ClusterStats stats;
  stats.total.AddTime(TimeCategory::kUsefulWork, 30);
  stats.total.AddTime(TimeCategory::kCommit, 50);
  stats.total.AddTime(TimeCategory::kIdle, 20);
  double sum = 0;
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    sum += stats.TimeFraction(static_cast<TimeCategory>(i));
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.TimeFraction(TimeCategory::kCommit), 0.5);
}

TEST(ClusterStatsTest, TimeFractionOfEmptyIsZero) {
  ClusterStats stats;
  EXPECT_DOUBLE_EQ(stats.TimeFraction(TimeCategory::kIdle), 0.0);
}

}  // namespace
}  // namespace ecdb
