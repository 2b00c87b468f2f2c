// Unit tests for common utilities: Status/Result, Rng, Zipfian, Histogram.

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace ecdb {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  const Status s = Status::Conflict("lock held");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsConflict());
  EXPECT_EQ(s.code(), Code::kConflict);
  EXPECT_EQ(s.message(), "lock held");
  EXPECT_EQ(s.ToString(), "Conflict: lock held");
}

TEST(StatusTest, PredicatesAreExclusive) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_FALSE(Status::NotFound().IsConflict());
  EXPECT_TRUE(Status::Blocked().IsBlocked());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
}

TEST(StatusTest, ToStringWithoutMessage) {
  EXPECT_EQ(Status::IOError().ToString(), "IOError");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(TypesTest, TxnIdRoundTrips) {
  const TxnId txn = MakeTxnId(37, 123456789);
  EXPECT_EQ(TxnCoordinator(txn), 37u);
  EXPECT_EQ(TxnSequence(txn), 123456789u);
}

TEST(TypesTest, TxnIdsAreDistinctAcrossCoordinators) {
  EXPECT_NE(MakeTxnId(1, 7), MakeTxnId(2, 7));
  EXPECT_NE(MakeTxnId(1, 7), MakeTxnId(1, 8));
}

TEST(TypesTest, ProtocolNames) {
  EXPECT_EQ(ToString(CommitProtocol::kTwoPhase), "2PC");
  EXPECT_EQ(ToString(CommitProtocol::kThreePhase), "3PC");
  EXPECT_EQ(ToString(CommitProtocol::kEasyCommit), "EC");
  EXPECT_EQ(ToString(CommitProtocol::kEasyCommitNoForward), "EC-noforward");
  EXPECT_EQ(ToString(Decision::kCommit), "commit");
  EXPECT_EQ(ToString(Decision::kAbort), "abort");
}

TEST(TypesTest, ParseProtocolRoundTripsEveryName) {
  constexpr CommitProtocol kAll[] = {
      CommitProtocol::kTwoPhase,
      CommitProtocol::kThreePhase,
      CommitProtocol::kEasyCommit,
      CommitProtocol::kEasyCommitNoForward,
      CommitProtocol::kTwoPhasePresumedAbort,
      CommitProtocol::kTwoPhasePresumedCommit,
      CommitProtocol::kThreePhaseE3PC,
      CommitProtocol::kPaxosCommit,
  };
  for (const CommitProtocol p : kAll) {
    EXPECT_EQ(ParseProtocol(ToString(p)), p) << ToString(p);
  }
  const struct {
    const char* name;
    CommitProtocol protocol;
  } kAliases[] = {
      {"ec", CommitProtocol::kEasyCommit},
      {"EasyCommit", CommitProtocol::kEasyCommit},
      {"ecnf", CommitProtocol::kEasyCommitNoForward},
      {"ec-noforward", CommitProtocol::kEasyCommitNoForward},
      {"ECnoForward", CommitProtocol::kEasyCommitNoForward},
      {"2pc-pa", CommitProtocol::kTwoPhasePresumedAbort},
      {"2pc-PC", CommitProtocol::kTwoPhasePresumedCommit},
      {"e3pc", CommitProtocol::kThreePhaseE3PC},
      {"paxos", CommitProtocol::kPaxosCommit},
      {"Paxos-Commit", CommitProtocol::kPaxosCommit},
      {"paxoscommit", CommitProtocol::kPaxosCommit},
  };
  for (const auto& alias : kAliases) {
    EXPECT_EQ(ParseProtocol(alias.name), alias.protocol) << alias.name;
  }
  for (const char* unknown : {"", "4pc", "ec-", "paxos commit"}) {
    EXPECT_EQ(ParseProtocol(unknown), std::nullopt) << unknown;
  }
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(6);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) seen[rng.NextBounded(8)]++;
  for (int v : seen) EXPECT_GT(v, 800);  // roughly uniform
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.NextBernoulli(0.3)) hits++;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(10);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-1.0));
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng a(11);
  Rng child = a.Fork();
  // Child must not replay the parent's stream.
  Rng parent_copy(11);
  parent_copy.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.Next() == a.Next()) same++;
  }
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------------------
// Zipfian
// ---------------------------------------------------------------------------

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator zipf(1000, 0.9);
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 1000u);
}

TEST(ZipfianTest, LowThetaIsNearlyUniform) {
  ZipfianGenerator zipf(100, 0.01);
  Rng rng(13);
  std::vector<int> counts(100, 0);
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) counts[zipf.Next(rng)]++;
  // Hottest item should be close to 1% of samples.
  const int max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_LT(max_count, kSamples * 0.025);
}

TEST(ZipfianTest, HighThetaConcentratesOnHotKeys) {
  ZipfianGenerator zipf(100000, 0.9);
  Rng rng(14);
  int hot = 0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(rng) < 100) hot++;  // top 0.1% of keys
  }
  // With theta=0.9 the top 0.1% draws a large share of accesses.
  EXPECT_GT(hot, kSamples / 4);
}

TEST(ZipfianTest, SkewIncreasesWithTheta) {
  Rng rng(15);
  auto hot_fraction = [&](double theta) {
    ZipfianGenerator zipf(10000, theta);
    int hot = 0;
    for (int i = 0; i < 50000; ++i) {
      if (zipf.Next(rng) < 10) hot++;
    }
    return hot;
  };
  const int h1 = hot_fraction(0.1);
  const int h5 = hot_fraction(0.5);
  const int h9 = hot_fraction(0.9);
  EXPECT_LT(h1, h5);
  EXPECT_LT(h5, h9);
}

TEST(ZipfianTest, ItemZeroIsHottest) {
  ZipfianGenerator zipf(1000, 0.8);
  Rng rng(16);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(rng)]++;
  const int max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(counts[0], max_count);
}

// The YCSB shapes the benchmark runs (65,536 and 16,384 rows at theta 0.6)
// and a few others, including two whose thetas differ only in the last bit
// (their sums differ too, so a table keyed more coarsely would mix them).
const std::pair<uint64_t, double> kZipfShapes[] = {
    {65536, 0.6}, {16384, 0.6},  {1024, 0.5},
    {1000, 0.9},  {1000, 0.01},  {1000, std::nextafter(0.9, 1.0)},
};

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

TEST(ZipfianTest, SharedConstantsMatchDirectSum) {
  for (const auto& [n, theta] : kZipfShapes) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " theta=" << theta);
    const uint64_t direct = Bits(ZipfianGenerator::Zeta(n, theta));
    const ZipfianGenerator first(n, theta);
    const ZipfianGenerator again(n, theta);  // a shared-table hit
    EXPECT_EQ(Bits(first.zetan()), direct);
    EXPECT_EQ(Bits(again.zetan()), direct);
    Rng a(42), b(42);
    for (int i = 0; i < 10000; ++i) ASSERT_EQ(first.Next(a), again.Next(b));
  }
}

TEST(ZipfianTest, ConcurrentConstructionAgrees) {
  constexpr int kThreads = 4;
  constexpr size_t kShapes = std::size(kZipfShapes);
  std::vector<std::vector<uint64_t>> seen(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&seen, t] {
        // Each thread walks the shapes from a different start, so first
        // constructions of one shape race with hits on another.
        seen[t].resize(kShapes);
        for (size_t k = 0; k < kShapes; ++k) {
          const size_t s = (k + static_cast<size_t>(t)) % kShapes;
          const auto& [n, theta] = kZipfShapes[s];
          seen[t][s] = Bits(ZipfianGenerator(n, theta).zetan());
        }
      });
    }
  }
  for (size_t s = 0; s < kShapes; ++s) {
    const auto& [n, theta] = kZipfShapes[s];
    const uint64_t direct = Bits(ZipfianGenerator::Zeta(n, theta));
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t][s], direct);
  }
}

TEST(ZipfianDeathTest, ZeroItemsIsRejected) {
  EXPECT_DEATH(ZipfianGenerator(0, 0.6), "CHECK failed");
}

TEST(ZipfianDeathTest, ThetaOutsideUnitIntervalIsRejected) {
  EXPECT_DEATH(ZipfianGenerator(1000, 1.0), "CHECK failed");
  EXPECT_DEATH(ZipfianGenerator(1000, -0.1), "CHECK failed");
  EXPECT_DEATH(ZipfianGenerator(1000, std::nan("")), "CHECK failed");
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 64; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.Percentile(0.5), 31u);
  EXPECT_EQ(h.Percentile(1.0), 63u);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(HistogramTest, LargeValueRelativeErrorIsBounded) {
  Histogram h;
  const uint64_t value = 123456789;
  h.Record(value);
  const uint64_t p = h.Percentile(0.5);
  EXPECT_GE(p, value);  // upper bound of the bucket, capped at max
  EXPECT_LE(p, value + value / 10);
}

TEST(HistogramTest, PercentileOrdering) {
  Histogram h;
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) h.Record(rng.NextBounded(1'000'000));
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.9));
  EXPECT_LE(h.Percentile(0.9), h.Percentile(0.99));
  EXPECT_LE(h.Percentile(0.99), h.max());
}

TEST(HistogramTest, PercentileApproximatesUniform) {
  Histogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  const uint64_t p50 = h.Percentile(0.5);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 5000.0);
  const uint64_t p99 = h.Percentile(0.99);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 5000.0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Record(5);
  b.Record(500);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
}

TEST(HistogramTest, MergeIntoEmpty) {
  Histogram a, b;
  b.Record(7);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7u);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Record(123);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
}

TEST(HistogramTest, QuantileClamping) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.Percentile(-1.0), 42u);
  EXPECT_EQ(h.Percentile(2.0), 42u);
}

}  // namespace
}  // namespace ecdb
