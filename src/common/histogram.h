#ifndef ECDB_COMMON_HISTOGRAM_H_
#define ECDB_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ecdb {

/// Fixed-memory log-bucketed histogram for latency-style measurements.
/// Values are bucketed geometrically (each bucket is ~4% wider than the
/// previous), so percentile queries are O(buckets) with bounded relative
/// error regardless of sample count. Used for the paper's 99-percentile
/// transaction latency plots (Figure 11).
class Histogram {
 public:
  Histogram();

  /// Records one sample (e.g. a latency in microseconds).
  void Record(uint64_t value);

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  /// Removes all samples.
  void Clear();

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }

  /// Arithmetic mean of recorded samples (0 when empty).
  double Mean() const;

  /// Value at quantile `q` in [0, 1], e.g. 0.99 for p99. Returns the upper
  /// bound of the bucket containing the quantile; 0 when empty.
  uint64_t Percentile(double q) const;

  /// Bucket geometry, exposed so external aggregators (the telemetry
  /// registry's sharded atomic histograms) can store raw bucket counts and
  /// still answer percentile queries in the same value space.
  static size_t BucketFor(uint64_t value);
  static uint64_t BucketUpperBound(size_t bucket);

  /// Sparse bucket export/import, for shipping a histogram across a process
  /// boundary (the socket runtime's per-node STATS reports): percentiles
  /// cannot be averaged, so each node serializes its non-zero (bucket,
  /// count) pairs and the supervisor re-assembles and Merges them.
  std::vector<std::pair<size_t, uint64_t>> NonZeroBuckets() const {
    std::vector<std::pair<size_t, uint64_t>> out;
    for (size_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b] != 0) out.emplace_back(b, buckets_[b]);
    }
    return out;
  }

  /// Adds `count` samples into `bucket` directly (inverse of
  /// NonZeroBuckets). Min/max are approximated by the bucket upper bound —
  /// adequate for the percentile queries the aggregators run.
  void AddBucket(size_t bucket, uint64_t count) {
    if (bucket >= kNumBuckets || count == 0) return;
    EnsureBuckets();
    buckets_[bucket] += count;
    const uint64_t v = BucketUpperBound(bucket);
    sum_ += v * count;
    if (count_ == 0 || v < min_) min_ = v;
    if (v > max_) max_ = v;
    count_ += count;
  }

  static constexpr size_t kNumBuckets = 512;

 private:
  void EnsureBuckets();

  // Allocated on the first sample: a node keeps several histograms, and
  // protocol-level test clusters build thousands of nodes that never
  // record into most of them.
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace ecdb

#endif  // ECDB_COMMON_HISTOGRAM_H_
