#include "common/histogram.h"

#include <algorithm>
#include <cmath>

namespace ecdb {

namespace {

// Buckets: 0..63 map 1:1; beyond that, geometric with ratio 2^(1/16)
// (16 sub-buckets per power of two), giving <= ~4.4% relative error.
constexpr size_t kLinearBuckets = 64;
constexpr int kSubBuckets = 16;

}  // namespace

Histogram::Histogram() = default;

void Histogram::EnsureBuckets() {
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
}

size_t Histogram::BucketFor(uint64_t value) {
  if (value < kLinearBuckets) return static_cast<size_t>(value);
  const int msb = 63 - __builtin_clzll(value);
  // Position within the power-of-two range, in sixteenths.
  const int shift = msb - 4 > 0 ? msb - 4 : 0;
  const int sub = static_cast<int>((value >> shift) & 0xF);
  const size_t idx = kLinearBuckets +
                     static_cast<size_t>(msb - 6) * kSubBuckets +
                     static_cast<size_t>(sub);
  return std::min(idx, kNumBuckets - 1);
}

uint64_t Histogram::BucketUpperBound(size_t bucket) {
  if (bucket < kLinearBuckets) return bucket;
  const size_t rel = bucket - kLinearBuckets;
  const int msb = static_cast<int>(rel / kSubBuckets) + 6;
  const int sub = static_cast<int>(rel % kSubBuckets);
  const int shift = msb - 4 > 0 ? msb - 4 : 0;
  const uint64_t base = (1ULL << msb) + (static_cast<uint64_t>(sub) << shift);
  const uint64_t width = 1ULL << shift;
  return base + width - 1;
}

void Histogram::Record(uint64_t value) {
  EnsureBuckets();
  buckets_[BucketFor(value)]++;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  sum_ += value;
  count_++;
}

void Histogram::Merge(const Histogram& other) {
  if (!other.buckets_.empty()) {
    EnsureBuckets();
    for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = min_ = max_ = 0;
}

double Histogram::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank, clamped to rank 1 so q=0 asks for the first sample
  // rather than rank 0 (which used to return the first non-empty bucket's
  // upper bound instead of the minimum).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  // Rank 1 is the smallest sample, which is tracked exactly; this also
  // makes every percentile of a single-sample histogram exact.
  if (rank <= 1) return min_;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank && buckets_[i] > 0) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

}  // namespace ecdb
