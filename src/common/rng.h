#ifndef ECDB_COMMON_RNG_H_
#define ECDB_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace ecdb {

/// Deterministic 64-bit PRNG (xoshiro256**). Every stochastic component of
/// the platform (network jitter, workload generators, client think times)
/// draws from an explicitly seeded `Rng` so runs are reproducible; nothing
/// uses `std::random_device` or global random state.
class Rng {
 public:
  /// Seeds the generator. Two `Rng`s with the same seed produce identical
  /// streams on every platform.
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform value in [0, bound). `bound` must be nonzero. Uses rejection
  /// sampling, so the distribution is exactly uniform.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform value in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Derives an independent child generator; convenient for handing each
  /// component its own stream while keeping a single root seed.
  Rng Fork();

 private:
  uint64_t state_[4];
};

/// Zipfian-distributed key generator over [0, n), as used by YCSB. The skew
/// parameter `theta` follows the YCSB convention: theta near 0 is uniform
/// and theta 0.9 is extremely skewed (the paper sweeps 0.1 .. 0.9). Uses the
/// Gray et al. rejection-free method with precomputed zeta constants.
///
/// zeta(n, theta) costs one `pow` per item, and every generator of one shape
/// needs the same value, so the constructor computes it once per
/// (n, theta bit pattern) per process and shares the stored sum: a generator
/// draws the same keys whether its shape was seen before or not.
/// Construction is thread-safe.
class ZipfianGenerator {
 public:
  /// Prepares a generator over `n` > 0 items with skew `theta` in [0, 1);
  /// aborts on any other shape.
  ZipfianGenerator(uint64_t n, double theta);

  /// Draws the next item in [0, n). Item 0 is the hottest.
  uint64_t Next(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  double zetan() const { return zetan_; }

  /// zeta(n, theta) = sum over i in [1, n] of 1 / i^theta, summed in order
  /// of i; computed afresh on every call.
  static double Zeta(uint64_t n, double theta);

 private:
  /// Zeta(n, theta), computed on the first call for this shape in the
  /// process and returned from a shared table afterwards.
  static double SharedZeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double half_pow_theta_;  // pow(0.5, theta), hoisted off the Next hot path
};

}  // namespace ecdb

#endif  // ECDB_COMMON_RNG_H_
