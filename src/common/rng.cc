#include "common/rng.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <mutex>
#include <vector>

#include "common/logging.h"

namespace ecdb {

namespace {

// SplitMix64, used only to expand the seed into xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

uint64_t Rng::NextInRange(uint64_t lo, uint64_t hi) {
  assert(lo <= hi);
  return lo + NextBounded(hi - lo + 1);
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Rng Rng::Fork() { return Rng(Next()); }

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  ECDB_CHECK(n > 0);
  ECDB_CHECK(theta >= 0.0 && theta < 1.0);
  alpha_ = 1.0 / (1.0 - theta_);
  zetan_ = SharedZeta(n_, theta_);
  const double zeta2 = Zeta(2, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
  half_pow_theta_ = std::pow(0.5, theta_);
}

double ZipfianGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

double ZipfianGenerator::SharedZeta(uint64_t n, double theta) {
  struct Entry {
    uint64_t n;
    uint64_t theta_bits;
    double zetan;
  };
  // A process sees a handful of shapes (one per sweep point), so a scan
  // is enough. The first constructor of a shape sums under the lock, and
  // concurrent constructors of any shape wait for it.
  static std::mutex mu;
  static std::vector<Entry> table;
  const uint64_t theta_bits = std::bit_cast<uint64_t>(theta);
  std::lock_guard<std::mutex> lock(mu);
  for (const Entry& e : table) {
    if (e.n == n && e.theta_bits == theta_bits) return e.zetan;
  }
  const double zetan = Zeta(n, theta);
  table.push_back({n, theta_bits, zetan});
  return zetan;
}

uint64_t ZipfianGenerator::Next(Rng& rng) const {
  // Gray et al. "Quickly generating billion-record synthetic databases".
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  const double v =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t item = static_cast<uint64_t>(v);
  if (item >= n_) item = n_ - 1;
  return item;
}

}  // namespace ecdb
