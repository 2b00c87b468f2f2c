#include "workload/open_loop.h"

#include <algorithm>
#include <cmath>

namespace ecdb {

ArrivalSchedule::ArrivalSchedule(const OpenLoopConfig& config, uint64_t seed)
    : mean_gap_us_(config.arrivals_per_sec_per_node > 0.0
                       ? 1e6 / config.arrivals_per_sec_per_node
                       : 1e12),
      rng_(seed) {}

Micros ArrivalSchedule::NextGapUs() {
  // Exponential inter-arrival. 1 - U is in (0, 1], so the log is finite.
  double gap = -std::log(1.0 - rng_.NextDouble()) * mean_gap_us_;
  // Quantize to integer microseconds, carrying the fraction so the
  // long-run rate is exact (flooring alone would shorten every gap by
  // half a microsecond on average).
  gap += carry_;
  double whole = std::floor(gap);
  carry_ = gap - whole;
  const double clamped = std::clamp(whole, 1.0, 9e15);
  return static_cast<Micros>(clamped);
}

}  // namespace ecdb
