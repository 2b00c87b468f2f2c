#ifndef ECDB_WORKLOAD_OPEN_LOOP_H_
#define ECDB_WORKLOAD_OPEN_LOOP_H_

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace ecdb {

/// Open-loop client model: transactions arrive at a configured rate per
/// node, independent of completions — the load the ROADMAP north-star
/// ("heavy traffic from millions of users") actually sees, as opposed to
/// the closed loop where each client waits for its previous transaction.
/// Under overload the open loop exposes queueing collapse (p99 blows up,
/// committed rate plateaus below offered rate) that a closed loop
/// structurally cannot show.
struct OpenLoopConfig {
  /// Off: clients run the classic closed loop.
  bool enabled = false;

  /// Mean arrival rate per server node, in transactions per second;
  /// arrivals are a Poisson process (exponential gaps).
  double arrivals_per_sec_per_node = 1000.0;

  /// Admission control: arrivals beyond this many in-flight transactions
  /// on a node are rejected (counted, not queued) — per-client
  /// backpressure, so an overloaded node sheds load instead of growing an
  /// unbounded queue.
  uint32_t max_in_flight_per_node = 256;

  /// An admitted transaction that keeps aborting is retried (with the
  /// usual backoff) at most this many times, then terminally aborted.
  /// Bounded retries keep the conservation law exact at drain time:
  /// offered == committed + terminally aborted + rejected.
  uint32_t max_attempts = 8;
};

/// Deterministic per-seed arrival-gap generator. Each node owns one,
/// seeded from the cluster seed stream, so the full arrival schedule —
/// and with it the whole simulation — replays bit-identically for a given
/// (seed, rate).
class ArrivalSchedule {
 public:
  ArrivalSchedule(const OpenLoopConfig& config, uint64_t seed);

  /// Microseconds until the next arrival (>= 1, so arrival events always
  /// make progress).
  Micros NextGapUs();

 private:
  double mean_gap_us_;
  double carry_ = 0.0;  // fractional microseconds carried to the next gap
  Rng rng_;
};

}  // namespace ecdb

#endif  // ECDB_WORKLOAD_OPEN_LOOP_H_
