#ifndef ECDB_OBS_METRICS_REGISTRY_H_
#define ECDB_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "commit/commit_env.h"
#include "common/histogram.h"
#include "common/types.h"
#include "stats/metrics.h"

namespace ecdb {

/// Runtime knob for the time-series sampler. The metrics registry itself
/// is always on; `enabled` only starts the periodic sampler that turns it
/// into timeslices (e.g. `chaos_run --metrics-out`,
/// `socket_cluster --telemetry-dir`).
struct TelemetryConfig {
  bool enabled = false;

  /// Sampling period. On the simulator this is virtual time (the sampler
  /// is a scheduler event chain, byte-deterministic); on the threaded
  /// runtime it is wall time on a dedicated sampler thread.
  Micros sample_interval_us = 100'000;
};

/// Typed metric handles. Separate id spaces per kind so the record path
/// indexes a flat array with no kind dispatch.
using CounterId = uint32_t;
using GaugeId = uint32_t;
using HistId = uint32_t;

/// One cumulative view of every metric, aggregated over shards. Histogram
/// state is raw geometric bucket counts (Histogram::BucketFor geometry) so
/// the sampler can difference consecutive snapshots into per-interval
/// distributions; min/max are the extremes since Activate or the last
/// ResetExtremes (0 while a histogram is empty).
struct MetricsSnapshot {
  std::vector<uint64_t> counters;
  std::vector<uint64_t> gauges;
  std::vector<std::vector<uint64_t>> hist_buckets;  // [hist][bucket]
  std::vector<uint64_t> hist_counts;
  std::vector<uint64_t> hist_sums;
  std::vector<uint64_t> hist_mins;
  std::vector<uint64_t> hist_maxes;

  /// What was recorded since `base`, an earlier snapshot of the same
  /// registry (an empty snapshot reads as all zeros): counters and
  /// histogram cells differenced, gauges and extremes as of this snapshot.
  MetricsSnapshot Since(const MetricsSnapshot& base) const;

  /// Histogram `id` as a Histogram.
  Histogram Hist(HistId id) const {
    return Histogram::FromBuckets(hist_buckets[id], hist_sums[id],
                                  hist_mins[id], hist_maxes[id]);
  }
};

/// A registry of typed counters/gauges/histograms with an allocation-free,
/// per-worker-sharded record path.
///
/// Concurrency model: registration (Counter/Gauge/Hist) and Activate happen
/// single-threaded at setup time. Recording is then wait-free and
/// TSan-clean. Each Add/Observe is a relaxed load plus a relaxed store on
/// the caller's shard — not a locked read-modify-write — which is correct
/// only because every shard has exactly one writing thread: the simulator
/// records on one thread into shard 0, a ThreadCluster worker and the nodes
/// it hosts record into the worker's shard, and a socket node process runs
/// its node and worker on one thread. Shard count is per *worker*, not per
/// node, so memory stays flat at 10^4-node simulations. Gauges are global;
/// Set is a plain store, so any thread may set them. Snapshot() may run
/// concurrently with recording (the sampler thread does); its relaxed
/// loads see a slightly torn-in-time but per-cell-consistent view.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (setup time, single-threaded) ---

  CounterId Counter(std::string name) {
    counter_names_.push_back(std::move(name));
    return static_cast<CounterId>(counter_names_.size() - 1);
  }
  GaugeId Gauge(std::string name) {
    gauge_names_.push_back(std::move(name));
    return static_cast<GaugeId>(gauge_names_.size() - 1);
  }
  HistId Hist(std::string name) {
    hist_names_.push_back(std::move(name));
    return static_cast<HistId>(hist_names_.size() - 1);
  }

  /// Allocates per-shard storage for everything registered so far. Call
  /// once, after registration, before anything records.
  void Activate(uint32_t shards);

  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  const std::vector<std::string>& gauge_names() const { return gauge_names_; }
  const std::vector<std::string>& hist_names() const { return hist_names_; }

  /// True once Activate ran.
  bool enabled() const { return num_shards_ != 0; }

  /// Record paths: relaxed atomics, no allocation, no branch on state.
  /// `shard` must be below the Activate count and owned by the calling
  /// thread.
  void Add(uint32_t shard, CounterId id, uint64_t delta = 1) {
    Bump(shard_counters_[shard * counter_stride_ + id], delta);
  }
  void Set(GaugeId id, uint64_t value) {
    gauges_[id].store(value, std::memory_order_relaxed);
  }
  void Observe(uint32_t shard, HistId id, uint64_t value) {
    HistShard& h = hist_shards_[shard * hist_names_.size() + id];
    Bump(h.buckets[Histogram::BucketFor(value)], 1);
    Bump(h.count, 1);
    Bump(h.sum, value);
    if (value < h.min.load(std::memory_order_relaxed)) {
      h.min.store(value, std::memory_order_relaxed);
    }
    if (value > h.max.load(std::memory_order_relaxed)) {
      h.max.store(value, std::memory_order_relaxed);
    }
  }

  /// One shard's value of counter `id` (a worker reading its own shard).
  uint64_t Value(uint32_t shard, CounterId id) const {
    return shard_counters_[shard * counter_stride_ + id].load(
        std::memory_order_relaxed);
  }

  /// Restarts every histogram's min/max: a measurement window's extremes
  /// cannot be differenced out of cumulative state. Call only while no
  /// other thread records.
  void ResetExtremes();

  /// Aggregates all shards into one cumulative snapshot. Safe to call
  /// concurrently with recording (relaxed reads).
  MetricsSnapshot Snapshot() const;

 private:
  /// Per-(shard, histogram) storage: geometric buckets in Histogram's
  /// bucket geometry plus running count/sum/extremes. ~4 KiB per histogram
  /// per shard; shard count is the worker count, so this stays small.
  /// Line-aligned, so no two shards' cells share a cache line.
  struct alignas(64) HistShard {
    std::array<std::atomic<uint64_t>, Histogram::kNumBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };

  /// Single-writer increment (see the class comment).
  static void Bump(std::atomic<uint64_t>& cell, uint64_t delta) {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  uint32_t num_shards_ = 0;
  // Cells per shard: the counter count rounded up to a whole cache line.
  size_t counter_stride_ = 0;
  std::vector<std::atomic<uint64_t>> counter_cells_;
  // The first line-aligned cell of counter_cells_; shard s starts at
  // s * counter_stride_.
  std::atomic<uint64_t>* shard_counters_ = nullptr;
  std::vector<std::atomic<uint64_t>> gauges_;
  std::vector<HistShard> hist_shards_;
};

/// The metric set every host registers, so the sampler's export schema is
/// identical across the simulator and the threaded runtime. Counters and
/// histograms are recorded once, at the event, on the hot paths (sharded
/// per worker); gauges are polled cumulatively from single-writer sources
/// (network stats, trace-ring drops) by the host's gauge poll, which the
/// sampler runs just before each snapshot and CollectStats before its
/// read. Instruments a host has no source for read zero: the Figure-12
/// category times off the simulator, the worker-loop counters and WAL
/// flushes on it.
struct CoreMetrics {
  CounterId txns_committed = 0;
  CounterId txns_aborted = 0;        // aborted attempts (may retry)
  CounterId open_loop_offered = 0;
  CounterId open_loop_rejected = 0;
  CounterId open_loop_aborted = 0;   // terminal aborts
  CounterId wal_appends = 0;
  CounterId wal_flushes = 0;         // group flushes that covered records
  CounterId worker_iterations = 0;   // threaded runtime event-loop turns
  CounterId worker_mailbox_msgs = 0;
  CounterId worker_local_msgs = 0;
  CounterId worker_timers_fired = 0;
  CounterId txns_blocked = 0;
  CounterId commit_protocol_runs = 0;
  /// Simulated worker microseconds per Figure-12 category (TimeCategory
  /// order). Idle is never recorded: it is the capacity no job used.
  std::array<CounterId, kNumTimeCategories> time_us{};
  /// Commit-engine protocol events (ProtocolEvent order).
  std::array<CounterId, kNumProtocolEvents> protocol_events{};

  GaugeId net_messages_sent = 0;
  GaugeId net_messages_delivered = 0;
  GaugeId net_messages_dropped = 0;
  GaugeId net_bytes_sent = 0;
  GaugeId net_frames_sent = 0;
  GaugeId net_messages_coalesced = 0;
  GaugeId net_messages_from_crashed = 0;
  GaugeId net_messages_to_crashed = 0;
  GaugeId trace_events_dropped = 0;  // trace ring overwrites
  GaugeId clients_in_flight = 0;

  HistId latency_us = 0;       // end-to-end committed-txn latency
  HistId wal_flush_us = 0;     // device round-trip per group flush
  /// Commit-protocol phase latencies (see CommitPhase).
  HistId phase_vote_us = 0;
  HistId phase_transmit_us = 0;
  HistId phase_apply_us = 0;
};

/// Registers the CoreMetrics set in declaration order (stable export
/// schema) and returns the handles.
CoreMetrics RegisterCoreMetrics(MetricsRegistry* registry);

/// The stats view of `window` (a snapshot, or a snapshot difference, of a
/// registry holding `ids`): every ClusterStats field but the window
/// length, the node and worker counts, and the simulator's idle time,
/// which are the host's to fill.
ClusterStats CoreStats(const MetricsSnapshot& window, const CoreMetrics& ids);

/// Pointer-plus-shard handle a node or worker records through. Every host
/// binds one when it builds the node or worker, so record sites call it
/// unconditionally.
struct MetricsHandle {
  MetricsRegistry* registry = nullptr;
  const CoreMetrics* ids = nullptr;
  uint32_t shard = 0;

  /// True when bound to an activated registry.
  bool on() const { return registry != nullptr && registry->enabled(); }

  void Add(CounterId id, uint64_t delta = 1) const {
    registry->Add(shard, id, delta);
  }
  void Observe(HistId id, uint64_t value) const {
    registry->Observe(shard, id, value);
  }
};

}  // namespace ecdb

#endif  // ECDB_OBS_METRICS_REGISTRY_H_
