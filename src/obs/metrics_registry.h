#ifndef ECDB_OBS_METRICS_REGISTRY_H_
#define ECDB_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace ecdb {

/// Runtime knob for the time-series telemetry subsystem. Off by default:
/// benchmarks and tools opt in (e.g. `bench_open_loop --metrics-out`).
struct TelemetryConfig {
  bool enabled = false;

  /// Sampling period. On the simulator this is virtual time (the sampler
  /// is a scheduler event chain, byte-deterministic); on the threaded
  /// runtime it is wall time on a dedicated sampler thread.
  Micros sample_interval_us = 100'000;

  /// Bounded ring of timeslices: when more intervals elapse than this,
  /// the oldest slices are discarded and counted in slices_dropped().
  size_t max_slices = 4096;
};

/// Typed metric handles. Separate id spaces per kind so the record path
/// indexes a flat array with no kind dispatch.
using CounterId = uint32_t;
using GaugeId = uint32_t;
using HistId = uint32_t;

/// One cumulative view of every metric, aggregated over shards. Histogram
/// state is raw geometric bucket counts (Histogram::BucketFor geometry) so
/// the sampler can difference consecutive snapshots into per-interval
/// distributions.
struct MetricsSnapshot {
  std::vector<uint64_t> counters;
  std::vector<uint64_t> gauges;
  std::vector<std::vector<uint64_t>> hist_buckets;  // [hist][bucket]
  std::vector<uint64_t> hist_counts;
  std::vector<uint64_t> hist_sums;
};

/// A registry of typed counters/gauges/histograms with an allocation-free,
/// per-worker-sharded record path.
///
/// Concurrency model: registration (Counter/Gauge/Hist/SetShards) happens
/// single-threaded at setup time. Recording is then wait-free and
/// TSan-clean — each call is one relaxed atomic RMW on the caller's shard,
/// so worker threads never contend on a cache line as long as they use
/// distinct shard indices. Snapshot() may run concurrently with recording
/// (the sampler thread does); it reads with relaxed loads and therefore
/// observes a slightly torn-in-time but per-cell-consistent view, which is
/// exactly what a periodic sampler wants.
///
/// The simulator uses one shard (single-threaded); the threaded runtime
/// uses one shard per event-loop worker. Shard count is per *worker*, not
/// per node, so memory stays flat at 10^4-node simulations.
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

  /// Allocates per-shard storage for everything registered so far and
  /// turns recording on. Call once, after registration, before any worker
  /// records. Gauges are global (not sharded): Set overwrites.
  void Activate(uint32_t shards);

  const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  const std::vector<std::string>& gauge_names() const { return gauge_names_; }
  const std::vector<std::string>& hist_names() const { return hist_names_; }
  uint32_t shards() const { return num_shards_; }

  /// True once Activate ran; the record-path guard the hosts branch on.
  bool enabled() const { return enabled_; }

  /// Record paths: one enabled branch + one relaxed atomic op, no
  /// allocation. `shard` must be < shards().
  void Add(uint32_t shard, CounterId id, uint64_t delta = 1) {
    if (!enabled_) return;
    shard_counters_[shard * counter_stride_ + id].fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Set(GaugeId id, uint64_t value) {
    if (!enabled_) return;
    gauges_[id].store(value, std::memory_order_relaxed);
  }
  void Observe(uint32_t shard, HistId id, uint64_t value) {
    if (!enabled_) return;
    HistShard& h =
        hist_shards_[shard * static_cast<size_t>(hist_names_.size()) + id];
    h.buckets[Histogram::BucketFor(value)].fetch_add(
        1, std::memory_order_relaxed);
    h.count.fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Aggregates all shards into one cumulative snapshot. Safe to call
  /// concurrently with recording (relaxed reads).
  MetricsSnapshot Snapshot() const;

 private:
  /// Per-(shard, histogram) storage: geometric buckets in Histogram's
  /// bucket geometry plus running count/sum. ~4 KiB per histogram per
  /// shard; shard count is the worker count, so this stays small.
  struct HistShard {
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };

  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  uint32_t num_shards_ = 0;
  bool enabled_ = false;
  size_t counter_stride_ = 0;  // == counter_names_.size() at Activate time
  std::unique_ptr<std::atomic<uint64_t>[]> shard_counters_;
  std::unique_ptr<std::atomic<uint64_t>[]> gauges_;
  std::vector<HistShard> hist_shards_;
};

/// The conventional metric set both runtimes expose: registered once by
/// the owning cluster so the sampler's export schema is identical across
/// the simulator and the threaded runtime. Counters are recorded on the
/// hot paths (sharded per worker); gauges are polled cumulatively from
/// single-writer sources (network stats, trace-ring drops) by the
/// sampler's poll hook just before each snapshot.
struct CoreMetrics {
  CounterId txns_committed = 0;
  CounterId txns_aborted = 0;        // aborted attempts (may retry)
  CounterId open_loop_offered = 0;
  CounterId open_loop_rejected = 0;
  CounterId open_loop_aborted = 0;   // terminal aborts
  CounterId wal_appends = 0;
  CounterId wal_flushes = 0;
  CounterId worker_iterations = 0;   // threaded runtime event-loop turns
  CounterId worker_mailbox_msgs = 0;
  CounterId worker_local_msgs = 0;
  CounterId worker_timers_fired = 0;

  GaugeId net_messages_sent = 0;
  GaugeId net_messages_delivered = 0;
  GaugeId net_messages_dropped = 0;
  GaugeId net_bytes_sent = 0;
  GaugeId trace_events_dropped = 0;  // trace ring overwrites (satellite)
  GaugeId clients_in_flight = 0;

  // Socket-runtime transport (zero outside the multi-process backend).
  // Cumulative values owned by the I/O thread's atomics, copied in via the
  // poll hook like the net_* gauges above.
  GaugeId sock_bytes_in = 0;
  GaugeId sock_bytes_out = 0;
  GaugeId sock_writev_calls = 0;
  GaugeId sock_partial_writes = 0;
  GaugeId sock_eagain_stalls = 0;
  GaugeId sock_reconnects = 0;

  HistId latency_us = 0;       // end-to-end committed-txn latency
  HistId wal_flush_us = 0;     // device round-trip per group flush
};

/// Registers the CoreMetrics set in declaration order (stable export
/// schema) and returns the handles.
CoreMetrics RegisterCoreMetrics(MetricsRegistry* registry);

/// Pointer-plus-shard handle a node or worker records through. A default
/// constructed handle (null registry) means telemetry is off for this
/// host; record sites guard with `if (metrics.on())` so the disabled path
/// is one predictable branch.
struct MetricsHandle {
  MetricsRegistry* registry = nullptr;
  const CoreMetrics* ids = nullptr;
  uint32_t shard = 0;

  bool on() const { return registry != nullptr && registry->enabled(); }
};

}  // namespace ecdb

#endif  // ECDB_OBS_METRICS_REGISTRY_H_
