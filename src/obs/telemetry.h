#ifndef ECDB_OBS_TELEMETRY_H_
#define ECDB_OBS_TELEMETRY_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "obs/metrics_registry.h"

namespace ecdb {

struct NetworkStats;

/// Per-interval summary of one histogram: the delta distribution between
/// two consecutive cumulative snapshots, reduced to the quantiles the
/// paper's figures use. `max_us` is the upper bound of the highest
/// non-empty bucket (bounded ~4.4% relative error, like every Histogram
/// percentile).
struct HistSlice {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t max = 0;
};

/// One sampling interval: counter deltas over [start_us, end_us), gauge
/// values as of end_us, and per-interval histogram summaries. Metric order
/// matches the registry's registration order (see the exporter meta line).
struct Timeslice {
  Micros start_us = 0;
  Micros end_us = 0;
  std::vector<uint64_t> counters;
  std::vector<uint64_t> gauges;
  std::vector<HistSlice> hists;
};

/// Periodic sampler turning the registry's cumulative state into a bounded
/// ring of per-interval timeslices.
///
/// Driving model: the sampler itself has no clock and no thread — the host
/// runtime calls Sample(now) on its own cadence. SimCluster drives it from
/// a scheduler event chain (virtual time: two identically-seeded runs
/// produce byte-identical exports), ThreadCluster and SocketNode from a
/// WallClockSampler thread. All sampler state is therefore single-writer; the
/// only cross-thread traffic is the registry's relaxed atomics and
/// whatever the poll hook reads (which must itself be atomic or otherwise
/// safe — ThreadNetwork's counters are).
///
/// The optional poll hook runs at the top of every Sample() and is where
/// cumulative values owned elsewhere (network stats, trace-ring drop
/// counts) get copied into registry gauges so they appear in the same
/// timeslice stream.
class TelemetrySampler {
 public:
  /// Bounded ring of timeslices: when more intervals elapse than this,
  /// the oldest slices are discarded and counted in slices_dropped().
  static constexpr size_t kMaxSlices = 4096;

  TelemetrySampler(MetricsRegistry* registry, TelemetryConfig config)
      : registry_(registry), config_(config) {}

  void SetPollHook(std::function<void()> hook) { poll_ = std::move(hook); }

  /// Takes the baseline snapshot at `now_us` and clears any prior slices.
  /// Call once when measurement starts, before the first Sample().
  void Reset(Micros now_us);

  /// Closes the interval [prev, now_us): runs the poll hook, snapshots the
  /// registry, and appends the delta slice. Oldest slices fall off once
  /// the ring holds kMaxSlices.
  void Sample(Micros now_us);

  const std::deque<Timeslice>& slices() const { return slices_; }
  uint64_t slices_dropped() const { return slices_dropped_; }
  const TelemetryConfig& config() const { return config_; }

  /// JSONL time-series: one meta line naming every metric in order, then
  /// one fixed-key-order object per timeslice. Byte-deterministic for a
  /// given slice ring (pinned by tests/obs_test.cc on the simulator).
  /// `label` tags the meta line so several runs can share one file.
  void WriteTimeseriesJsonl(const std::string& label, std::ostream& out) const;
  bool AppendTimeseriesJsonlFile(const std::string& label,
                                 const std::string& path) const;

  /// Prometheus text exposition (version 0.0.4) of the cumulative
  /// snapshot: counters/gauges as-is, histograms as summaries with
  /// quantile labels.
  void WritePrometheusText(std::ostream& out) const;
  bool WritePrometheusTextFile(const std::string& path) const;

  /// Quantile helpers over raw bucket-count arrays in Histogram geometry
  /// (shared by the exporters and tests).
  static uint64_t BucketPercentile(const std::vector<uint64_t>& buckets,
                                   uint64_t count, double q);
  static HistSlice SummarizeBuckets(const std::vector<uint64_t>& buckets,
                                    uint64_t count, uint64_t sum);

 private:
  MetricsRegistry* registry_;
  TelemetryConfig config_;
  std::function<void()> poll_;

  MetricsSnapshot last_;
  Micros last_at_us_ = 0;
  bool have_baseline_ = false;
  std::deque<Timeslice> slices_;
  uint64_t slices_dropped_ = 0;
};

/// Drives a TelemetrySampler every config().sample_interval_us of wall
/// time from a dedicated thread (the threaded and socket hosts).
class WallClockSampler {
 public:
  ~WallClockSampler() { Stop(); }

  /// Starts the epoch now and takes the baseline at time 0.
  void Start(TelemetrySampler* sampler);

  /// Joins the thread and takes one final sample closing the tail
  /// interval. No-op unless running.
  void Stop();

 private:
  Micros NowUs() const;

  TelemetrySampler* sampler_ = nullptr;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::chrono::steady_clock::time_point epoch_;
};

/// Copies a network's cumulative counters into the net_* gauges: the part
/// of the poll hook every host shares.
void SetNetworkGauges(const NetworkStats& stats, const CoreMetrics& ids,
                      MetricsRegistry* registry);

}  // namespace ecdb

#endif  // ECDB_OBS_TELEMETRY_H_
