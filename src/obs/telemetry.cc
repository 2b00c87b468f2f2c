#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "common/logging.h"
#include "net/network.h"

namespace ecdb {

void TelemetrySampler::Reset(Micros now_us) {
  if (poll_) poll_();
  last_ = registry_->Snapshot();
  last_at_us_ = now_us;
  have_baseline_ = true;
  slices_.clear();
  slices_dropped_ = 0;
}

void TelemetrySampler::Sample(Micros now_us) {
  if (!have_baseline_) {
    Reset(now_us);
    return;
  }
  if (poll_) poll_();
  MetricsSnapshot cur = registry_->Snapshot();
  const MetricsSnapshot delta = cur.Since(last_);

  Timeslice slice;
  slice.start_us = last_at_us_;
  slice.end_us = now_us;
  slice.counters = delta.counters;
  slice.gauges = delta.gauges;
  for (size_t h = 0; h < delta.hist_buckets.size(); ++h) {
    slice.hists.push_back(SummarizeBuckets(
        delta.hist_buckets[h], delta.hist_counts[h], delta.hist_sums[h]));
  }

  slices_.push_back(std::move(slice));
  while (slices_.size() > kMaxSlices) {
    slices_.pop_front();
    slices_dropped_++;
  }
  last_ = std::move(cur);
  last_at_us_ = now_us;
}

uint64_t TelemetrySampler::BucketPercentile(
    const std::vector<uint64_t>& buckets, uint64_t count, double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank over bucket counts, mirroring Histogram::Percentile
  // (minus the exact min/max refinement, which sharded atomics don't
  // track).
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  uint64_t last_nonempty = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    seen += buckets[i];
    last_nonempty = Histogram::BucketUpperBound(i);
    if (seen >= rank) return last_nonempty;
  }
  return last_nonempty;
}

HistSlice TelemetrySampler::SummarizeBuckets(
    const std::vector<uint64_t>& buckets, uint64_t count, uint64_t sum) {
  HistSlice s;
  s.count = count;
  s.sum = sum;
  if (count == 0) return s;
  s.p50 = BucketPercentile(buckets, count, 0.50);
  s.p99 = BucketPercentile(buckets, count, 0.99);
  s.p999 = BucketPercentile(buckets, count, 0.999);
  for (size_t i = buckets.size(); i-- > 0;) {
    if (buckets[i] > 0) {
      s.max = Histogram::BucketUpperBound(i);
      break;
    }
  }
  return s;
}

namespace {

void WriteNameArray(const std::vector<std::string>& names, std::ostream& out) {
  out << "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << names[i] << "\"";
  }
  out << "]";
}

void WriteU64Array(const std::vector<uint64_t>& vals, std::ostream& out) {
  out << "[";
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i > 0) out << ",";
    out << vals[i];
  }
  out << "]";
}

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PromName(const std::string& name) {
  std::string out = "ecdb_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void TelemetrySampler::WriteTimeseriesJsonl(const std::string& label,
                                            std::ostream& out) const {
  out << "{\"telemetry\":{\"label\":\"" << label
      << "\",\"interval_us\":" << config_.sample_interval_us
      << ",\"slices_dropped\":" << slices_dropped_ << ",\"counters\":";
  WriteNameArray(registry_->counter_names(), out);
  out << ",\"gauges\":";
  WriteNameArray(registry_->gauge_names(), out);
  out << ",\"hists\":";
  WriteNameArray(registry_->hist_names(), out);
  out << "}}\n";
  for (const Timeslice& s : slices_) {
    out << "{\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << ",\"counters\":";
    WriteU64Array(s.counters, out);
    out << ",\"gauges\":";
    WriteU64Array(s.gauges, out);
    out << ",\"hists\":[";
    for (size_t h = 0; h < s.hists.size(); ++h) {
      const HistSlice& hs = s.hists[h];
      if (h > 0) out << ",";
      out << "{\"count\":" << hs.count << ",\"sum\":" << hs.sum
          << ",\"p50\":" << hs.p50 << ",\"p99\":" << hs.p99
          << ",\"p999\":" << hs.p999 << ",\"max\":" << hs.max << "}";
    }
    out << "]}\n";
  }
}

bool TelemetrySampler::AppendTimeseriesJsonlFile(
    const std::string& label, const std::string& path) const {
  std::ofstream f(path, std::ios::app);
  if (!f) return false;
  WriteTimeseriesJsonl(label, f);
  return static_cast<bool>(f);
}

void TelemetrySampler::WritePrometheusText(std::ostream& out) const {
  const std::vector<std::string>& counters = registry_->counter_names();
  for (size_t i = 0; i < counters.size(); ++i) {
    const std::string n = PromName(counters[i]);
    out << "# TYPE " << n << " counter\n";
    out << n << " "
        << (i < last_.counters.size() ? last_.counters[i] : 0) << "\n";
  }
  const std::vector<std::string>& gauges = registry_->gauge_names();
  for (size_t i = 0; i < gauges.size(); ++i) {
    const std::string n = PromName(gauges[i]);
    out << "# TYPE " << n << " gauge\n";
    out << n << " " << (i < last_.gauges.size() ? last_.gauges[i] : 0)
        << "\n";
  }
  const std::vector<std::string>& hists = registry_->hist_names();
  for (size_t i = 0; i < hists.size(); ++i) {
    const std::string n = PromName(hists[i]);
    const uint64_t count = i < last_.hist_counts.size() ? last_.hist_counts[i]
                                                        : 0;
    const uint64_t sum = i < last_.hist_sums.size() ? last_.hist_sums[i] : 0;
    out << "# TYPE " << n << " summary\n";
    for (double q : {0.5, 0.99, 0.999}) {
      uint64_t v = 0;
      if (i < last_.hist_buckets.size()) {
        v = BucketPercentile(last_.hist_buckets[i], count, q);
      }
      out << n << "{quantile=\"" << q << "\"} " << v << "\n";
    }
    out << n << "_sum " << sum << "\n";
    out << n << "_count " << count << "\n";
  }
}

bool TelemetrySampler::WritePrometheusTextFile(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  WritePrometheusText(f);
  return static_cast<bool>(f);
}

void WallClockSampler::Start(TelemetrySampler* sampler) {
  ECDB_CHECK(!thread_.joinable());
  sampler_ = sampler;
  stop_ = false;
  epoch_ = std::chrono::steady_clock::now();
  sampler_->Reset(0);
  thread_ = std::thread([this] {
    const auto interval =
        std::chrono::microseconds(sampler_->config().sample_interval_us);
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, interval);
      if (!stop_) sampler_->Sample(NowUs());
    }
  });
}

void WallClockSampler::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  sampler_->Sample(NowUs());
}

Micros WallClockSampler::NowUs() const {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void SetNetworkGauges(const NetworkStats& stats, const CoreMetrics& ids,
                      MetricsRegistry* registry) {
  registry->Set(ids.net_messages_sent, stats.messages_sent);
  registry->Set(ids.net_messages_delivered, stats.messages_delivered);
  registry->Set(ids.net_messages_dropped, stats.messages_dropped);
  registry->Set(ids.net_bytes_sent, stats.bytes_sent);
  registry->Set(ids.net_frames_sent, stats.frames_sent);
  registry->Set(ids.net_messages_coalesced, stats.messages_coalesced);
  registry->Set(ids.net_messages_from_crashed, stats.messages_from_crashed);
  registry->Set(ids.net_messages_to_crashed, stats.messages_to_crashed);
}

}  // namespace ecdb
