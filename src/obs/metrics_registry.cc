#include "obs/metrics_registry.h"

namespace ecdb {

void MetricsRegistry::Activate(uint32_t shards) {
  if (shards == 0) shards = 1;
  num_shards_ = shards;
  counter_stride_ = counter_names_.size();
  const size_t counter_cells = counter_stride_ * shards;
  shard_counters_ =
      std::make_unique<std::atomic<uint64_t>[]>(counter_cells ? counter_cells
                                                              : 1);
  for (size_t i = 0; i < counter_cells; ++i) {
    shard_counters_[i].store(0, std::memory_order_relaxed);
  }
  const size_t gauge_cells = gauge_names_.size();
  gauges_ = std::make_unique<std::atomic<uint64_t>[]>(gauge_cells ? gauge_cells
                                                                  : 1);
  for (size_t i = 0; i < gauge_cells; ++i) {
    gauges_[i].store(0, std::memory_order_relaxed);
  }
  hist_shards_ = std::vector<HistShard>(hist_names_.size() * shards);
  for (HistShard& h : hist_shards_) {
    h.buckets = std::make_unique<std::atomic<uint64_t>[]>(
        Histogram::kNumBuckets);
    for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      h.buckets[b].store(0, std::memory_order_relaxed);
    }
  }
  enabled_ = true;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.counters.assign(counter_names_.size(), 0);
  snap.gauges.assign(gauge_names_.size(), 0);
  snap.hist_buckets.assign(hist_names_.size(),
                           std::vector<uint64_t>(Histogram::kNumBuckets, 0));
  snap.hist_counts.assign(hist_names_.size(), 0);
  snap.hist_sums.assign(hist_names_.size(), 0);
  if (!enabled_) return snap;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    for (size_t c = 0; c < counter_stride_; ++c) {
      snap.counters[c] += shard_counters_[s * counter_stride_ + c].load(
          std::memory_order_relaxed);
    }
    for (size_t h = 0; h < hist_names_.size(); ++h) {
      const HistShard& hs = hist_shards_[s * hist_names_.size() + h];
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        snap.hist_buckets[h][b] +=
            hs.buckets[b].load(std::memory_order_relaxed);
      }
      snap.hist_counts[h] += hs.count.load(std::memory_order_relaxed);
      snap.hist_sums[h] += hs.sum.load(std::memory_order_relaxed);
    }
  }
  for (size_t g = 0; g < gauge_names_.size(); ++g) {
    snap.gauges[g] = gauges_[g].load(std::memory_order_relaxed);
  }
  return snap;
}

CoreMetrics RegisterCoreMetrics(MetricsRegistry* registry) {
  CoreMetrics m;
  m.txns_committed = registry->Counter("txns_committed");
  m.txns_aborted = registry->Counter("txns_aborted");
  m.open_loop_offered = registry->Counter("open_loop_offered");
  m.open_loop_rejected = registry->Counter("open_loop_rejected");
  m.open_loop_aborted = registry->Counter("open_loop_aborted");
  m.wal_appends = registry->Counter("wal_appends");
  m.wal_flushes = registry->Counter("wal_flushes");
  m.worker_iterations = registry->Counter("worker_iterations");
  m.worker_mailbox_msgs = registry->Counter("worker_mailbox_msgs");
  m.worker_local_msgs = registry->Counter("worker_local_msgs");
  m.worker_timers_fired = registry->Counter("worker_timers_fired");
  m.net_messages_sent = registry->Gauge("net_messages_sent");
  m.net_messages_delivered = registry->Gauge("net_messages_delivered");
  m.net_messages_dropped = registry->Gauge("net_messages_dropped");
  m.net_bytes_sent = registry->Gauge("net_bytes_sent");
  m.trace_events_dropped = registry->Gauge("trace_events_dropped");
  m.clients_in_flight = registry->Gauge("clients_in_flight");
  m.sock_bytes_in = registry->Gauge("sock_bytes_in");
  m.sock_bytes_out = registry->Gauge("sock_bytes_out");
  m.sock_writev_calls = registry->Gauge("sock_writev_calls");
  m.sock_partial_writes = registry->Gauge("sock_partial_writes");
  m.sock_eagain_stalls = registry->Gauge("sock_eagain_stalls");
  m.sock_reconnects = registry->Gauge("sock_reconnects");
  m.latency_us = registry->Hist("latency_us");
  m.wal_flush_us = registry->Hist("wal_flush_us");
  return m;
}

}  // namespace ecdb
