#include "obs/metrics_registry.h"

#include <algorithm>
#include <cstdint>

namespace ecdb {

void MetricsRegistry::Activate(uint32_t shards) {
  // Value-initialized: every cell starts at zero.
  num_shards_ = shards == 0 ? 1 : shards;
  // Each shard's counters start on a cache line of their own, so workers
  // recording into neighbouring shards never write the same line.
  constexpr size_t kLine = 64 / sizeof(std::atomic<uint64_t>);
  counter_stride_ = (counter_names_.size() + kLine - 1) / kLine * kLine;
  counter_cells_ = std::vector<std::atomic<uint64_t>>(
      counter_stride_ * num_shards_ + kLine - 1);
  const size_t misaligned =
      reinterpret_cast<uintptr_t>(counter_cells_.data()) % 64 /
      sizeof(std::atomic<uint64_t>);
  shard_counters_ =
      counter_cells_.data() + (misaligned == 0 ? 0 : kLine - misaligned);
  gauges_ = std::vector<std::atomic<uint64_t>>(gauge_names_.size());
  hist_shards_ = std::vector<HistShard>(hist_names_.size() * num_shards_);
}

void MetricsRegistry::ResetExtremes() {
  for (HistShard& h : hist_shards_) {
    h.min.store(UINT64_MAX, std::memory_order_relaxed);
    h.max.store(0, std::memory_order_relaxed);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  const size_t hists = hist_names_.size();
  snap.counters.assign(counter_names_.size(), 0);
  snap.gauges.assign(gauge_names_.size(), 0);
  snap.hist_buckets.assign(hists,
                           std::vector<uint64_t>(Histogram::kNumBuckets, 0));
  snap.hist_counts.assign(hists, 0);
  snap.hist_sums.assign(hists, 0);
  snap.hist_mins.assign(hists, UINT64_MAX);
  snap.hist_maxes.assign(hists, 0);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    for (size_t c = 0; c < counter_names_.size(); ++c) {
      snap.counters[c] += shard_counters_[s * counter_stride_ + c].load(
          std::memory_order_relaxed);
    }
    for (size_t h = 0; h < hists; ++h) {
      const HistShard& hs = hist_shards_[s * hists + h];
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        snap.hist_buckets[h][b] +=
            hs.buckets[b].load(std::memory_order_relaxed);
      }
      snap.hist_counts[h] += hs.count.load(std::memory_order_relaxed);
      snap.hist_sums[h] += hs.sum.load(std::memory_order_relaxed);
      snap.hist_mins[h] = std::min(snap.hist_mins[h],
                                   hs.min.load(std::memory_order_relaxed));
      snap.hist_maxes[h] = std::max(snap.hist_maxes[h],
                                    hs.max.load(std::memory_order_relaxed));
    }
  }
  for (uint64_t& m : snap.hist_mins) {
    if (m == UINT64_MAX) m = 0;
  }
  for (size_t g = 0; g < gauges_.size(); ++g) {
    snap.gauges[g] = gauges_[g].load(std::memory_order_relaxed);
  }
  return snap;
}

MetricsSnapshot MetricsSnapshot::Since(const MetricsSnapshot& base) const {
  // Cumulative cells are monotone; clamp anyway so a torn concurrent read
  // can never wrap to 2^64.
  auto minus = [](std::vector<uint64_t>& v, const std::vector<uint64_t>& b) {
    for (size_t i = 0; i < v.size() && i < b.size(); ++i) {
      v[i] = v[i] > b[i] ? v[i] - b[i] : 0;
    }
  };
  MetricsSnapshot d = *this;
  minus(d.counters, base.counters);
  minus(d.hist_counts, base.hist_counts);
  minus(d.hist_sums, base.hist_sums);
  for (size_t h = 0; h < base.hist_buckets.size(); ++h) {
    minus(d.hist_buckets[h], base.hist_buckets[h]);
  }
  return d;
}

CoreMetrics RegisterCoreMetrics(MetricsRegistry* registry) {
  static constexpr const char* kTimeNames[kNumTimeCategories] = {
      "time_useful_work_us", "time_txn_manager_us", "time_index_us",
      "time_abort_us",       "time_idle_us",        "time_commit_us",
      "time_overhead_us"};
  static constexpr const char* kProtocolEventNames[kNumProtocolEvents] = {
      "termination_rounds", "acceptor_rounds", "ballots_promoted",
      "quorum_lost_rounds", "duplicate_decisions_suppressed",
      "conflicting_decisions"};
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
  m.txns_blocked = registry->Counter("txns_blocked");
  m.commit_protocol_runs = registry->Counter("commit_protocol_runs");
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    m.time_us[i] = registry->Counter(kTimeNames[i]);
  }
  for (size_t i = 0; i < kNumProtocolEvents; ++i) {
    m.protocol_events[i] = registry->Counter(kProtocolEventNames[i]);
  }
  m.net_messages_sent = registry->Gauge("net_messages_sent");
  m.net_messages_delivered = registry->Gauge("net_messages_delivered");
  m.net_messages_dropped = registry->Gauge("net_messages_dropped");
  m.net_bytes_sent = registry->Gauge("net_bytes_sent");
  m.net_frames_sent = registry->Gauge("net_frames_sent");
  m.net_messages_coalesced = registry->Gauge("net_messages_coalesced");
  m.net_messages_from_crashed = registry->Gauge("net_messages_from_crashed");
  m.net_messages_to_crashed = registry->Gauge("net_messages_to_crashed");
  m.trace_events_dropped = registry->Gauge("trace_events_dropped");
  m.clients_in_flight = registry->Gauge("clients_in_flight");
  m.latency_us = registry->Hist("latency_us");
  m.wal_flush_us = registry->Hist("wal_flush_us");
  m.phase_vote_us = registry->Hist("phase_vote_us");
  m.phase_transmit_us = registry->Hist("phase_transmit_us");
  m.phase_apply_us = registry->Hist("phase_apply_us");
  return m;
}

ClusterStats CoreStats(const MetricsSnapshot& window, const CoreMetrics& ids) {
  const std::vector<uint64_t>& c = window.counters;
  const std::vector<uint64_t>& g = window.gauges;
  auto event = [&](ProtocolEvent e) {
    return c[ids.protocol_events[static_cast<size_t>(e)]];
  };
  ClusterStats out;
  NodeStats& t = out.total;
  t.txns_committed = c[ids.txns_committed];
  t.txns_aborted = c[ids.txns_aborted];
  t.txns_blocked = c[ids.txns_blocked];
  t.commit_protocol_runs = c[ids.commit_protocol_runs];
  t.termination_rounds = event(ProtocolEvent::kTerminationRound);
  t.acceptor_rounds = event(ProtocolEvent::kAcceptorRound);
  t.ballots_promoted = event(ProtocolEvent::kBallotPromoted);
  t.quorum_lost_rounds = event(ProtocolEvent::kQuorumLost);
  t.conflicting_decisions = event(ProtocolEvent::kConflictingDecision);
  t.open_loop_offered = c[ids.open_loop_offered];
  t.open_loop_rejected = c[ids.open_loop_rejected];
  t.open_loop_aborted = c[ids.open_loop_aborted];
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    t.time_us[i] = c[ids.time_us[i]];
  }
  t.latency = window.Hist(ids.latency_us);
  t.phase_vote = window.Hist(ids.phase_vote_us);
  t.phase_transmit = window.Hist(ids.phase_transmit_us);
  t.phase_apply = window.Hist(ids.phase_apply_us);
  out.net_messages_from_crashed = g[ids.net_messages_from_crashed];
  out.net_messages_to_crashed = g[ids.net_messages_to_crashed];
  out.net_frames_sent = g[ids.net_frames_sent];
  out.net_messages_coalesced = g[ids.net_messages_coalesced];
  out.duplicate_decisions_suppressed =
      event(ProtocolEvent::kDuplicateDecision);
  out.wal_group_flushes = c[ids.wal_flushes];
  out.worker_mailbox_messages = c[ids.worker_mailbox_msgs];
  out.worker_local_messages = c[ids.worker_local_msgs];
  out.trace_events_dropped = g[ids.trace_events_dropped];
  return out;
}

}  // namespace ecdb
