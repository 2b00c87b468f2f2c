#include "cluster/sim_cluster.h"

#include <utility>

#include "common/logging.h"

namespace ecdb {

SimCluster::SimCluster(const ClusterConfig& config,
                       std::unique_ptr<Workload> workload)
    : config_(config), workload_(std::move(workload)) {
  Rng root(config_.seed);
  network_ = std::make_unique<SimNetwork>(&scheduler_, config_.network,
                                          root.Next());
  if (config_.coalesce_transport) network_->EnableCoalescing(true);
  nodes_.reserve(config_.num_nodes);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<SimNode>(id, config_, &scheduler_,
                                               network_.get(),
                                               workload_.get(), &monitor_,
                                               root.Next()));
  }
  if (config_.telemetry.enabled) {
    core_metrics_ = RegisterCoreMetrics(&metrics_registry_);
    metrics_registry_.Activate(/*shards=*/1);  // the sim is single-threaded
    sampler_ = std::make_unique<TelemetrySampler>(&metrics_registry_,
                                                  config_.telemetry);
    sampler_->SetPollHook([this] {
      const NetworkStats& ns = network_->stats();
      metrics_registry_.Set(core_metrics_.net_messages_sent,
                            ns.messages_sent);
      metrics_registry_.Set(core_metrics_.net_messages_delivered,
                            ns.messages_delivered);
      metrics_registry_.Set(core_metrics_.net_messages_dropped,
                            ns.messages_dropped);
      metrics_registry_.Set(core_metrics_.net_bytes_sent, ns.bytes_sent);
      uint64_t trace_drops = 0, in_flight = 0, flushes = 0;
      for (const auto& node : nodes_) {
        trace_drops += node->trace().dropped();
        in_flight += node->InFlightClientCount();
        flushes += node->wal().group_flushes();
      }
      metrics_registry_.Set(core_metrics_.trace_events_dropped, trace_drops);
      metrics_registry_.Set(core_metrics_.clients_in_flight, in_flight);
      // group_flushes() is cumulative per WAL; fold the delta into the
      // counter so it deltas per-slice like every other counter.
      if (flushes > polled_wal_flushes_) {
        metrics_registry_.Add(0, core_metrics_.wal_flushes,
                              flushes - polled_wal_flushes_);
        polled_wal_flushes_ = flushes;
      }
    });
    const MetricsHandle handle{&metrics_registry_, &core_metrics_, 0};
    for (auto& node : nodes_) node->BindMetrics(handle);
  }
}

void SimCluster::Start() {
  for (auto& node : nodes_) node->Bootstrap();
  for (auto& node : nodes_) node->StartClients();
  if (sampler_ != nullptr && sampler_task_ == 0) {
    sampler_->Reset(scheduler_.Now());
    sampler_task_ = scheduler_.ScheduleAfter(
        config_.telemetry.sample_interval_us, [this] { SampleTick(); });
  }
}

void SimCluster::SampleTick() {
  sampler_->Sample(scheduler_.Now());
  sampler_task_ = scheduler_.ScheduleAfter(
      config_.telemetry.sample_interval_us, [this] { SampleTick(); });
}

void SimCluster::StopTelemetry() {
  if (sampler_task_ != 0) {
    scheduler_.Cancel(sampler_task_);
    sampler_task_ = 0;
    // Close the partial interval so the last slice covers up to "now".
    sampler_->Sample(scheduler_.Now());
  }
}

void SimCluster::RunFor(double seconds) {
  const Micros until =
      scheduler_.Now() + static_cast<Micros>(seconds * 1e6);
  scheduler_.RunUntil(until);
}

size_t SimCluster::RunToQuiescence(size_t max_events) {
  return scheduler_.RunAll(max_events);
}

void SimCluster::BeginMeasurement() {
  measurement_start_us_ = scheduler_.Now();
  for (auto& node : nodes_) node->BeginMeasurement();
}

ClusterStats SimCluster::CollectStats(double duration_seconds) const {
  ClusterStats out;
  out.duration_seconds = duration_seconds;
  out.num_nodes = config_.num_nodes;
  const uint64_t window_us = static_cast<uint64_t>(duration_seconds * 1e6);
  for (const auto& node : nodes_) {
    // The engine tracks termination rounds itself; fold the window's delta
    // into the per-node stats before merging.
    NodeStats ns = node->stats();
    ns.termination_rounds = node->TerminationRoundsThisWindow();
    ns.acceptor_rounds = node->AcceptorRoundsThisWindow();
    ns.ballots_promoted = node->BallotsPromotedThisWindow();
    ns.quorum_lost_rounds = node->QuorumLostRoundsThisWindow();
    out.total.Merge(ns);
    // Idle = worker capacity not attributed to any category this window.
    const uint64_t busy =
        node->total_busy_us() - node->busy_us_at_window_start();
    const uint64_t capacity =
        static_cast<uint64_t>(config_.workers_per_node) * window_us;
    out.total.AddTime(TimeCategory::kIdle,
                      capacity > busy ? capacity - busy : 0);
    out.duplicate_decisions_suppressed +=
        node->engine().duplicate_decisions_suppressed();
    out.wal_group_flushes += node->wal().group_flushes();
    out.trace_events_dropped += node->trace().dropped();
  }
  out.net_messages_from_crashed = network_->stats().messages_from_crashed;
  out.net_messages_to_crashed = network_->stats().messages_to_crashed;
  out.net_frames_sent = network_->stats().frames_sent;
  out.net_messages_coalesced = network_->stats().messages_coalesced;
  return out;
}

void SimCluster::CrashNode(NodeId id) { nodes_[id]->Crash(); }

bool SimCluster::RecoverNode(NodeId id) { return nodes_[id]->Recover(); }

void SimCluster::EnableTracing(size_t capacity) {
  for (auto& node : nodes_) node->EnableTracing(capacity);
}

std::vector<const TraceRecorder*> SimCluster::recorders() const {
  std::vector<const TraceRecorder*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(&node->trace());
  return out;
}

}  // namespace ecdb
