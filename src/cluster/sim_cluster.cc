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
  core_metrics_ = RegisterCoreMetrics(&metrics_registry_);
  metrics_registry_.Activate(/*shards=*/1);  // the sim is single-threaded
  const MetricsHandle handle{&metrics_registry_, &core_metrics_, 0};
  nodes_.reserve(config_.num_nodes);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<SimNode>(id, config_, &scheduler_,
                                               network_.get(),
                                               workload_.get(), &monitor_,
                                               root.Next(), handle));
  }
  if (config_.telemetry.enabled) {
    sampler_ = std::make_unique<TelemetrySampler>(&metrics_registry_,
                                                  config_.telemetry);
    sampler_->SetPollHook([this] { PollGauges(); });
  }
}

void SimCluster::PollGauges() {
  SetNetworkGauges(network_->stats(), core_metrics_, &metrics_registry_);
  uint64_t trace_drops = 0, in_flight = 0;
  for (const auto& node : nodes_) {
    trace_drops += node->trace().dropped();
    in_flight += node->InFlightClientCount();
  }
  metrics_registry_.Set(core_metrics_.trace_events_dropped, trace_drops);
  metrics_registry_.Set(core_metrics_.clients_in_flight, in_flight);
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
  window_base_ = metrics_registry_.Snapshot();
  metrics_registry_.ResetExtremes();
}

ClusterStats SimCluster::CollectStats(double duration_seconds) {
  PollGauges();
  ClusterStats out = CoreStats(
      metrics_registry_.Snapshot().Since(window_base_), core_metrics_);
  out.duration_seconds = duration_seconds;
  out.num_nodes = config_.num_nodes;
  // Idle = worker capacity not attributed to any category this window.
  uint64_t busy = 0;
  for (uint64_t us : out.total.time_us) busy += us;
  const uint64_t capacity = static_cast<uint64_t>(config_.workers_per_node) *
                            config_.num_nodes *
                            static_cast<uint64_t>(duration_seconds * 1e6);
  out.total.AddTime(TimeCategory::kIdle,
                    capacity > busy ? capacity - busy : 0);
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
