#include "cluster/thread_node.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace ecdb {

using namespace std::chrono_literals;

namespace {

std::unique_ptr<MemoryWal> OpenWal(const ThreadClusterConfig& config,
                                   NodeId id) {
  if (config.wal_dir.empty()) return std::make_unique<MemoryWal>();
  auto wal =
      FileWal::Open(config.wal_dir + "/node" + std::to_string(id) + ".wal");
  ECDB_CHECK(wal.ok());
  return std::move(wal).value();
}

}  // namespace

ThreadNode::ThreadNode(NodeId id, const ThreadClusterConfig& config,
                       ThreadNetwork* network, Workload* workload,
                       SafetyMonitor* monitor, uint64_t seed,
                       const MetricsHandle& metrics)
    : NodeCore(id, config, OpenWal(config, id), workload, monitor, seed,
               metrics),
      config_(config),
      network_(network),
      flushed_size_(wal().Size()),
      send_buffers_(config.num_nodes) {}

ThreadNode::~ThreadNode() = default;

// Every co-hosted node reads its worker's clock, so all deadlines in the
// shared timer queue are on one time axis.
Micros ThreadNode::NowUs() const { return host_->NowUs(); }

NodeCore::TimerId ThreadNode::ScheduleTimer(Micros at,
                                            const NodeTimer& timer) {
  return host_->timers().ScheduleAt(at, [this, timer]() {
    if (FireTimer(timer)) metrics().Add(metrics().ids->worker_timers_fired);
  });
}

void ThreadNode::UnscheduleTimer(TimerId id) { host_->timers().Cancel(id); }

void ThreadNode::Run(Work work, TaskFn fn) {
  (void)work;  // no cost model: the work is the real CPU time it takes
  fn();
}

void ThreadNode::Transmit(Message msg) {
  if (msg.dst >= send_buffers_.size()) return;  // network drops these too
  std::vector<Message>& buf = send_buffers_[msg.dst];
  if (buf.empty()) dirty_dsts_.push_back(msg.dst);
  buf.push_back(std::move(msg));
}

Status ThreadNode::FlushWal() {
  // Most calls find nothing staged: they skip the flush and its timing.
  if (wal().Size() == flushed_size_) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  Status status = wal().Flush();
  if (!status.ok()) return status;
  flushed_size_ = wal().Size();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  metrics().Add(metrics().ids->wal_flushes);
  metrics().Observe(metrics().ids->wal_flush_us, static_cast<uint64_t>(us));
  return status;
}

void ThreadNode::FlushOutput() {
  // Write-ahead order: this iteration's WAL group becomes durable before
  // any message announcing its decisions reaches another node's mailbox.
  // A group that cannot be made durable must not be acted on: the node
  // fail-stops instead, dropping the frames that would have announced it.
  const Status status = FlushWal();
  if (!status.ok()) {
    if (!Down()) {
      ECDB_LOG(kWarn, "node %u fail-stops: %s", self(),
               status.ToString().c_str());
      network_->CrashNode(self());
      CrashCore();
    }
    for (NodeId dst : dirty_dsts_) send_buffers_[dst].clear();
    dirty_dsts_.clear();
    return;
  }
  for (NodeId dst : dirty_dsts_) {
    std::vector<Message>& buf = send_buffers_[dst];
    if (config_.coalesce_transport) {
      ShipFrame(dst, &buf);
      continue;
    }
    // Frame cap of one (the uncoalesced ablation): every message pays its
    // own frame, channel hop and wake.
    for (Message& msg : buf) {
      single_frame_.push_back(std::move(msg));
      ShipFrame(dst, &single_frame_);
    }
    buf.clear();
  }
  dirty_dsts_.clear();
}

void ThreadNode::ShipFrame(NodeId dst, std::vector<Message>* frame) {
  // Same-worker fast path: a co-hosted destination's frame hops onto the
  // worker's local queue (no channel lock, no wake) and is handled this
  // loop iteration. It must not change observable semantics: with faults
  // armed (loss, link cuts, delays) or either endpoint crashed, the frame
  // goes through ThreadNetwork so drops are sampled and counted exactly as
  // for cross-worker traffic.
  if (dst != self() && host_->Hosts(dst) && !network_->FaultsArmed() &&
      !Down() && !network_->IsCrashed(dst)) {
    host_->EnqueueLocalBatch(frame);
  } else {
    network_->SendBatch(self(), dst, frame);
  }
}

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

void ThreadNode::Crash() { crash_requested_.store(true); }

bool ThreadNode::Recover() {
  if (!crash_requested_.load() && !network_->IsCrashed(self())) return false;
  network_->RecoverNode(self());
  recover_requested_.store(true);
  return true;
}

void ThreadNode::ProcessControl() {
  // A crash lands between loop iterations, never inside one: the previous
  // iteration's frames all left after its WAL group flush. Cutting the
  // node mid-iteration would drop transmits whose decision the node has
  // already applied — EasyCommit's transmit-before-apply would break.
  // The cut happens before the request is cleared, so a concurrent
  // Recover() sees one or the other.
  if (crash_requested_.load()) {
    network_->CrashNode(self());
    crash_requested_.store(false);
    CrashCore();
    // Fail-stop: buffered sends die with the volatile state.
    for (NodeId dst : dirty_dsts_) send_buffers_[dst].clear();
    dirty_dsts_.clear();
  }
  if (recover_requested_.exchange(false)) {
    network_->RecoverNode(self());
    RecoverCore();
  }
}

// --------------------------------------------------------------------------
// ThreadCluster
// --------------------------------------------------------------------------

ThreadCluster::ThreadCluster(const ThreadClusterConfig& config,
                             std::unique_ptr<Workload> workload)
    : config_(config), workload_(std::move(workload)) {
  // worker_threads == 0 is thread-per-node: W == num_nodes, one node per
  // worker, and the per-worker mailbox degenerates to the old per-node
  // mailbox — one code path serves both deployment shapes.
  const uint32_t workers =
      config_.worker_threads == 0
          ? config_.num_nodes
          : std::min<uint32_t>(config_.worker_threads, config_.num_nodes);
  network_ = std::make_unique<ThreadNetwork>(config_.num_nodes, workers);
  core_metrics_ = RegisterCoreMetrics(&metrics_registry_);
  // One shard per event-loop worker: a node records through its hosting
  // worker's shard, so concurrent record paths never share a cell.
  metrics_registry_.Activate(workers);
  workers_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<ThreadWorker>(
        w, workers, network_.get(),
        MetricsHandle{&metrics_registry_, &core_metrics_, w}));
  }
  Rng root(config_.seed);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<ThreadNode>(
        id, config_, network_.get(), workload_.get(), &monitor_, root.Next(),
        MetricsHandle{&metrics_registry_, &core_metrics_, id % workers}));
    workers_[id % workers]->AddNode(nodes_.back().get());
  }
  if (config_.telemetry.enabled) {
    sampler_ = std::make_unique<TelemetrySampler>(&metrics_registry_,
                                                  config_.telemetry);
    sampler_->SetPollHook([this] { PollGauges(); });
  }
}

void ThreadCluster::PollGauges() {
  SetNetworkGauges(network_->stats(), core_metrics_, &metrics_registry_);
}

ThreadCluster::~ThreadCluster() { Stop(); }

void ThreadCluster::Start() {
  ECDB_CHECK(!started_);
  started_ = true;
  for (auto& node : nodes_) node->Bootstrap();
  // One epoch for every worker: trace timestamps and timer deadlines from
  // different workers are on one time base.
  const auto epoch = std::chrono::steady_clock::now();
  for (auto& worker : workers_) worker->Start(epoch);
  if (sampler_ != nullptr) sampling_.Start(sampler_.get());
}

void ThreadCluster::RunFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void ThreadCluster::Quiesce(double drain_seconds) {
  for (auto& node : nodes_) node->Quiesce();
  RunFor(drain_seconds);
}

void ThreadCluster::Stop() {
  if (!started_) return;
  // Signal everyone first so the joins overlap the (up to 1ms) mailbox
  // waits instead of serializing them.
  for (auto& worker : workers_) worker->SignalStop();
  for (auto& worker : workers_) worker->Stop();
  network_->Shutdown();
  // Workers are joined: thread-confined sources (trace rings) are now safe
  // to fold in, ahead of the sampler's final sample.
  uint64_t trace_drops = 0;
  for (const auto& node : nodes_) trace_drops += node->trace().dropped();
  metrics_registry_.Set(core_metrics_.trace_events_dropped, trace_drops);
  sampling_.Stop();
  started_ = false;
}

uint64_t ThreadCluster::TotalCommitted() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->committed();
  return total;
}

ClusterStats ThreadCluster::CollectStats(double duration_seconds) {
  PollGauges();
  ClusterStats out = CoreStats(metrics_registry_.Snapshot(), core_metrics_);
  out.duration_seconds = duration_seconds;
  out.num_nodes = config_.num_nodes;
  out.worker_threads = workers_.size();
  return out;
}

std::vector<WorkerStats> ThreadCluster::CollectWorkerStats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) out.push_back(worker->stats());
  return out;
}

void ThreadCluster::EnableTracing(size_t capacity) {
  for (auto& node : nodes_) node->EnableTracing(capacity);
}

std::vector<const TraceRecorder*> ThreadCluster::recorders() const {
  std::vector<const TraceRecorder*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(&node->trace());
  return out;
}

}  // namespace ecdb
