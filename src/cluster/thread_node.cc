#include "cluster/thread_node.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace ecdb {

using namespace std::chrono_literals;

namespace {

std::unique_ptr<WriteAheadLog> OpenWal(const ThreadClusterConfig& config,
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
                       SafetyMonitor* monitor, uint64_t seed)
    : NodeCore(id, config, OpenWal(config, id), workload, monitor, seed),
      config_(config),
      network_(network) {
  if (config_.coalesce_transport) send_buffers_.resize(config_.num_nodes);
}

ThreadNode::~ThreadNode() = default;

Micros ThreadNode::NowUs() const {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_start_)
          .count());
}

void ThreadNode::OnLoopStart(std::chrono::steady_clock::time_point epoch) {
  epoch_start_ = epoch;
  StartClients();
}

NodeCore::TimerId ThreadNode::ScheduleTimer(Micros at,
                                            const NodeTimer& timer) {
  return host_->ScheduleTimer(at, timer);
}

void ThreadNode::UnscheduleTimer(TimerId id) { host_->CancelTimer(id); }

void ThreadNode::Run(Work work, TaskFn fn) {
  (void)work;  // no cost model: the work is the real CPU time it takes
  fn();
}

void ThreadNode::Transmit(Message msg) {
  if (config_.coalesce_transport) {
    if (msg.dst >= send_buffers_.size()) return;  // network drops these too
    std::vector<Message>& buf = send_buffers_[msg.dst];
    if (buf.empty()) dirty_dsts_.push_back(msg.dst);
    buf.push_back(std::move(msg));
    return;
  }
  // Same-worker fast path: a co-hosted destination's message hops onto the
  // worker's local queue — no channel lock, no condvar wake — and is
  // handled this loop iteration.
  if (msg.dst < config_.num_nodes && msg.dst != self() && host_ != nullptr &&
      host_->Hosts(msg.dst) && LocalFastPathOpen(msg.dst)) {
    host_->EnqueueLocal(std::move(msg));
    return;
  }
  network_->Send(std::move(msg));
}

bool ThreadNode::LocalFastPathOpen(NodeId dst) const {
  // The fast path must not change observable semantics: with faults armed
  // (loss, link cuts, delays) or either endpoint crashed, the message goes
  // through ThreadNetwork so drops are sampled and counted exactly as for
  // cross-worker traffic.
  return !network_->FaultsArmed() && !Down() && !network_->IsCrashed(dst);
}

void ThreadNode::FlushOutput() {
  // Write-ahead order: this iteration's WAL group becomes durable before
  // any message announcing its decisions reaches another node's mailbox.
  if (metrics().on()) {
    // Time the device round trip, but only count flushes that covered
    // staged records (group_flushes() moves iff the flush did work).
    const uint64_t flushes_before = wal().group_flushes();
    const auto t0 = std::chrono::steady_clock::now();
    (void)wal().Flush();
    if (wal().group_flushes() > flushes_before) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      metrics().registry->Add(metrics().shard, metrics().ids->wal_flushes);
      metrics().registry->Observe(metrics().shard,
                                  metrics().ids->wal_flush_us,
                                  static_cast<uint64_t>(us));
    }
  } else {
    (void)wal().Flush();
  }
  for (NodeId dst : dirty_dsts_) {
    std::vector<Message>& buf = send_buffers_[dst];
    if (dst != self() && host_->Hosts(dst) && LocalFastPathOpen(dst)) {
      host_->EnqueueLocalBatch(&buf);
    } else {
      network_->SendBatch(self(), dst, &buf);
    }
  }
  dirty_dsts_.clear();
}

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

void ThreadNode::Crash() {
  network_->CrashNode(self());
  crash_requested_.store(true);
}

bool ThreadNode::Recover() {
  if (!network_->IsCrashed(self())) return false;
  network_->RecoverNode(self());
  recover_requested_.store(true);
  return true;
}

void ThreadNode::ProcessControl() {
  if (crash_requested_.exchange(false)) {
    CrashCore();
    // Unflushed frames never made it onto the wire: fail-stop means a
    // crashed node's buffered sends die with its volatile state.
    for (NodeId dst : dirty_dsts_) send_buffers_[dst].clear();
    dirty_dsts_.clear();
  }
  if (recover_requested_.exchange(false)) RecoverCore();
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
  workers_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<ThreadWorker>(
        w, workers, network_.get(), config_.coalesce_transport));
  }
  Rng root(config_.seed);
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<ThreadNode>(
        id, config_, network_.get(), workload_.get(), &monitor_,
        root.Next()));
    workers_[id % workers]->AddNode(nodes_.back().get());
  }
  if (config_.telemetry.enabled) {
    core_metrics_ = RegisterCoreMetrics(&metrics_registry_);
    // One shard per event-loop worker: a node records through its hosting
    // worker's shard, so concurrent record paths never share a cell.
    metrics_registry_.Activate(workers);
    for (NodeId id = 0; id < config_.num_nodes; ++id) {
      nodes_[id]->BindMetrics(
          MetricsHandle{&metrics_registry_, &core_metrics_, id % workers});
    }
    for (uint32_t w = 0; w < workers; ++w) {
      workers_[w]->BindMetrics(
          MetricsHandle{&metrics_registry_, &core_metrics_, w});
    }
    sampler_ = std::make_unique<TelemetrySampler>(&metrics_registry_,
                                                  config_.telemetry);
    sampler_->SetPollHook([this] {
      // Only lock-free sources here: the sampler thread runs concurrently
      // with the workers, so thread-confined state (NodeStats, trace
      // recorders) is off limits — ThreadNetwork's counters are atomics.
      const NetworkStats ns = network_->stats();
      metrics_registry_.Set(core_metrics_.net_messages_sent,
                            ns.messages_sent);
      metrics_registry_.Set(core_metrics_.net_messages_delivered,
                            ns.messages_delivered);
      metrics_registry_.Set(core_metrics_.net_messages_dropped,
                            ns.messages_dropped);
      metrics_registry_.Set(core_metrics_.net_bytes_sent, ns.bytes_sent);
    });
  }
}

ThreadCluster::~ThreadCluster() { Stop(); }

void ThreadCluster::Start() {
  ECDB_CHECK(!started_);
  started_ = true;
  for (auto& node : nodes_) node->Bootstrap();
  for (auto& worker : workers_) worker->Start();
  if (sampler_ != nullptr) {
    telemetry_epoch_ = std::chrono::steady_clock::now();
    sampler_->Reset(0);
    sampler_thread_ = std::thread([this] {
      const auto interval =
          std::chrono::microseconds(config_.telemetry.sample_interval_us);
      std::unique_lock<std::mutex> lock(sampler_mu_);
      while (!sampler_stop_) {
        sampler_cv_.wait_for(lock, interval);
        if (sampler_stop_) break;
        sampler_->Sample(TelemetryNowUs());
      }
    });
  }
}

Micros ThreadCluster::TelemetryNowUs() const {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - telemetry_epoch_)
          .count());
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
  if (sampler_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sampler_mu_);
      sampler_stop_ = true;
    }
    sampler_cv_.notify_all();
    sampler_thread_.join();
    // Workers are joined: one final sample closes the tail interval, and
    // thread-confined sources (trace rings) are now safe to fold in.
    uint64_t trace_drops = 0;
    for (const auto& node : nodes_) trace_drops += node->trace().dropped();
    metrics_registry_.Set(core_metrics_.trace_events_dropped, trace_drops);
    sampler_->Sample(TelemetryNowUs());
  }
  started_ = false;
}

uint64_t ThreadCluster::TotalCommitted() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->committed();
  return total;
}

ClusterStats ThreadCluster::CollectStats(double duration_seconds) const {
  ClusterStats out;
  out.duration_seconds = duration_seconds;
  out.num_nodes = config_.num_nodes;
  for (const auto& node : nodes_) {
    NodeStats ns = node->stats();
    // The engine counts rounds itself; a crash recreates the engine and
    // resets the counter, so this undercounts across crashes (documented
    // behaviour — the counter is a failure-handling signal, not an exact
    // ledger).
    ns.termination_rounds = node->engine().termination_rounds();
    ns.acceptor_rounds = node->engine().acceptor_rounds();
    ns.ballots_promoted = node->engine().ballots_promoted();
    ns.quorum_lost_rounds = node->engine().quorum_lost_rounds();
    out.total.Merge(ns);
    out.duplicate_decisions_suppressed +=
        node->engine().duplicate_decisions_suppressed();
    out.wal_group_flushes += node->wal().group_flushes();
    out.trace_events_dropped += node->trace().dropped();
  }
  out.net_messages_from_crashed = network_->messages_from_crashed();
  out.net_messages_to_crashed = network_->messages_to_crashed();
  const NetworkStats net = network_->stats();
  out.net_frames_sent = net.frames_sent;
  out.net_messages_coalesced = net.messages_coalesced;
  out.worker_threads = workers_.size();
  for (const auto& worker : workers_) {
    const WorkerStats& ws = worker->stats();
    out.worker_mailbox_messages += ws.mailbox_messages;
    out.worker_local_messages += ws.local_messages;
  }
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
