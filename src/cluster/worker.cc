#include "cluster/worker.h"

#include <algorithm>

#include "cluster/thread_node.h"
#include "common/logging.h"
#include "net/channel.h"

namespace ecdb {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

ThreadWorker::ThreadWorker(uint32_t index, uint32_t stride,
                           ThreadNetwork* network,
                           const MetricsHandle& metrics)
    : index_(index), stride_(stride), network_(network), metrics_(metrics) {}

ThreadWorker::~ThreadWorker() { Stop(); }

void ThreadWorker::AddNode(ThreadNode* node) {
  ECDB_CHECK(!running_.load());
  ECDB_CHECK(Hosts(node->self()));
  // Ascending-id registration makes NodeFor a single index: the node with
  // id = index + k * stride sits at position k == id / stride.
  ECDB_CHECK(node->self() / stride_ == nodes_.size());
  nodes_.push_back(node);
  node->BindHost(this);
  stats_.nodes_hosted = static_cast<uint32_t>(nodes_.size());
}

void ThreadWorker::Start(std::chrono::steady_clock::time_point epoch) {
  ECDB_CHECK(!running_.load());
  epoch_start_ = epoch;
  running_.store(true);
  thread_ = std::thread([this] { Loop(); });
}

void ThreadWorker::SignalStop() {
  running_.store(false, std::memory_order_relaxed);
}

void ThreadWorker::Stop() {
  SignalStop();
  if (thread_.joinable()) thread_.join();
}

WorkerStats ThreadWorker::stats() const {
  WorkerStats out = stats_;
  const MetricsRegistry& reg = *metrics_.registry;
  const CoreMetrics& ids = *metrics_.ids;
  out.iterations = reg.Value(metrics_.shard, ids.worker_iterations);
  out.mailbox_messages = reg.Value(metrics_.shard, ids.worker_mailbox_msgs);
  out.local_messages = reg.Value(metrics_.shard, ids.worker_local_msgs);
  out.timers_fired = reg.Value(metrics_.shard, ids.worker_timers_fired);
  return out;
}

Micros ThreadWorker::NowUs() const {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_start_)
          .count());
}

void ThreadWorker::EnqueueLocalBatch(std::vector<Message>* msgs) {
  metrics_.Add(metrics_.ids->worker_local_msgs, msgs->size());
  for (Message& m : *msgs) local_queue_.push_back(std::move(m));
  msgs->clear();
}

void ThreadWorker::DispatchBatch(std::vector<Message>& batch) {
  for (Message& msg : batch) {
    // A crashed node drops its input while down — but only that node:
    // co-hosted nodes keep draining their share of the batch.
    NodeFor(msg.dst)->OnMessage(std::move(msg));
  }
}

void ThreadWorker::FlushAll() {
  // Write-ahead order per node: FlushOutput makes the node's WAL group
  // durable before any of its buffered frames leave (local or remote).
  for (ThreadNode* node : nodes_) node->FlushOutput();
}

void ThreadWorker::DrainLocal() {
  // Same-worker deliveries skip the channel but not the loop discipline:
  // each pass handles the current backlog, then flushes the outputs it
  // produced, which may enqueue more local work. Passes are bounded so a
  // ring of co-hosted nodes feeding each other cannot starve timers and
  // crash/stop processing; leftovers zero the next iteration's mailbox
  // wait instead.
  for (int pass = 0; pass < 8 && !local_queue_.empty(); ++pass) {
    local_processing_.swap(local_queue_);
    DispatchBatch(local_processing_);
    local_processing_.clear();
    FlushAll();
  }
}

void ThreadWorker::Loop() {
  const auto loop_start = std::chrono::steady_clock::now();
  for (ThreadNode* node : nodes_) {
    // A node whose crash is already pending (a restarted process about to
    // recover from its WAL) would lose these transactions at once: its
    // recovery starts the clients instead, with ids past the logged ones.
    if (!node->crash_requested_.load()) node->StartClients();
  }
  // The initial client transactions' fragments must leave before the loop
  // first blocks on the mailbox, or every worker starts its run one sleep
  // period late waiting on everyone else's.
  FlushAll();
  DrainLocal();
  std::vector<Message> inbox;  // recycled: PopAll swaps its capacity in
  auto last_wake = loop_start;
  while (running_.load(std::memory_order_relaxed)) {
    metrics_.Add(metrics_.ids->worker_iterations);
    for (ThreadNode* node : nodes_) node->ProcessControl();

    // Sleep no longer than the earliest timer deadline across all hosted
    // nodes, capped at 1ms so crash/stop requests are observed promptly;
    // leftover local work (a bounded drain bailed out) means no sleep.
    Micros wait_us = local_queue_.empty() ? 1000 : 0;
    Micros deadline = 0;
    if (wait_us != 0 && timers_.NextEventAt(&deadline)) {
      const Micros now = NowUs();
      wait_us = deadline <= now ? 0 : std::min<Micros>(1000, deadline - now);
    }
    const auto before_wait = std::chrono::steady_clock::now();
    stats_.busy_us += ElapsedUs(last_wake, before_wait);
    const bool got = network_->worker_channel(index_).PopAll(
        &inbox, std::chrono::microseconds(wait_us));
    last_wake = std::chrono::steady_clock::now();
    if (got) {
      stats_.mailbox_batches++;
      stats_.max_batch = std::max<uint64_t>(stats_.max_batch, inbox.size());
      metrics_.Add(metrics_.ids->worker_mailbox_msgs, inbox.size());
      DispatchBatch(inbox);
    }
    // A crash bumped its node's epoch: the node declines every timer it
    // armed before (see ThreadNode::ScheduleTimer), while co-hosted nodes'
    // timers fire normally around them.
    timers_.RunUntil(NowUs());
    FlushAll();
    DrainLocal();
  }
  stats_.busy_us += ElapsedUs(last_wake, std::chrono::steady_clock::now());
  stats_.wall_us = ElapsedUs(loop_start, std::chrono::steady_clock::now());
}

}  // namespace ecdb
