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
                           ThreadNetwork* network, bool coalesce)
    : index_(index), stride_(stride), network_(network), coalesce_(coalesce) {}

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

void ThreadWorker::Start() {
  ECDB_CHECK(!running_.load());
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

Micros ThreadWorker::NowUs() const {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_start_)
          .count());
}

void ThreadWorker::EnqueueLocal(Message msg) {
  stats_.local_messages++;
  if (metrics_.on()) {
    metrics_.registry->Add(metrics_.shard, metrics_.ids->worker_local_msgs);
  }
  local_queue_.push_back(std::move(msg));
}

void ThreadWorker::EnqueueLocalBatch(std::vector<Message>* msgs) {
  stats_.local_messages += msgs->size();
  if (metrics_.on()) {
    metrics_.registry->Add(metrics_.shard, metrics_.ids->worker_local_msgs,
                           msgs->size());
  }
  for (Message& m : *msgs) local_queue_.push_back(std::move(m));
  msgs->clear();
}

void ThreadWorker::DispatchBatch(std::vector<Message>& batch) {
  for (Message& msg : batch) {
    // Fail-stop takes effect the instant a hosted node's network is cut,
    // even mid-batch (the node drops its input while down) — but only for
    // that node: co-hosted nodes keep draining their share of the batch.
    NodeFor(msg.dst)->OnMessage(std::move(msg));
  }
}

void ThreadWorker::FireDueTimers() {
  const Micros now = NowUs();
  NodeTimer timer;
  while (timers_.PopDue(now, &timer)) {
    // A crash bumped the owner's epoch: everything it armed before is
    // stale and the node declines it. Timers of co-hosted nodes pop
    // normally around the stale ones.
    if (!NodeFor(timer.node)->FireTimer(timer)) continue;
    stats_.timers_fired++;
    if (metrics_.on()) {
      metrics_.registry->Add(metrics_.shard, metrics_.ids->worker_timers_fired);
    }
  }
}

void ThreadWorker::FlushAll() {
  if (!coalesce_) return;
  // Write-ahead order per node: FlushOutput makes the node's WAL group
  // durable before any of its buffered frames leave (local or remote).
  for (ThreadNode* node : nodes_) node->FlushOutput();
}

void ThreadWorker::DrainLocal() {
  // Same-worker deliveries skip the channel but not the loop discipline:
  // each pass handles the current backlog, then (coalesced) flushes the
  // outputs it produced, which may enqueue more local work. Passes are
  // bounded so a ring of co-hosted nodes feeding each other cannot starve
  // timers and crash/stop processing; leftovers zero the next iteration's
  // mailbox wait instead.
  for (int pass = 0; pass < 8 && !local_queue_.empty(); ++pass) {
    local_processing_.swap(local_queue_);
    DispatchBatch(local_processing_);
    local_processing_.clear();
    FlushAll();
  }
}

void ThreadWorker::Loop() {
  epoch_start_ = std::chrono::steady_clock::now();
  // Every hosted node shares this worker's clock base, so all deadlines in
  // the shared heap are on one time axis.
  for (ThreadNode* node : nodes_) node->OnLoopStart(epoch_start_);
  // The initial client transactions' fragments must leave before the loop
  // first blocks on the mailbox, or every worker starts its run one sleep
  // period late waiting on everyone else's.
  FlushAll();
  DrainLocal();
  std::vector<Message> inbox;  // recycled: PopAll swaps its capacity in
  auto last_wake = epoch_start_;
  while (running_.load(std::memory_order_relaxed)) {
    stats_.iterations++;
    if (metrics_.on()) {
      metrics_.registry->Add(metrics_.shard, metrics_.ids->worker_iterations);
    }
    for (ThreadNode* node : nodes_) node->ProcessControl();

    // Sleep no longer than the earliest timer deadline across all hosted
    // nodes, capped at 1ms so crash/stop requests are observed promptly;
    // leftover local work (a bounded drain bailed out) means no sleep.
    Micros wait_us = local_queue_.empty() ? 1000 : 0;
    Micros deadline = 0;
    if (wait_us != 0 && timers_.PeekDeadline(&deadline)) {
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
      stats_.mailbox_messages += inbox.size();
      stats_.max_batch = std::max<uint64_t>(stats_.max_batch, inbox.size());
      if (metrics_.on()) {
        metrics_.registry->Add(metrics_.shard,
                               metrics_.ids->worker_mailbox_msgs,
                               inbox.size());
      }
      DispatchBatch(inbox);
    }
    FireDueTimers();
    FlushAll();
    DrainLocal();
  }
  stats_.busy_us += ElapsedUs(last_wake, std::chrono::steady_clock::now());
  stats_.wall_us = static_cast<uint64_t>(NowUs());
}

}  // namespace ecdb
