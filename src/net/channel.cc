#include "net/channel.h"

#include <utility>

namespace ecdb {
namespace {

// SplitMix64: cheap, well-mixed hash for thread-safe loss sampling (a
// shared Rng would need a lock on the Send path).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// The delay pump's time axis: steady-clock microseconds.
Micros SteadyUs() {
  return static_cast<Micros>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void MessageChannel::Push(Message msg) {
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    was_empty = queue_.empty();
    queue_.push_back(std::move(msg));
  }
  // Only the empty -> non-empty transition can have a sleeping consumer:
  // PopAll drains the whole queue under the lock, so while messages remain
  // the consumer is awake and will swap them out without waiting.
  if (was_empty) cv_.notify_one();
}

void MessageChannel::PushBatch(std::vector<Message>* msgs) {
  if (msgs->empty()) return;
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      msgs->clear();
      return;
    }
    was_empty = queue_.empty();
    for (Message& m : *msgs) queue_.push_back(std::move(m));
  }
  msgs->clear();
  if (was_empty) cv_.notify_one();
}

bool MessageChannel::PopAll(std::vector<Message>* out,
                            std::chrono::microseconds timeout) {
  out->clear();
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty() && !closed_) {
    cv_.wait_for(lock, timeout, [this] { return !queue_.empty() || closed_; });
  }
  if (queue_.empty()) return false;  // timed out, or closed and drained
  // Swap rather than move: the consumer's drained buffer becomes the next
  // produce buffer, so steady state runs allocation-free in both
  // directions.
  queue_.swap(*out);
  return true;
}

void MessageChannel::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

size_t MessageChannel::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ThreadNetwork::ThreadNetwork(size_t num_nodes, size_t num_mailboxes)
    : channels_(num_mailboxes == 0 ? num_nodes : num_mailboxes),
      crashed_(num_nodes) {
  for (auto& ch : channels_) ch = std::make_unique<MessageChannel>();
  for (auto& c : crashed_) c.store(false, std::memory_order_relaxed);
}

ThreadNetwork::~ThreadNetwork() { Shutdown(); }

void ThreadNetwork::Send(Message msg) {
  const NodeId src = msg.src;
  const NodeId dst = msg.dst;
  std::vector<Message> frame;
  frame.push_back(std::move(msg));
  SendBatch(src, dst, &frame);
}

void ThreadNetwork::SendBatch(NodeId src, NodeId dst,
                              std::vector<Message>* msgs) {
  if (msgs->empty()) return;
  if (dst >= crashed_.size()) {
    msgs->clear();
    return;
  }
  if (crashed_[src].load(std::memory_order_relaxed)) {
    from_crashed_.fetch_add(msgs->size(), std::memory_order_relaxed);
    msgs->clear();
    return;
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  coalesced_.fetch_add(msgs->size() - 1, std::memory_order_relaxed);
  if (faults_armed_.load(std::memory_order_acquire)) {
    // Fault semantics (loss, link cuts, delays) stay per message.
    for (Message& m : *msgs) FaultSend(std::move(m));
    msgs->clear();
    return;
  }
  if (crashed_[dst].load(std::memory_order_relaxed)) {
    to_crashed_.fetch_add(msgs->size(), std::memory_order_relaxed);
    msgs->clear();
    return;
  }
  MailboxFor(dst).PushBatch(msgs);
}

void ThreadNetwork::FaultSend(Message msg) {
  // Counter order mirrors SimNetwork: a message the loss model or a cut
  // link eats *was* sent (counts in sent and dropped); one that hits a
  // crashed destination counts in sent and to_crashed.
  sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(msg.ApproximateBytes(), std::memory_order_relaxed);
  per_type_[static_cast<size_t>(msg.type)].fetch_add(
      1, std::memory_order_relaxed);

  bool down;
  double loss;
  Micros delay;
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    down = links_down_.count(UndirectedKey(msg.src, msg.dst)) != 0;
    loss = drop_probability_;
    auto ed = extra_delay_.find(DirectedKey(msg.src, msg.dst));
    delay = ed != extra_delay_.end() ? ed->second : 0;
  }
  if (down) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (loss > 0.0) {
    const uint64_t n = fault_counter_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t seed = fault_seed_.load(std::memory_order_relaxed);
    if (HashToUnit(SplitMix64(seed ^ n)) < loss) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (delay > 0) {
    {
      std::lock_guard<std::mutex> lock(delay_mu_);
      if (!delay_stop_) {
        delayed_.ScheduleAt(SteadyUs() + delay,
                            [this, m = std::move(msg)]() mutable {
                              Deliver(std::move(m));
                            });
      }
    }
    delay_cv_.notify_one();
    return;
  }
  Deliver(std::move(msg));
}

void ThreadNetwork::Deliver(Message msg) {
  if (crashed_[msg.dst].load(std::memory_order_relaxed)) {
    to_crashed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  MailboxFor(msg.dst).Push(std::move(msg));
  delivered_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadNetwork::DelayPump() {
  std::unique_lock<std::mutex> lock(delay_mu_);
  while (!delay_stop_) {
    Micros due;
    if (!delayed_.NextEventAt(&due)) {
      delay_cv_.wait(lock);
      continue;
    }
    if (due > SteadyUs()) {
      delay_cv_.wait_until(lock, std::chrono::steady_clock::time_point(
                                     std::chrono::microseconds(due)));
      continue;  // re-check: an earlier message may have arrived
    }
    delayed_.RunUntil(SteadyUs());
  }
}

void ThreadNetwork::EnsurePumpLocked() {
  if (!delay_thread_.joinable()) {
    delay_thread_ = std::thread([this] { DelayPump(); });
  }
}

void ThreadNetwork::SetLinkDown(NodeId a, NodeId b, bool down) {
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (down) {
      links_down_.insert(UndirectedKey(a, b));
    } else {
      links_down_.erase(UndirectedKey(a, b));
    }
  }
  Arm();
}

void ThreadNetwork::SetDropProbability(double p) {
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    drop_probability_ = p;
  }
  Arm();
}

void ThreadNetwork::SetExtraDelay(NodeId a, NodeId b, Micros extra_us) {
  {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (extra_us > 0) {
      extra_delay_[DirectedKey(a, b)] = extra_us;
    } else {
      extra_delay_.erase(DirectedKey(a, b));
    }
  }
  if (extra_us > 0) {
    std::lock_guard<std::mutex> lock(delay_mu_);
    if (!delay_stop_) EnsurePumpLocked();
  }
  Arm();
}

void ThreadNetwork::SetFaultSeed(uint64_t seed) {
  fault_seed_.store(seed, std::memory_order_relaxed);
}

NetworkStats ThreadNetwork::stats() const {
  NetworkStats s;
  s.messages_sent = sent_.load(std::memory_order_relaxed);
  s.messages_delivered = delivered_.load(std::memory_order_relaxed);
  s.messages_dropped = dropped_.load(std::memory_order_relaxed);
  s.messages_to_crashed = to_crashed_.load(std::memory_order_relaxed);
  s.messages_from_crashed = from_crashed_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.messages_coalesced = coalesced_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < per_type_.size(); ++i) {
    s.per_type[static_cast<MsgType>(i)] =
        per_type_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void ThreadNetwork::CrashNode(NodeId node) {
  crashed_[node].store(true, std::memory_order_relaxed);
}

void ThreadNetwork::RecoverNode(NodeId node) {
  crashed_[node].store(false, std::memory_order_relaxed);
}

bool ThreadNetwork::IsCrashed(NodeId node) const {
  return crashed_[node].load(std::memory_order_relaxed);
}

void ThreadNetwork::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(delay_mu_);
    delay_stop_ = true;  // pending delayed messages die with the network
  }
  delay_cv_.notify_all();
  if (delay_thread_.joinable()) delay_thread_.join();
  for (auto& ch : channels_) ch->Close();
}

}  // namespace ecdb
