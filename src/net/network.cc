#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ecdb {

SimNetwork::SimNetwork(Scheduler* scheduler, NetworkConfig config,
                       uint64_t seed)
    : scheduler_(scheduler), config_(config), rng_(seed) {}

void SimNetwork::RegisterNode(NodeId node, Handler handler) {
  if (node >= handlers_.size()) handlers_.resize(node + 1);
  handlers_[node] = std::move(handler);
}

bool SimNetwork::LinkDown(NodeId a, NodeId b) const {
  if (links_down_.empty()) return false;
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return links_down_.Contains(LinkKey(lo, hi));
}

Micros SimNetwork::SampleLatency(NodeId src, NodeId dst) {
  Micros latency = config_.base_latency_us;
  if (config_.jitter_us > 0) {
    latency += rng_.NextBounded(config_.jitter_us + 1);
  }
  if (!extra_delay_.empty()) {
    const Micros* extra = extra_delay_.Find(LinkKey(src, dst));
    if (extra != nullptr) latency += *extra;
  }
  return latency;
}

void SimNetwork::Send(Message msg) {
  if (send_filter_ && !send_filter_(msg)) return;

  // A crashed node cannot put a message on the wire, so nothing it "sends"
  // reaches the traffic counters — only the dedicated from-crashed counter.
  // Checked before any accounting so the message-complexity ablations don't
  // credit dead nodes with network work.
  if (IsCrashed(msg.src)) {
    stats_.messages_from_crashed++;
    return;
  }

  stats_.messages_sent++;
  stats_.bytes_sent += msg.ApproximateBytes();
  stats_.per_type[msg.type]++;

  if (LinkDown(msg.src, msg.dst)) {
    stats_.messages_dropped++;
    return;
  }

  // Every message travels in a frame; loss and latency are drawn once per
  // frame when it is flushed. Without coalescing the frame closes at its
  // first message, so it leaves at once, as a frame of one.
  AppendToFrame(std::move(msg));
  if (!coalesce_) FlushCoalesced();
}

void SimNetwork::EnableCoalescing(bool on) {
  if (on == coalesce_) return;
  if (!on) FlushCoalesced();  // open frames still go out coalesced
  coalesce_ = on;
  if (on) {
    scheduler_->SetPostStepHook(&SimNetwork::FlushHookThunk, this);
  } else {
    scheduler_->SetPostStepHook(nullptr, nullptr);
  }
}

void SimNetwork::AppendToFrame(Message msg) {
  // One hash probe per coalesced message: an existing live entry means
  // this step already opened a frame on the link. The table holds only
  // links that ever carried coalesced traffic — O(active links), not
  // O(n^2) — and a flush invalidates all entries at once via the epoch
  // stamp. Without coalescing no frame is open yet, so there is no probe.
  if (coalesce_) {
    LinkSlot& slot = slot_by_link_[LinkKey(msg.src, msg.dst)];
    if (slot.epoch == flush_epoch_) {
      open_frames_[slot.idx].frame.messages.push_back(std::move(msg));
      return;
    }
    slot.epoch = flush_epoch_;
    slot.idx = static_cast<uint32_t>(num_open_);
  }
  if (num_open_ == open_frames_.size()) open_frames_.emplace_back();
  OpenFrame& of = open_frames_[num_open_++];
  of.frame.src = msg.src;
  of.frame.dst = msg.dst;
  of.frame.messages.push_back(std::move(msg));
}

uint32_t SimNetwork::AcquireFlightBatch() {
  if (!free_flight_.empty()) {
    const uint32_t idx = free_flight_.back();
    free_flight_.pop_back();
    return idx;
  }
  flight_.emplace_back();
  return static_cast<uint32_t>(flight_.size() - 1);
}

void SimNetwork::FlushCoalesced() {
  if (num_open_ == 0) return;
  const size_t n = num_open_;
  num_open_ = 0;
  flush_epoch_++;  // invalidates every LinkSlot in O(1)
  // Pass 1, in frame-creation order so the RNG stream is deterministic:
  // one loss coin and one latency sample per frame.
  for (size_t i = 0; i < n; ++i) {
    OpenFrame& of = open_frames_[i];
    stats_.frames_sent++;
    stats_.messages_coalesced += of.frame.messages.size() - 1;
    if (config_.drop_probability > 0.0 &&
        rng_.NextBernoulli(config_.drop_probability)) {
      // A lost frame loses every message inside it.
      stats_.messages_dropped += of.frame.messages.size();
      of.frame.messages.clear();
      of.consumed = true;
      continue;
    }
    of.consumed = false;
    of.latency = SampleLatency(of.frame.src, of.frame.dst);
  }
  // Pass 2: frames arriving at the same instant share one delivery event —
  // on a jitter-free network this collapses a whole broadcast step into a
  // single scheduler entry.
  for (size_t i = 0; i < n; ++i) {
    if (open_frames_[i].consumed) continue;
    const Micros latency = open_frames_[i].latency;
    const uint32_t bi = AcquireFlightBatch();
    FlightBatch& batch = flight_[bi];
    for (size_t j = i; j < n; ++j) {
      OpenFrame& of = open_frames_[j];
      if (of.consumed || of.latency != latency) continue;
      if (batch.used == batch.frames.size()) batch.frames.emplace_back();
      MessageFrame& slot = batch.frames[batch.used++];
      slot.src = of.frame.src;
      slot.dst = of.frame.dst;
      slot.messages.swap(of.frame.messages);  // both keep their capacity
      of.frame.messages.clear();
      of.consumed = true;
    }
    scheduler_->ScheduleAfter(latency, [this, bi]() { DeliverBatch(bi); });
  }
}

void SimNetwork::DeliverBatch(uint32_t batch_idx) {
  // Indexed, not held by reference: without coalescing a handler's send
  // flushes at once and may grow `flight_`. This batch's frames stay put,
  // as no one else touches a batch until it is freed below.
  for (size_t i = 0; i < flight_[batch_idx].used; ++i) {
    MessageFrame& frame = flight_[batch_idx].frames[i];
    for (Message& m : frame.messages) {
      // Per-message delivery checks: the interceptor may crash the
      // destination mid-frame, so crash state is re-read for every
      // message.
      if (IsCrashed(frame.dst)) {
        stats_.messages_to_crashed++;
        continue;
      }
      if (interceptor_ && !interceptor_(m)) {
        stats_.messages_dropped++;
        continue;
      }
      if (frame.dst >= handlers_.size() || !handlers_[frame.dst]) {
        ECDB_LOG(kWarn, "message to unregistered node %u dropped", frame.dst);
        continue;
      }
      stats_.messages_delivered++;
      handlers_[frame.dst](m);
    }
    frame.messages.clear();
  }
  flight_[batch_idx].used = 0;
  free_flight_.push_back(batch_idx);
}

void SimNetwork::CrashNode(NodeId node) {
  if (node >= crashed_.size()) crashed_.resize(node + 1, 0);
  crashed_[node] = 1;
}

void SimNetwork::RecoverNode(NodeId node) {
  if (node < crashed_.size()) crashed_[node] = 0;
}

void SimNetwork::SetLinkDown(NodeId a, NodeId b, bool down) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  if (down) {
    links_down_[LinkKey(lo, hi)] = 1;
  } else {
    links_down_.Erase(LinkKey(lo, hi));
  }
}

void SimNetwork::SetExtraDelay(NodeId a, NodeId b, Micros extra_us) {
  if (extra_us == 0) {
    extra_delay_.Erase(LinkKey(a, b));
  } else {
    extra_delay_[LinkKey(a, b)] = extra_us;
  }
}

void SimNetwork::SetDeliveryInterceptor(DeliveryInterceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

void SimNetwork::SetSendFilter(SendFilter filter) {
  send_filter_ = std::move(filter);
}

}  // namespace ecdb
