#include "chaos/chaos_driver.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sim/scheduler.h"

namespace ecdb {

namespace {

std::pair<NodeId, NodeId> Undirected(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

/// Partition cell of `node`: 0 = ev.group, 1 = ev.group_b (kSplit3 only),
/// 2 = the rest.
uint8_t CellOf(const FaultEvent& ev, NodeId node) {
  if (std::find(ev.group.begin(), ev.group.end(), node) != ev.group.end()) {
    return 0;
  }
  if (std::find(ev.group_b.begin(), ev.group_b.end(), node) !=
      ev.group_b.end()) {
    return 1;
  }
  return 2;
}

/// Ends fault `id` of `active`; false when it was cleared already.
template <typename Fault>
bool End(std::vector<Fault>* active, uint64_t id) {
  return std::erase_if(*active, [id](const Fault& f) { return f.id == id; }) !=
         0;
}

/// ThreadCluster's levers. The plan clock is a Scheduler in plan time,
/// walked in wall clock on the calling thread by Run().
class ThreadFaultHost : public FaultHost {
 public:
  ThreadFaultHost(ThreadCluster* cluster, double time_scale)
      : cluster_(cluster), time_scale_(time_scale) {}

  size_t num_nodes() const override { return cluster_->num_nodes(); }
  void Crash(NodeId node) override {
    if (!cluster_->network().IsCrashed(node)) cluster_->node(node).Crash();
  }
  void Recover(NodeId node) override { cluster_->node(node).Recover(); }
  void SetLinkDown(NodeId a, NodeId b, bool down) override {
    cluster_->network().SetLinkDown(a, b, down);
  }
  void SetDropProbability(double p) override {
    cluster_->network().SetDropProbability(p);
  }
  void SetExtraDelay(NodeId a, NodeId b, Micros extra_us) override {
    cluster_->network().SetExtraDelay(
        a, b, static_cast<Micros>(static_cast<double>(extra_us) / time_scale_));
  }
  Micros Now() const override { return plan_.Now(); }
  void After(Micros delay_us, std::function<void()> fn) override {
    plan_.ScheduleAfter(delay_us, std::move(fn));
  }

  /// Fires every action, including the ones actions schedule, each at
  /// its plan time / time_scale after the call.
  void Run() {
    const auto start = std::chrono::steady_clock::now();
    Micros next;
    while (plan_.NextEventAt(&next)) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(static_cast<uint64_t>(
                      static_cast<double>(next) / time_scale_)));
      plan_.RunUntil(next);
    }
  }

 private:
  ThreadCluster* cluster_;
  double time_scale_;
  Scheduler plan_;
};

}  // namespace

ChaosDriver::ChaosDriver(FaultHost* host, double base_drop_probability)
    : host_(host), base_drop_probability_(base_drop_probability) {}

void ChaosDriver::Schedule(const FaultPlan& plan) {
  // All events are scheduled up front, before the workload advances: the
  // plan clock orders equal-time actions by insertion, so scheduling inside
  // earlier actions would change the interleaving between replays.
  const Micros now = host_->Now();
  for (const FaultEvent& ev : plan.events) {
    host_->After(ev.at_us > now ? ev.at_us - now : 0,
                 [this, ev]() { Apply(ev); });
  }
}

void ChaosDriver::Apply(const FaultEvent& ev) {
  const size_t n = host_->num_nodes();
  faults_applied_++;
  switch (ev.type) {
    case FaultType::kCrash:
      if (ev.a < n) host_->Crash(ev.a);
      break;
    case FaultType::kRecover:
      if (ev.a < n) host_->Recover(ev.a);
      break;
    case FaultType::kLinkCut:
      cut_links_.insert(Undirected(ev.a, ev.b));
      SyncLinks();
      break;
    case FaultType::kLinkHeal:
      cut_links_.erase(Undirected(ev.a, ev.b));
      SyncLinks();
      break;
    case FaultType::kPartition:
    case FaultType::kSplit3: {
      std::vector<uint8_t> cells(n);
      for (NodeId id = 0; id < n; ++id) cells[id] = CellOf(ev, id);
      partitions_.push_back(std::move(cells));
      SyncLinks();
      break;
    }
    case FaultType::kPartitionHeal:
      partitions_.clear();
      SyncLinks();
      break;
    case FaultType::kLossBurst: {
      const uint64_t id = next_fault_id_++;
      bursts_.push_back({id, ev.probability});
      host_->SetDropProbability(ev.probability);
      host_->After(ev.duration_us, [this, id]() {
        if (!End(&bursts_, id)) return;  // cleared already
        host_->SetDropProbability(bursts_.empty() ? base_drop_probability_
                                                  : bursts_.back().value);
      });
      break;
    }
    case FaultType::kDelaySpike: {
      const uint64_t id = next_fault_id_++;
      const Link link = Undirected(ev.a, ev.b);
      spikes_[link].push_back({id, ev.delay_us});
      SyncDelay(link);
      host_->After(ev.duration_us, [this, id, link]() {
        auto it = spikes_.find(link);
        if (it == spikes_.end() || !End(&it->second, id)) return;  // cleared
        SyncDelay(link);
        if (it->second.empty()) spikes_.erase(it);
      });
      break;
    }
    case FaultType::kFaultTypeCount:
      break;
  }
}

void ChaosDriver::SyncLinks() {
  const NodeId n = static_cast<NodeId>(host_->num_nodes());
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = x + 1; y < n; ++y) {
      bool down = cut_links_.count({x, y}) != 0;
      for (const std::vector<uint8_t>& cells : partitions_) {
        down = down || cells[x] != cells[y];
      }
      if (down == (links_down_.count({x, y}) != 0)) continue;
      host_->SetLinkDown(x, y, down);
      if (down) {
        links_down_.insert({x, y});
      } else {
        links_down_.erase({x, y});
      }
    }
  }
}

void ChaosDriver::SyncDelay(const Link& link) {
  const std::vector<Active<Micros>>& active = spikes_[link];
  const Micros delay = active.empty() ? 0 : active.back().value;
  host_->SetExtraDelay(link.first, link.second, delay);
  host_->SetExtraDelay(link.second, link.first, delay);
}

void ChaosDriver::ClearFaults() {
  host_->SetDropProbability(base_drop_probability_);
  bursts_.clear();
  cut_links_.clear();
  partitions_.clear();
  SyncLinks();
  for (auto& [link, active] : spikes_) {
    active.clear();
    SyncDelay(link);
  }
  spikes_.clear();
  for (NodeId id = 0; id < host_->num_nodes(); ++id) host_->Recover(id);
}

void SimFaultHost::Crash(NodeId node) {
  if (!cluster_->node(node).crashed()) cluster_->CrashNode(node);
}

void SimFaultHost::Recover(NodeId node) { cluster_->RecoverNode(node); }

void SimFaultHost::SetLinkDown(NodeId a, NodeId b, bool down) {
  cluster_->network().SetLinkDown(a, b, down);
}

void SimFaultHost::SetDropProbability(double p) {
  cluster_->network().SetDropProbability(p);
}

void SimFaultHost::SetExtraDelay(NodeId a, NodeId b, Micros extra_us) {
  cluster_->network().SetExtraDelay(a, b, extra_us);
}

Micros SimFaultHost::Now() const { return cluster_->scheduler().Now(); }

void SimFaultHost::After(Micros delay_us, std::function<void()> fn) {
  cluster_->scheduler().ScheduleAfter(delay_us, std::move(fn));
}

uint64_t ApplyPlanToThreadCluster(const FaultPlan& plan,
                                  ThreadCluster* cluster, double time_scale) {
  if (time_scale <= 0.0) time_scale = 1.0;
  cluster->network().SetFaultSeed(plan.seed);
  ThreadFaultHost host(cluster, time_scale);
  ChaosDriver driver(&host, /*base_drop_probability=*/0.0);
  driver.Schedule(plan);
  // Run to the plan horizon, past the plan's last fault, so the caller's
  // stats cover the same window as a simulator run of the plan.
  host.After(plan.horizon_us, [] {});
  host.Run();
  driver.ClearFaults();
  return driver.faults_applied();
}

}  // namespace ecdb
