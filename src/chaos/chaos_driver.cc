#include "chaos/chaos_driver.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace ecdb {

namespace {

uint64_t UndirectedKey(NodeId a, NodeId b) {
  NodeId lo = a < b ? a : b;
  NodeId hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

uint64_t DirectedKey(NodeId a, NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// kSplit3 cell index of `node`: 0 = ev.group, 1 = ev.group_b, 2 = rest.
int Split3Cell(const FaultEvent& ev, NodeId node) {
  if (std::find(ev.group.begin(), ev.group.end(), node) != ev.group.end()) {
    return 0;
  }
  if (std::find(ev.group_b.begin(), ev.group_b.end(), node) !=
      ev.group_b.end()) {
    return 1;
  }
  return 2;
}

}  // namespace

ChaosDriver::ChaosDriver(SimCluster* cluster)
    : cluster_(cluster),
      base_drop_probability_(cluster->config().network.drop_probability) {}

void ChaosDriver::Schedule(const FaultPlan& plan) {
  // All events are scheduled up front, before the workload advances: the
  // scheduler orders equal-time events by insertion, so scheduling inside
  // earlier callbacks would change the interleaving between replays.
  Scheduler& sched = cluster_->scheduler();
  const Micros now = sched.Now();
  for (const FaultEvent& ev : plan.events) {
    const Micros delay = ev.at_us > now ? ev.at_us - now : 0;
    FaultEvent copy = ev;
    sched.ScheduleAfter(delay, [this, copy]() { Apply(copy); });
  }
}

void ChaosDriver::Apply(const FaultEvent& ev) {
  SimNetwork& net = cluster_->network();
  Scheduler& sched = cluster_->scheduler();
  faults_applied_++;
  switch (ev.type) {
    case FaultType::kCrash:
      if (ev.a < cluster_->num_nodes() && !cluster_->node(ev.a).crashed()) {
        cluster_->CrashNode(ev.a);
      }
      break;
    case FaultType::kRecover:
      // Recovering a node that is up is rejected by the node itself.
      if (ev.a < cluster_->num_nodes()) cluster_->RecoverNode(ev.a);
      break;
    case FaultType::kLinkCut:
      net.SetLinkDown(ev.a, ev.b, true);
      cut_links_.insert(UndirectedKey(ev.a, ev.b));
      break;
    case FaultType::kLinkHeal:
      net.SetLinkDown(ev.a, ev.b, false);
      cut_links_.erase(UndirectedKey(ev.a, ev.b));
      break;
    case FaultType::kPartition:
      // Cut every link between the group and the rest. Links the plan cut
      // individually stay attributed to cut_links_ (heal order-safe).
      for (NodeId in : ev.group) {
        for (NodeId out = 0; out < cluster_->num_nodes(); ++out) {
          if (std::find(ev.group.begin(), ev.group.end(), out) !=
              ev.group.end()) {
            continue;
          }
          if (cut_links_.count(UndirectedKey(in, out)) != 0) continue;
          net.SetLinkDown(in, out, true);
          partition_cuts_.emplace_back(in, out);
        }
      }
      break;
    case FaultType::kPartitionHeal:
      for (const auto& [a, b] : partition_cuts_) net.SetLinkDown(a, b, false);
      partition_cuts_.clear();
      break;
    case FaultType::kSplit3:
      // Cut every cross-cell link among the three cells (group / group_b /
      // rest); healed by the same kPartitionHeal bookkeeping as kPartition.
      for (NodeId x = 0; x < cluster_->num_nodes(); ++x) {
        for (NodeId y = x + 1; y < cluster_->num_nodes(); ++y) {
          if (Split3Cell(ev, x) == Split3Cell(ev, y)) continue;
          if (cut_links_.count(UndirectedKey(x, y)) != 0) continue;
          net.SetLinkDown(x, y, true);
          partition_cuts_.emplace_back(x, y);
        }
      }
      break;
    case FaultType::kLossBurst: {
      net.SetDropProbability(ev.probability);
      const double base = base_drop_probability_;
      sched.ScheduleAfter(ev.duration_us, [this, base]() {
        cluster_->network().SetDropProbability(base);
      });
      break;
    }
    case FaultType::kDelaySpike: {
      net.SetExtraDelay(ev.a, ev.b, ev.delay_us);
      net.SetExtraDelay(ev.b, ev.a, ev.delay_us);
      delayed_links_.insert(DirectedKey(ev.a, ev.b));
      delayed_links_.insert(DirectedKey(ev.b, ev.a));
      const NodeId a = ev.a, b = ev.b;
      sched.ScheduleAfter(ev.duration_us, [this, a, b]() {
        cluster_->network().SetExtraDelay(a, b, 0);
        cluster_->network().SetExtraDelay(b, a, 0);
        delayed_links_.erase(DirectedKey(a, b));
        delayed_links_.erase(DirectedKey(b, a));
      });
      break;
    }
    case FaultType::kFaultTypeCount:
      break;
  }
}

void ChaosDriver::ClearFaults() {
  SimNetwork& net = cluster_->network();
  net.SetDropProbability(base_drop_probability_);
  for (const auto& [a, b] : partition_cuts_) net.SetLinkDown(a, b, false);
  partition_cuts_.clear();
  for (uint64_t key : cut_links_) {
    net.SetLinkDown(static_cast<NodeId>(key >> 32),
                    static_cast<NodeId>(key & 0xFFFFFFFFULL), false);
  }
  cut_links_.clear();
  for (uint64_t key : delayed_links_) {
    net.SetExtraDelay(static_cast<NodeId>(key >> 32),
                      static_cast<NodeId>(key & 0xFFFFFFFFULL), 0);
  }
  delayed_links_.clear();
  for (NodeId id = 0; id < cluster_->num_nodes(); ++id) {
    cluster_->RecoverNode(id);
  }
}

// --------------------------------------------------------------------------
// Threaded runtime (crash/loss subset)
// --------------------------------------------------------------------------

void ApplyPlanToThreadCluster(const FaultPlan& plan, ThreadCluster* cluster,
                              double time_scale) {
  if (time_scale <= 0.0) time_scale = 1.0;
  ThreadNetwork& net = cluster->network();
  net.SetFaultSeed(plan.seed);

  // Flatten duration-based events into apply/restore points, then walk the
  // timeline in wall clock.
  struct TimedAction {
    Micros at_us;
    FaultEvent ev;
    bool restore;
  };
  std::vector<TimedAction> timeline;
  for (const FaultEvent& ev : plan.events) {
    timeline.push_back({ev.at_us, ev, false});
    if (ev.type == FaultType::kLossBurst ||
        ev.type == FaultType::kDelaySpike) {
      timeline.push_back({ev.at_us + ev.duration_us, ev, true});
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimedAction& x, const TimedAction& y) {
                     return x.at_us < y.at_us;
                   });

  const size_t n = cluster->num_nodes();
  std::vector<std::pair<NodeId, NodeId>> partition_cuts;
  const auto start = std::chrono::steady_clock::now();
  for (const TimedAction& action : timeline) {
    const auto due = start + std::chrono::microseconds(static_cast<uint64_t>(
                                 static_cast<double>(action.at_us) /
                                 time_scale));
    std::this_thread::sleep_until(due);
    const FaultEvent& ev = action.ev;
    switch (ev.type) {
      case FaultType::kCrash:
        if (ev.a < n && !net.IsCrashed(ev.a)) cluster->node(ev.a).Crash();
        break;
      case FaultType::kRecover:
        if (ev.a < n) cluster->node(ev.a).Recover();
        break;
      case FaultType::kLinkCut:
        net.SetLinkDown(ev.a, ev.b, true);
        break;
      case FaultType::kLinkHeal:
        net.SetLinkDown(ev.a, ev.b, false);
        break;
      case FaultType::kPartition:
        for (NodeId in : ev.group) {
          for (NodeId out = 0; out < n; ++out) {
            if (std::find(ev.group.begin(), ev.group.end(), out) !=
                ev.group.end()) {
              continue;
            }
            net.SetLinkDown(in, out, true);
            partition_cuts.emplace_back(in, out);
          }
        }
        break;
      case FaultType::kPartitionHeal:
        for (const auto& [a, b] : partition_cuts) net.SetLinkDown(a, b, false);
        partition_cuts.clear();
        break;
      case FaultType::kSplit3:
        for (NodeId x = 0; x < n; ++x) {
          for (NodeId y = static_cast<NodeId>(x + 1); y < n; ++y) {
            if (Split3Cell(ev, x) == Split3Cell(ev, y)) continue;
            net.SetLinkDown(x, y, true);
            partition_cuts.emplace_back(x, y);
          }
        }
        break;
      case FaultType::kLossBurst:
        net.SetLossProbability(action.restore ? 0.0 : ev.probability);
        break;
      case FaultType::kDelaySpike: {
        const Micros d =
            action.restore
                ? 0
                : static_cast<Micros>(static_cast<double>(ev.delay_us) /
                                      time_scale);
        net.SetExtraDelay(ev.a, ev.b, d);
        net.SetExtraDelay(ev.b, ev.a, d);
        break;
      }
      case FaultType::kFaultTypeCount:
        break;
    }
  }

  // End of plan: fault-free network, everyone back up.
  net.ClearFaults();
  for (NodeId id = 0; id < n; ++id) cluster->node(id).Recover();
}

}  // namespace ecdb
