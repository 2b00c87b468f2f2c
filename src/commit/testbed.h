#ifndef ECDB_COMMIT_TESTBED_H_
#define ECDB_COMMIT_TESTBED_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/sim_node.h"
#include "commit/invariants.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "trace/trace_recorder.h"
#include "wal/wal.h"

namespace ecdb {
namespace testbed {

/// Protocol test/experimentation kit: bare hosts and a scripted cluster
/// for driving the commit engines without the full database. Used by the
/// unit tests, the exhaustive failure sweeps and the ablation benchmarks;
/// exposed as a library so downstream users can script their own failure
/// scenarios.
///
/// A bare protocol host: a simulated node without storage or clients that
/// runs every unit of work inline (no worker-pool model, so protocol
/// steps take zero simulated time). It adds only test controls — a fixed
/// vote, crash right after the local apply, and per-transaction
/// applied/cleaned records — so protocol unit and property tests can
/// script exact scenarios. A host is fail-stopped by crashing it in the
/// network (network().CrashNode).
class ProtocolHost : public SimNode {
 public:
  /// `config` and the registry behind `metrics` must outlive the host
  /// (ProtocolTestbed owns both).
  ProtocolHost(NodeId id, const ClusterConfig& config, Scheduler* scheduler,
               SimNetwork* network, SafetyMonitor* monitor,
               const MetricsHandle& metrics)
      : SimNode(id, config, scheduler, network, /*workload=*/nullptr, monitor,
                /*seed=*/0, metrics),
        network_(network) {
    set_vote_override([this](TxnId) { return vote_; });
    JoinNetwork();
  }

  void ApplyDecision(TxnId txn, Decision decision) override {
    NodeCore::ApplyDecision(txn, decision);
    if (Down()) return;  // the core skipped the apply too
    applied_[txn] = decision;
    if (crash_after_apply_) {
      // Fail-stop immediately after the local commit/abort step: the
      // narrowest window in which a decided node can disappear.
      network_->CrashNode(self());
    }
  }

  void OnBlocked(TxnId txn) override {
    NodeCore::OnBlocked(txn);
    ++blocked_;
  }

  void OnCleanup(TxnId txn) override {
    NodeCore::OnCleanup(txn);
    cleaned_.insert(txn);
  }

  // --- Test controls ---
  void set_vote(Decision vote) { vote_ = vote; }
  void set_crash_after_apply(bool v) { crash_after_apply_ = v; }

  std::optional<Decision> applied(TxnId txn) const {
    auto it = applied_.find(txn);
    if (it == applied_.end()) return std::nullopt;
    return it->second;
  }
  bool cleaned(TxnId txn) const { return cleaned_.count(txn) > 0; }
  uint64_t blocked_count() const { return blocked_; }

  /// Log entry types for `txn`, in order.
  std::vector<LogRecordType> LogTypes(TxnId txn) const {
    std::vector<LogRecordType> out;
    for (const LogRecord& r : wal().Scan()) {
      if (r.txn == txn) out.push_back(r.type);
    }
    return out;
  }

 private:
  void Run(Work work, TaskFn fn) override {
    (void)work;
    fn();
  }

  SimNetwork* network_;
  Decision vote_ = Decision::kCommit;
  std::unordered_map<TxnId, Decision> applied_;
  std::unordered_set<TxnId> cleaned_;
  uint64_t blocked_ = 0;
  bool crash_after_apply_ = false;
};

/// A cluster of ProtocolHosts over a SimNetwork: the fixture for protocol
/// unit tests and the exhaustive failure sweeps.
class ProtocolTestbed {
 public:
  ProtocolTestbed(CommitProtocol protocol, uint32_t num_nodes,
                  NetworkConfig net = {}, CommitEngineConfig commit = {},
                  uint64_t seed = 7)
      : network_(&scheduler_, net, seed) {
    config_.num_nodes = num_nodes;
    config_.clients_per_node = 0;
    config_.protocol = protocol;
    config_.commit = commit;
    ids_ = RegisterCoreMetrics(&registry_);
    registry_.Activate(1);
    for (NodeId id = 0; id < num_nodes; ++id) {
      hosts_.push_back(std::make_unique<ProtocolHost>(
          id, config_, &scheduler_, &network_, &monitor_,
          MetricsHandle{&registry_, &ids_, 0}));
    }
  }

  /// Starts the commit protocol for one transaction spanning all nodes,
  /// coordinated by node 0. Returns the txn id.
  TxnId StartAll(Decision coordinator_vote = Decision::kCommit) {
    const TxnId txn = MakeTxnId(0, ++seq_);
    // One shared buffer for all n engine records — at large
    // n a per-host deep copy would be O(n^2) bytes per round.
    CowVector<NodeId> participants;
    for (NodeId id = 0; id < hosts_.size(); ++id) participants.push_back(id);
    for (NodeId id = 1; id < hosts_.size(); ++id) {
      hosts_[id]->engine().ExpectPrepare(txn, 0, participants);
    }
    hosts_[0]->engine().StartCommit(txn, participants, coordinator_vote);
    return txn;
  }

  /// Runs the simulation to quiescence (or the event cap).
  size_t Settle(size_t max_events = 1'000'000) {
    return scheduler_.RunAll(max_events);
  }

  /// Turns on tracing on every host. Call before the scenario runs.
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity) {
    for (auto& h : hosts_) h->EnableTracing(capacity);
  }

  /// Per-node recorders, for CollectEvents + the exporters.
  std::vector<const TraceRecorder*> recorders() const {
    std::vector<const TraceRecorder*> out;
    out.reserve(hosts_.size());
    for (const auto& h : hosts_) out.push_back(&h->trace());
    return out;
  }

  /// Everything the hosts counted, summed over them.
  NodeStats Totals() const {
    return CoreStats(registry_.Snapshot(), ids_).total;
  }

  ProtocolHost& host(NodeId id) { return *hosts_[id]; }
  size_t num_nodes() const { return hosts_.size(); }
  Scheduler& scheduler() { return scheduler_; }
  SimNetwork& network() { return network_; }
  SafetyMonitor& monitor() { return monitor_; }

  /// True when every non-crashed node applied a decision for `txn`.
  bool AllActiveDecided(TxnId txn) const {
    for (NodeId id = 0; id < hosts_.size(); ++id) {
      if (network_.IsCrashed(id)) continue;
      if (!hosts_[id]->applied(txn).has_value()) return false;
    }
    return true;
  }

 private:
  Scheduler scheduler_;
  SimNetwork network_;
  SafetyMonitor monitor_;
  ClusterConfig config_;
  MetricsRegistry registry_;  // every host records into shard 0
  CoreMetrics ids_;
  std::vector<std::unique_ptr<ProtocolHost>> hosts_;
  uint64_t seq_ = 0;
};

}  // namespace testbed
}  // namespace ecdb

#endif  // ECDB_COMMIT_TESTBED_H_
