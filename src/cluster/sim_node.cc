#include "cluster/sim_node.h"

#include <memory>
#include <utility>

namespace ecdb {

SimNode::SimNode(NodeId id, const ClusterConfig& config, Scheduler* scheduler,
                 SimNetwork* network, Workload* workload,
                 SafetyMonitor* monitor, uint64_t seed,
                 const MetricsHandle& metrics)
    : NodeCore(id, config, std::make_unique<MemoryWal>(), workload, monitor,
               seed, metrics),
      config_(config),
      scheduler_(scheduler),
      network_(network) {}

SimNode::~SimNode() = default;

void SimNode::JoinNetwork() {
  network_->RegisterNode(self(),
                         [this](const Message& msg) { OnMessage(msg); });
}

NodeCore::TimerId SimNode::ScheduleTimer(Micros at, const NodeTimer& timer) {
  return scheduler_->ScheduleAt(at, [this, timer]() { FireTimer(timer); });
}

// --------------------------------------------------------------------------
// Worker pool model
// --------------------------------------------------------------------------

SimNode::CostVector SimNode::CostOf(Work work) const {
  const ServiceCosts& c = config_.costs;
  CostVector v{};
  auto at = [&v](TimeCategory category) -> Micros& {
    return v[static_cast<size_t>(category)];
  };
  switch (work.kind) {
    case WorkKind::kExecute:
      at(TimeCategory::kUsefulWork) = c.useful_work_per_op_us * work.ops;
      at(TimeCategory::kIndex) = c.index_per_op_us * work.ops;
      at(TimeCategory::kTxnManager) = c.txn_manager_us;
      break;
    case WorkKind::kRemoteReply:
      at(TimeCategory::kTxnManager) = c.remote_reply_us;
      break;
    case WorkKind::kAbort:
      at(TimeCategory::kAbort) = c.abort_cleanup_us;
      break;
    case WorkKind::kCommitMessage:
      at(TimeCategory::kCommit) = c.commit_msg_us;
      break;
    case WorkKind::kOverhead:
      at(TimeCategory::kOverhead) = c.overhead_us;
      break;
  }
  return v;
}

void SimNode::Run(Work work, TaskFn fn) {
  if (crashed()) return;
  if (busy_workers_ < config_.workers_per_node) {
    StartJob(CostOf(work), std::move(fn));
  } else {
    job_queue_.emplace_back(CostOf(work), std::move(fn));
  }
}

void SimNode::StartJob(CostVector cost, TaskFn fn) {
  busy_workers_++;
  Micros total = 0;
  for (Micros c : cost) total += c;
  uint32_t idx;
  if (free_job_slots_.empty()) {
    idx = static_cast<uint32_t>(running_jobs_.size());
    running_jobs_.emplace_back();
  } else {
    idx = free_job_slots_.back();
    free_job_slots_.pop_back();
  }
  RunningJob& job = running_jobs_[idx];
  job.cost = cost;
  job.fn = std::move(fn);
  job.epoch = epoch();
  scheduler_->ScheduleAfter(total, [this, idx]() { FinishJobSlot(idx); });
}

void SimNode::FinishJobSlot(uint32_t idx) {
  // Move the job out before running it: the callable may start new jobs,
  // growing (and reallocating) the pool under us.
  RunningJob job = std::move(running_jobs_[idx]);
  free_job_slots_.push_back(idx);
  if (crashed() || job.epoch != epoch()) return;
  for (size_t i = 0; i < kNumTimeCategories; ++i) {
    if (job.cost[i] != 0) metrics().Add(metrics().ids->time_us[i], job.cost[i]);
  }
  job.fn();
  busy_workers_--;
  if (!job_queue_.empty() && busy_workers_ < config_.workers_per_node) {
    auto [next_cost, next_fn] = std::move(job_queue_.front());
    job_queue_.pop_front();
    StartJob(next_cost, std::move(next_fn));
  }
}

// --------------------------------------------------------------------------
// Fault injection and stats
// --------------------------------------------------------------------------

void SimNode::Crash() {
  network_->CrashNode(self());
  job_queue_.clear();
  busy_workers_ = 0;
  CrashCore();  // the epoch bump orphans every running job
}

bool SimNode::Recover() {
  if (!crashed()) return false;
  network_->RecoverNode(self());
  return RecoverCore();
}

}  // namespace ecdb
