#ifndef ECDB_CLUSTER_SIM_NODE_H_
#define ECDB_CLUSTER_SIM_NODE_H_

#include <array>
#include <deque>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "cluster/node_core.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace ecdb {

/// One simulated server process: a NodeCore hosted on the shared
/// discrete-event scheduler. Messages flow through the simulated network,
/// timers through the scheduler, and every unit of node work occupies one
/// of `workers_per_node` modeled worker threads for its service time under
/// the Figure-12 cost model (ServiceCosts), recorded per category into the
/// registry's time counters.
class SimNode : public NodeCore {
 public:
  SimNode(NodeId id, const ClusterConfig& config, Scheduler* scheduler,
          SimNetwork* network, Workload* workload, SafetyMonitor* monitor,
          uint64_t seed, const MetricsHandle& metrics);
  ~SimNode() override;

  /// Registers with the network so the node receives messages. Call on
  /// the thread that drives the cluster, once, after Bootstrap().
  void JoinNetwork();

  /// Fail-stop crash: the network drops the node and its queued and
  /// running jobs die with the core's volatile state; the WAL survives.
  void Crash();

  /// Restart after a crash: the network readmits the node and the core runs
  /// its WAL recovery pass. Returns false, doing nothing, when the node is
  /// up.
  bool Recover();

  Micros NowUs() const override { return scheduler_->Now(); }

 private:
  using CostVector = std::array<Micros, kNumTimeCategories>;

  // --- Host interface ---
  TimerId ScheduleTimer(Micros at, const NodeTimer& timer) override;
  void UnscheduleTimer(TimerId id) override { scheduler_->Cancel(id); }
  void Run(Work work, TaskFn fn) override;
  void Transmit(Message msg) override { network_->Send(std::move(msg)); }
  bool Fenced() const override { return network_->IsCrashed(self()); }

  /// The Figure-12 cost model: service time of `work` per category.
  CostVector CostOf(Work work) const;

  // Worker pool model. Jobs are TaskFn rather than std::function: the
  // common capture shapes fit the inline buffer, so queueing and completing
  // a job does not allocate. A running job parks in a pooled slot and the
  // scheduler event is a 16-byte trampoline; nesting the job callable
  // inside the completion lambda would overflow any inline buffer and force
  // a heap allocation per job (i.e. per message).
  void StartJob(CostVector cost, TaskFn fn);
  void FinishJobSlot(uint32_t idx);

  /// One in-flight worker job, parked until its completion event fires.
  /// `epoch` guards against completions that straddle a crash.
  struct RunningJob {
    CostVector cost;
    TaskFn fn;
    uint64_t epoch = 0;
  };

  const ClusterConfig& config_;
  Scheduler* scheduler_;
  SimNetwork* network_;

  uint32_t busy_workers_ = 0;
  std::deque<std::pair<CostVector, TaskFn>> job_queue_;
  std::vector<RunningJob> running_jobs_;
  std::vector<uint32_t> free_job_slots_;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_SIM_NODE_H_
