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
/// the Figure-12 cost model (ServiceCosts), accumulated per category into
/// the node's time breakdown.
class SimNode : public NodeCore {
 public:
  SimNode(NodeId id, const ClusterConfig& config, Scheduler* scheduler,
          SimNetwork* network, Workload* workload, SafetyMonitor* monitor,
          uint64_t seed);
  ~SimNode() override;

  /// Loads this node's partition and registers with the network.
  void Bootstrap();

  /// Fail-stop crash: the network drops the node and its queued and
  /// running jobs die with the core's volatile state; the WAL survives.
  void Crash();

  /// Restart after a crash: the network readmits the node and the core runs
  /// its WAL recovery pass. Returns false, doing nothing, when the node is
  /// up.
  bool Recover();

  Micros NowUs() const override { return scheduler_->Now(); }

  /// Starts a fresh measurement window (clears the stats counters and
  /// remembers the busy-time and engine-counter baselines).
  void BeginMeasurement();

  /// Worker-busy microseconds accumulated since construction.
  uint64_t total_busy_us() const { return total_busy_us_; }
  uint64_t busy_us_at_window_start() const { return busy_at_window_start_; }

  /// Engine counters since BeginMeasurement(). A crash recreates the
  /// engine and resets its counters, so each difference is clamped at zero.
  uint64_t TerminationRoundsThisWindow() const {
    return Since(engine().termination_rounds(), term_rounds_at_window_start_);
  }
  uint64_t AcceptorRoundsThisWindow() const {
    return Since(engine().acceptor_rounds(), acceptor_rounds_at_window_start_);
  }
  uint64_t BallotsPromotedThisWindow() const {
    return Since(engine().ballots_promoted(),
                 ballots_promoted_at_window_start_);
  }
  uint64_t QuorumLostRoundsThisWindow() const {
    return Since(engine().quorum_lost_rounds(), quorum_lost_at_window_start_);
  }

 private:
  using CostVector = std::array<Micros, kNumTimeCategories>;

  // --- Host interface ---
  TimerId ScheduleTimer(Micros at, const NodeTimer& timer) override;
  void UnscheduleTimer(TimerId id) override { scheduler_->Cancel(id); }
  void Run(Work work, TaskFn fn) override;
  void Transmit(Message msg) override { network_->Send(std::move(msg)); }
  bool Fenced() const override { return network_->IsCrashed(self()); }

  static uint64_t Since(uint64_t now, uint64_t start) {
    return now > start ? now - start : 0;
  }

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

  uint64_t total_busy_us_ = 0;
  uint64_t busy_at_window_start_ = 0;
  uint64_t term_rounds_at_window_start_ = 0;
  uint64_t acceptor_rounds_at_window_start_ = 0;
  uint64_t ballots_promoted_at_window_start_ = 0;
  uint64_t quorum_lost_at_window_start_ = 0;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_SIM_NODE_H_
