#ifndef ECDB_CLUSTER_NODE_CORE_H_
#define ECDB_CLUSTER_NODE_CORE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cc/lock_table.h"
#include "cluster/config.h"
#include "commit/commit_engine.h"
#include "commit/commit_env.h"
#include "commit/invariants.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "sim/task.h"
#include "storage/table.h"
#include "trace/trace_recorder.h"
#include "txn/transaction.h"
#include "wal/wal.h"
#include "workload/open_loop.h"
#include "workload/workload.h"

namespace ecdb {

/// Kinds of timers a node arms: protocol timeouts, the remote-execution
/// watchdog, client retry backoff, and open-loop arrivals.
enum class NodeTimerKind : uint8_t { kProtocol, kExec, kRetry, kArrival };

/// Payload of one armed timer; the host hands it back to
/// NodeCore::FireTimer when it is due. `epoch` is the node's crash
/// generation at arm time, so a crash orphans every timer armed before it.
struct NodeTimer {
  NodeTimerKind kind = NodeTimerKind::kProtocol;
  TxnId txn = kInvalidTxn;
  uint32_t slot = 0;
  uint32_t epoch = 0;
};

/// One database server node, independent of the environment it runs in:
/// partition storage, lock table, WAL, the commit-protocol engine, and the
/// clients attached to the node. It is the only CommitEnv implementation.
///
/// The core owns all of the node's behaviour — NO_WAIT transaction
/// execution, the remote-exec handlers, open-loop admission, retry
/// backoff, WAL logging, protocol timers, decision application, tracing,
/// and the crash wipe plus the Section 4.2 recovery pass. It reaches its
/// host only through the protected interface below: the clock (NowUs),
/// arming and cancelling a timer, running a unit of work charged to a
/// service-cost category, and transmitting a message (plus a query whether
/// the transport has fail-stopped the node).
///
/// Hosts: SimNode queues work on the Figure-12 worker model of the
/// discrete-event simulator; ThreadNode runs it inline on an event-loop
/// worker (SocketNode runs ThreadNode unchanged); testbed::ProtocolHost is
/// a core without storage or clients for protocol-level tests.
class NodeCore : public CommitEnv {
 public:
  /// `metrics` is the host's registry handle; every event the node counts
  /// is recorded there, once.
  NodeCore(NodeId id, const NodeConfig& config,
           std::unique_ptr<MemoryWal> wal, Workload* workload,
           SafetyMonitor* monitor, uint64_t seed,
           const MetricsHandle& metrics);
  ~NodeCore() override;

  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  // --- CommitEnv ---
  NodeId self() const override { return id_; }
  void Send(Message msg) override;
  void Log(TxnId txn, LogRecordType type) override;
  void LogPayload(TxnId txn, LogRecordType type,
                  const CowVector<NodeId>& payload) override;
  void ArmTimer(TxnId txn, Micros delay_us) override;
  void CancelTimer(TxnId txn) override;
  Decision VoteFor(TxnId txn) override;
  void ApplyDecision(TxnId txn, Decision decision) override;
  void OnBlocked(TxnId txn) override;
  void OnCleanup(TxnId txn) override;
  void OnPhaseSample(TxnId txn, CommitPhase phase,
                     Micros elapsed_us) override;
  void OnProtocolEvent(ProtocolEvent event) override;

  // --- Driven by the host ---

  /// Loads this node's partition (no-op without a workload): creates its
  /// tables, which maps their memory and writes none of it.
  void Bootstrap();

  /// Starts the clients: closed loop, every slot submits a transaction;
  /// open loop, the arrival chain begins.
  void StartClients();

  /// Delivers one inbound message (dropped while the node is down).
  void OnMessage(Message msg);

  /// Dispatches a timer armed through ScheduleTimer. Returns false when it
  /// was orphaned by a crash or the node is down.
  bool FireTimer(const NodeTimer& timer);

  // --- Controls ---

  bool crashed() const { return crashed_; }

  /// Stops the closed loop: no new client transactions are issued and
  /// aborted attempts are no longer retried, so in-flight work drains.
  /// Sticky across crash/recover; irreversible for the node's lifetime.
  /// Safe to call from any thread.
  void Quiesce() { quiesced_.store(true, std::memory_order_relaxed); }
  bool quiesced() const { return quiesced_.load(std::memory_order_relaxed); }

  /// When enabled, records the TxnId of every transaction whose commit ran
  /// the commit protocol and was acked back to a client — the durability
  /// set of the consistency audits. (Single-partition and read-only
  /// commits skip the protocol and write no log records, so they are
  /// excluded.) Survives crashes: an ack the client saw cannot be un-sent.
  void TrackAckedCommits(bool on) { track_acked_ = on; }
  const std::vector<TxnId>& acked_commits() const { return acked_commits_; }

  /// Overrides participant votes (fault-injection tests force aborts).
  using VoteOverride = std::function<Decision(TxnId)>;
  void set_vote_override(VoteOverride fn) { vote_override_ = std::move(fn); }

  /// Turns on protocol tracing.
  void EnableTracing(size_t capacity = TraceRecorder::kDefaultCapacity) {
    trace_.Enable(capacity);
  }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  // --- Introspection ---
  /// What a node reports on its own, from any thread. All else it counts
  /// is in the host's registry (sharded per worker, not per node): read it
  /// through the host's CollectStats.
  struct LiveStats { uint64_t txns_committed = 0; };
  LiveStats stats() const { return {committed()}; }
  /// Committed transactions; readable from any thread.
  uint64_t committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  CommitEngine& engine() { return *engine_; }
  const CommitEngine& engine() const { return *engine_; }
  PartitionStore& store() { return store_; }
  MemoryWal& wal() { return *wal_; }
  const MemoryWal& wal() const { return *wal_; }
  LockTable& locks() { return locks_; }

  /// Clients with no in-flight transaction.
  size_t IdleClientCount() const;

  /// Client slots currently carrying a transaction. Under the open loop
  /// this is the admission-control occupancy; at drain it reaches zero,
  /// closing the conservation law offered == committed + rejected +
  /// terminal aborts.
  size_t InFlightClientCount() const {
    return clients_.size() - IdleClientCount();
  }

 protected:
  // --- Host interface (NowUs() from CommitEnv is the clock) ---
  using TimerId = uint64_t;

  /// Arms `timer` to fire at absolute time `at`; the host then calls
  /// FireTimer(timer).
  virtual TimerId ScheduleTimer(Micros at, const NodeTimer& timer) = 0;
  virtual void UnscheduleTimer(TimerId id) = 0;

  /// Service-cost category of a unit of node work. The simulator charges
  /// each to its Figure-12 cost model; other hosts ignore it.
  enum class WorkKind : uint8_t {
    kExecute,        // fragment execution: `ops` operations + txn manager
    kRemoteReply,    // processing a remote-exec reply
    kAbort,          // rolling back an attempt or fragment
    kCommitMessage,  // one commit-protocol message
    kOverhead,       // txn-table cleanup on completion
  };
  struct Work {
    WorkKind kind;
    uint32_t ops = 0;
  };
  /// Runs `fn` as a unit of work of cost `work`, now or later.
  virtual void Run(Work work, TaskFn fn) = 0;

  /// Puts a message on the wire (src already stamped, trace recorded).
  virtual void Transmit(Message msg) = 0;

  /// True while the transport treats this node as fail-stopped.
  virtual bool Fenced() const = 0;

  // --- For hosts ---

  /// Fail-stop: volatile state (locks, attempts, fragments, timers, the
  /// engine) is lost; the WAL (stable storage) survives.
  void CrashCore();

  /// Restart after CrashCore: the Section 4.2 independent-recovery pass
  /// over the WAL, then the clients resume. Returns false, doing nothing,
  /// when the node is up.
  bool RecoverCore();

  bool Down() const { return crashed_ || Fenced(); }
  uint32_t epoch() const { return epoch_; }
  const MetricsHandle& metrics() const { return metrics_; }

 private:
  /// One client connection (closed loop) or admission slot (open loop).
  struct ClientSlot {
    TxnRequest request;
    Micros first_start_us = 0;
    uint32_t attempts = 0;
    bool in_flight = false;
  };

  /// One remote partition's slice of an attempt. Pooled with the attempt:
  /// Reset() clears the ops but keeps the vector's capacity.
  struct RemoteFragment {
    NodeId node = kInvalidNode;
    std::vector<Operation> ops;
    bool ok = false;  // replied kRemoteExecOk
  };

  /// Coordinator-side state of one transaction attempt. Remote fragments
  /// are dispatched *sequentially* (Deneva/ExpoDB execute a transaction
  /// until it needs remote data, wait for that server's reply, then
  /// continue), so execution latency grows with the partition count.
  /// Attempts live in a pool and are recycled via Reset(), keeping their
  /// vectors' capacity, so the steady state performs no allocation.
  struct AttemptState {
    uint32_t slot = 0;
    std::vector<Operation> local_ops;
    /// Remote slices sorted by node; only the first num_remotes entries
    /// are live (the tail keeps recycled capacity).
    std::vector<RemoteFragment> remotes;
    size_t num_remotes = 0;
    size_t next_remote = 0;  // dispatch cursor into remotes
    NodeId pending_remote = kInvalidNode;
    std::vector<UndoRecord> local_undo;
    // Copied onto every fragment message, the engine's record and the
    // begin-commit/ready WAL entries: by value for two ids, else sharing
    // one buffer.
    CowVector<NodeId> participants;
    TimerId exec_timer = 0;
    bool has_writes = false;
    bool aborting = false;
    bool protocol_started = false;

    void Reset();
    RemoteFragment* FindRemote(NodeId node);
  };

  void NewEngine();
  TimerId ArmNodeTimer(Micros at, NodeTimerKind kind, TxnId txn,
                       uint32_t slot);
  void RecordWal(TxnId txn, LogRecordType type);

  // Attempt pool. The pool is a deque, so references stay valid while
  // other attempts are created; an erased attempt's slot is recycled.
  AttemptState& NewAttempt(TxnId txn);
  AttemptState* FindAttempt(TxnId txn);
  void EraseAttempt(TxnId txn);

  // Open-loop load generation: arrivals are a self-rescheduling kArrival
  // timer chain paced gap-by-gap from the previous deadline.
  void ScheduleNextArrival();
  void OnArrival();

  // Remote-exec handlers.
  void HandleRemoteExec(const Message& msg);
  void HandleRemoteExecReply(const Message& msg, bool ok);
  void HandleRemoteRollback(const Message& msg);

  // Coordinator paths.
  /// Submits the client's next transaction; its end-to-end latency counts
  /// from `start_us` (an open-loop arrival's deadline, else now).
  void StartNewClientTxn(uint32_t slot, Micros start_us);
  void StartAttempt(uint32_t slot);
  void RunLocalExec(TxnId txn);
  void SendNextFragment(TxnId txn);
  void AllFragmentsReady(TxnId txn);
  void AbortAttempt(TxnId txn, bool send_rollbacks);
  void SendRollbacks(TxnId txn, const AttemptState& attempt,
                     bool include_pending);
  void CompleteWithoutProtocol(TxnId txn);
  void FinishCommitted(TxnId txn);
  void ScheduleRetry(uint32_t slot);
  void CancelExecTimer(AttemptState& attempt);

  // Execution engine: lock + apply each op under NO_WAIT. On the first
  // refused lock or missing row, undoes `undo`, releases `txn`'s locks and
  // returns false.
  bool ExecOps(TxnId txn, std::span<const Operation> ops,
               std::vector<UndoRecord>* undo);
  bool ApplyOp(const Operation& op, std::vector<UndoRecord>* undo);
  void UndoWrites(const std::vector<UndoRecord>& undo);

  NodeId id_;
  const NodeConfig config_;
  Workload* workload_;
  SafetyMonitor* monitor_;
  Rng rng_;

  PartitionStore store_;
  KeyPartitioner partitioner_;
  LockTable locks_;
  std::unique_ptr<MemoryWal> wal_;
  std::unique_ptr<CommitEngine> engine_;

  std::vector<ClientSlot> clients_;
  // Open loop only: idle slot indices (clients_ sized to the admission cap),
  // the per-node arrival-gap generator, and the running arrival deadline.
  std::vector<uint32_t> free_client_slots_;
  ArrivalSchedule arrivals_;
  Micros next_arrival_us_ = 0;

  FlatMap<TxnId, uint32_t> attempts_;  // txn -> attempt_pool_ index
  std::deque<AttemptState> attempt_pool_;
  std::vector<uint32_t> free_attempt_slots_;
  FlatMap<TxnId, FragmentState> fragments_;
  // Rollbacks that beat their exec request (network reordering); tiny.
  std::vector<TxnId> pending_rollbacks_;
  std::vector<NodeId> rollback_targets_;  // reused by SendRollbacks
  TxnIdAllocator txn_ids_;

  FlatMap<TxnId, TimerId> protocol_timers_;
  uint32_t epoch_ = 1;  // bumped on crash; orphans earlier timers and work

  bool crashed_ = false;
  std::atomic<bool> quiesced_{false};
  bool track_acked_ = false;
  std::vector<TxnId> acked_commits_;
  VoteOverride vote_override_;

  const MetricsHandle metrics_;
  std::atomic<uint64_t> committed_{0};
  TraceRecorder trace_;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_NODE_CORE_H_
