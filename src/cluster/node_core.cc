#include "cluster/node_core.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "commit/quorum.h"
#include "commit/recovery.h"
#include "common/logging.h"

namespace ecdb {

NodeCore::NodeCore(NodeId id, const NodeConfig& config,
                   std::unique_ptr<WriteAheadLog> wal, Workload* workload,
                   SafetyMonitor* monitor, uint64_t seed,
                   const MetricsHandle& metrics)
    : id_(id),
      config_(config),
      workload_(workload),
      monitor_(monitor),
      rng_(seed),
      store_(id),
      partitioner_(config.num_nodes),
      locks_(config.cc_policy),
      wal_(std::move(wal)),
      // The arrival stream's seed is derived from (not equal to) the node
      // seed so it does not correlate with the workload rng_.
      arrivals_(config.open_loop, seed ^ 0x9e3779b97f4a7c15ULL),
      txn_ids_(id),
      metrics_(metrics) {
  trace_.set_node(id_);
  NewEngine();
  // Under the open loop the slots are the admission-control window, not a
  // fixed population of closed-loop clients.
  clients_.resize(config_.open_loop.enabled
                      ? config_.open_loop.max_in_flight_per_node
                      : config_.clients_per_node);
}

NodeCore::~NodeCore() = default;

void NodeCore::NewEngine() {
  engine_ =
      std::make_unique<CommitEngine>(config_.protocol, this, config_.commit);
  engine_->set_trace(&trace_);
}

void NodeCore::Bootstrap() {
  if (workload_ != nullptr) workload_->LoadPartition(&store_, partitioner_);
}

void NodeCore::StartClients() {
  if (config_.open_loop.enabled) {
    free_client_slots_.reserve(clients_.size());
    for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
      free_client_slots_.push_back(slot);
    }
    next_arrival_us_ = NowUs();
    ScheduleNextArrival();
    return;
  }
  for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
    StartNewClientTxn(slot);
  }
}

NodeCore::TimerId NodeCore::ArmNodeTimer(Micros at, NodeTimerKind kind,
                                         TxnId txn, uint32_t slot) {
  return ScheduleTimer(at, NodeTimer{kind, txn, slot, id_, epoch_});
}

bool NodeCore::FireTimer(const NodeTimer& timer) {
  if (timer.epoch != epoch_) return false;  // armed before a crash
  if (timer.kind == NodeTimerKind::kProtocol) protocol_timers_.Erase(timer.txn);
  if (Down()) return false;
  switch (timer.kind) {
    case NodeTimerKind::kProtocol:
      if (trace_.enabled()) {
        trace_.Record(TraceEventType::kTimerFire, NowUs(), timer.txn);
      }
      engine_->OnTimeout(timer.txn);
      break;
    case NodeTimerKind::kExec: {
      AttemptState* attempt = FindAttempt(timer.txn);
      if (attempt == nullptr) break;
      attempt->exec_timer = 0;
      if (!attempt->protocol_started &&
          attempt->pending_remote != kInvalidNode) {
        AbortAttempt(timer.txn, /*send_rollbacks=*/true);
      }
      break;
    }
    case NodeTimerKind::kRetry:
      StartAttempt(timer.slot);
      break;
    case NodeTimerKind::kArrival:
      // Quiesce ends the chain: no further arrivals, in-flight work drains.
      if (quiesced()) break;
      OnArrival();
      // Paced from the previous deadline, not from "now": a host that fell
      // behind fires every overdue gap at once, so the long-run offered
      // rate tracks the configured rate exactly.
      ScheduleNextArrival();
      break;
  }
  return true;
}

// --------------------------------------------------------------------------
// Open-loop load generation
// --------------------------------------------------------------------------

void NodeCore::ScheduleNextArrival() {
  next_arrival_us_ += arrivals_.NextGapUs();
  ArmNodeTimer(next_arrival_us_, NodeTimerKind::kArrival, kInvalidTxn, 0);
}

void NodeCore::OnArrival() {
  metrics_.Add(metrics_.ids->open_loop_offered);
  if (free_client_slots_.empty()) {
    // Admission control: shed the arrival (counted, never queued) so an
    // overloaded node's backlog stays bounded.
    metrics_.Add(metrics_.ids->open_loop_rejected);
    return;
  }
  const uint32_t slot = free_client_slots_.back();
  free_client_slots_.pop_back();
  StartNewClientTxn(slot);
}

// --------------------------------------------------------------------------
// Attempt pool
// --------------------------------------------------------------------------

void NodeCore::AttemptState::Reset() {
  slot = 0;
  local_ops.clear();
  for (size_t i = 0; i < num_remotes; ++i) {
    remotes[i].node = kInvalidNode;
    remotes[i].ops.clear();
    remotes[i].ok = false;
  }
  num_remotes = 0;
  next_remote = 0;
  pending_remote = kInvalidNode;
  local_undo.clear();
  participants.clear();
  exec_ts = 0;
  exec_next = 0;
  exec_timer = 0;
  has_writes = false;
  aborting = false;
  protocol_started = false;
}

NodeCore::RemoteFragment* NodeCore::AttemptState::FindRemote(NodeId node) {
  for (size_t i = 0; i < num_remotes; ++i) {
    if (remotes[i].node == node) return &remotes[i];
  }
  return nullptr;
}

NodeCore::AttemptState& NodeCore::NewAttempt(TxnId txn) {
  uint32_t idx;
  if (free_attempt_slots_.empty()) {
    idx = static_cast<uint32_t>(attempt_pool_.size());
    attempt_pool_.emplace_back();
  } else {
    idx = free_attempt_slots_.back();
    free_attempt_slots_.pop_back();
  }
  attempts_.Emplace(txn, uint32_t(idx));
  return attempt_pool_[idx];
}

NodeCore::AttemptState* NodeCore::FindAttempt(TxnId txn) {
  uint32_t* idx = attempts_.Find(txn);
  return idx == nullptr ? nullptr : &attempt_pool_[*idx];
}

void NodeCore::EraseAttempt(TxnId txn) {
  uint32_t* idx = attempts_.Find(txn);
  if (idx == nullptr) return;
  attempt_pool_[*idx].Reset();
  free_attempt_slots_.push_back(*idx);
  attempts_.Erase(txn);
}

// --------------------------------------------------------------------------
// CommitEnv
// --------------------------------------------------------------------------

void NodeCore::Send(Message msg) {
  msg.src = id_;
  if (trace_.enabled()) {
    msg.trace_seq = trace_.NextSeq();
    trace_.Record(TraceEventType::kMsgSend, NowUs(), msg.txn, msg.trace_seq,
                  msg.dst, static_cast<uint8_t>(msg.type));
  }
  Transmit(std::move(msg));
}

void NodeCore::RecordWal(TxnId txn, LogRecordType type) {
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kWalWrite, NowUs(), txn, 0, kInvalidNode,
                  static_cast<uint8_t>(type));
  }
  metrics_.Add(metrics_.ids->wal_appends);
}

void NodeCore::Log(TxnId txn, LogRecordType type) {
  RecordWal(txn, type);
  LogRecord record;
  record.txn = txn;
  record.type = type;
  if (type == LogRecordType::kBeginCommit || type == LogRecordType::kReady) {
    if (AttemptState* attempt = FindAttempt(txn); attempt != nullptr) {
      record.participants = attempt->participants;
    } else if (FragmentState* frag = fragments_.Find(txn); frag != nullptr) {
      record.participants = frag->participants;
    }
  }
  wal_->Append(std::move(record));
}

void NodeCore::LogPayload(TxnId txn, LogRecordType type,
                          const CowVector<NodeId>& payload) {
  RecordWal(txn, type);
  // Quorum snapshot records ride their packed epoch/ballot payload in the
  // participants field (the WAL's one variable-length channel).
  wal_->Append({0, txn, type, payload});
}

void NodeCore::ArmTimer(TxnId txn, Micros delay_us) {
  CancelTimer(txn);
  const Micros now = NowUs();
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kTimerArm, now, txn, delay_us);
  }
  protocol_timers_[txn] =
      ArmNodeTimer(now + delay_us, NodeTimerKind::kProtocol, txn, 0);
}

void NodeCore::CancelTimer(TxnId txn) {
  TimerId* id = protocol_timers_.Find(txn);
  if (id == nullptr) return;
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kTimerCancel, NowUs(), txn);
  }
  UnscheduleTimer(*id);
  protocol_timers_.Erase(txn);
}

Decision NodeCore::VoteFor(TxnId txn) {
  if (vote_override_) return vote_override_(txn);
  return fragments_.Contains(txn) ? Decision::kCommit : Decision::kAbort;
}

void NodeCore::ApplyDecision(TxnId txn, Decision decision) {
  // A node whose transport was cut mid-event is already (conceptually)
  // crashed: its local commit/abort never happened. Under EC this is what
  // makes the local apply strictly follow a *completed* transmission.
  if (Down()) return;
  if (monitor_ != nullptr) monitor_->RecordApplied(txn, id_, decision);

  if (AttemptState* attempt = FindAttempt(txn); attempt != nullptr) {
    // Coordinator side: this node's fragment plus client accounting.
    if (decision == Decision::kAbort) {
      UndoWrites(attempt->local_undo);
      attempt->local_undo.clear();
      metrics_.Add(metrics_.ids->txns_aborted);
      ScheduleRetry(attempt->slot);
    } else {
      FinishCommitted(txn);
    }
  } else if (FragmentState* frag = fragments_.Find(txn);
             frag != nullptr && decision == Decision::kAbort) {
    UndoWrites(frag->undo);
    frag->undo.clear();
  }
  // Locks are normally released at cleanup time (Section 5.3:
  // transactional resources are freed only once no further messages can
  // arrive); the A3 ablation releases them here instead.
  if (config_.release_locks_at_decision) locks_.ReleaseAll(txn);
}

void NodeCore::OnBlocked(TxnId txn) {
  metrics_.Add(metrics_.ids->txns_blocked);
  if (monitor_ != nullptr) monitor_->RecordBlocked(txn, id_);
}

void NodeCore::OnCleanup(TxnId txn) {
  Run({WorkKind::kOverhead}, [this, txn]() {
    locks_.ReleaseAll(txn);
    EraseAttempt(txn);
    fragments_.Erase(txn);
  });
}

void NodeCore::OnPhaseSample(TxnId txn, CommitPhase phase,
                             Micros elapsed_us) {
  (void)txn;
  switch (phase) {
    case CommitPhase::kVoteCollection:
      metrics_.Observe(metrics_.ids->phase_vote_us, elapsed_us);
      break;
    case CommitPhase::kDecisionTransmit:
      metrics_.Observe(metrics_.ids->phase_transmit_us, elapsed_us);
      break;
    case CommitPhase::kDecisionApply:
      metrics_.Observe(metrics_.ids->phase_apply_us, elapsed_us);
      break;
  }
}

void NodeCore::OnProtocolEvent(ProtocolEvent event) {
  metrics_.Add(metrics_.ids->protocol_events[static_cast<size_t>(event)]);
}

// --------------------------------------------------------------------------
// Message handling
// --------------------------------------------------------------------------

void NodeCore::OnMessage(Message msg) {
  if (Down()) return;
  if (trace_.enabled()) {
    trace_.Record(TraceEventType::kMsgRecv, NowUs(), msg.txn, msg.trace_seq,
                  msg.src, static_cast<uint8_t>(msg.type));
  }
  switch (msg.type) {
    case MsgType::kRemoteExec: {
      const auto ops = static_cast<uint32_t>(msg.ops.size());
      Run({WorkKind::kExecute, ops},
          [this, msg = std::move(msg)]() { HandleRemoteExec(msg); });
      return;
    }
    case MsgType::kRemoteExecOk:
    case MsgType::kRemoteExecFail:
      // Captures stay within TaskFn's inline buffer (`this` + a Message).
      Run({WorkKind::kRemoteReply}, [this, msg = std::move(msg)]() {
        HandleRemoteExecReply(msg, msg.type == MsgType::kRemoteExecOk);
      });
      return;
    case MsgType::kRemoteRollback:
      Run({WorkKind::kAbort},
          [this, msg = std::move(msg)]() { HandleRemoteRollback(msg); });
      return;
    default:
      // Commit-protocol and termination messages.
      Run({WorkKind::kCommitMessage},
          [this, msg = std::move(msg)]() { engine_->OnMessage(msg); });
      return;
  }
}

void NodeCore::HandleRemoteExec(const Message& msg) {
  // A rollback can outrun the exec request it cancels; the stash turns
  // the late exec into a no-op.
  auto pending = std::find(pending_rollbacks_.begin(),
                           pending_rollbacks_.end(), msg.txn);
  if (pending != pending_rollbacks_.end()) {
    *pending = pending_rollbacks_.back();
    pending_rollbacks_.pop_back();
    return;
  }
  RunRemoteExec(msg, 0, {});
}

void NodeCore::RunRemoteExec(const Message& request, size_t next,
                             std::vector<UndoRecord> undo) {
  switch (ExecOps(request.txn, request.priority_ts, request.ops.vec(), &next,
                  &undo)) {
    case ExecOutcome::kParked:
      parked_execs_.Emplace(request.txn,
                            RemoteExec{request, next, std::move(undo)});
      return;
    case ExecOutcome::kFailed:
      FinishRemoteExec(request, false, {});
      return;
    case ExecOutcome::kOk:
      FinishRemoteExec(request, true, std::move(undo));
      return;
  }
}

void NodeCore::FinishRemoteExec(const Message& request, bool ok,
                                std::vector<UndoRecord> undo) {
  Message reply;
  reply.txn = request.txn;
  reply.dst = request.src;
  if (ok) {
    FragmentState frag;
    frag.txn = request.txn;
    frag.coordinator = request.src;
    frag.participants = request.participants;
    frag.ops = request.ops;
    frag.undo = std::move(undo);
    fragments_[request.txn] = std::move(frag);
    if (request.txn_has_writes) {
      engine_->ExpectPrepare(request.txn, request.src, request.participants);
    }
    reply.type = MsgType::kRemoteExecOk;
  } else {
    reply.type = MsgType::kRemoteExecFail;
  }
  Send(std::move(reply));
}

void NodeCore::HandleRemoteExecReply(const Message& msg, bool ok) {
  AttemptState* attempt = FindAttempt(msg.txn);
  if (attempt == nullptr || attempt->aborting) {
    // The attempt was aborted while this reply was in flight; the remote
    // fragment (if it succeeded) must be rolled back.
    if (ok) {
      Message rollback;
      rollback.type = MsgType::kRemoteRollback;
      rollback.txn = msg.txn;
      rollback.dst = msg.src;
      Send(std::move(rollback));
    }
    return;
  }
  if (attempt->pending_remote == msg.src) {
    attempt->pending_remote = kInvalidNode;
  }
  if (!ok) {
    AbortAttempt(msg.txn, /*send_rollbacks=*/true);
    return;
  }
  if (RemoteFragment* frag = attempt->FindRemote(msg.src)) frag->ok = true;
  if (attempt->next_remote < attempt->num_remotes) {
    SendNextFragment(msg.txn);  // sequential dispatch: next partition
  } else if (attempt->pending_remote == kInvalidNode) {
    AllFragmentsReady(msg.txn);
  }
}

void NodeCore::HandleRemoteRollback(const Message& msg) {
  FragmentState* frag = fragments_.Find(msg.txn);
  if (frag == nullptr) {
    // Rollback overtook the fragment execution (network reordering).
    if (std::find(pending_rollbacks_.begin(), pending_rollbacks_.end(),
                  msg.txn) == pending_rollbacks_.end()) {
      pending_rollbacks_.push_back(msg.txn);
    }
    return;
  }
  UndoWrites(frag->undo);
  locks_.ReleaseAll(msg.txn);
  fragments_.Erase(msg.txn);
  engine_->Forget(msg.txn);
}

// --------------------------------------------------------------------------
// Coordinator paths
// --------------------------------------------------------------------------

void NodeCore::StartNewClientTxn(uint32_t slot) {
  if (quiesced()) return;
  ClientSlot& client = clients_[slot];
  client.request = workload_->NextTxn(id_, rng_);
  client.first_start_us = NowUs();
  client.attempts = 0;
  client.in_flight = true;
  StartAttempt(slot);
}

void NodeCore::StartAttempt(uint32_t slot) {
  ClientSlot& client = clients_[slot];
  client.attempts++;
  const TxnId txn = txn_ids_.Next();

  AttemptState& attempt = NewAttempt(txn);
  attempt.slot = slot;
  attempt.has_writes = client.request.HasWrites();
  for (const Operation& op : client.request.ops) {
    const PartitionId part = partitioner_.PartitionOf(op.key);
    if (part == id_) {
      attempt.local_ops.push_back(op);
      continue;
    }
    RemoteFragment* frag = attempt.FindRemote(part);
    if (frag == nullptr) {
      if (attempt.num_remotes == attempt.remotes.size()) {
        attempt.remotes.emplace_back();
      }
      frag = &attempt.remotes[attempt.num_remotes++];
      frag->node = part;
    }
    frag->ops.push_back(op);
  }
  std::sort(attempt.remotes.begin(),
            attempt.remotes.begin() + attempt.num_remotes,
            [](const RemoteFragment& a, const RemoteFragment& b) {
              return a.node < b.node;
            });
  {
    std::vector<NodeId>& parts = attempt.participants.Mutable();
    parts.push_back(id_);
    for (size_t i = 0; i < attempt.num_remotes; ++i) {
      parts.push_back(attempt.remotes[i].node);
    }
  }
  Run({WorkKind::kExecute, static_cast<uint32_t>(attempt.local_ops.size())},
      [this, txn]() {
        AttemptState* a = FindAttempt(txn);
        if (a == nullptr) return;
        a->exec_ts = next_priority_ts_++;
        RunLocalExec(txn);
      });
}

void NodeCore::RunLocalExec(TxnId txn) {
  AttemptState& attempt = *FindAttempt(txn);
  switch (ExecOps(txn, attempt.exec_ts, attempt.local_ops, &attempt.exec_next,
                  &attempt.local_undo)) {
    case ExecOutcome::kParked:
      return;  // ResumeExec continues once the lock is granted
    case ExecOutcome::kFailed:
      LocalExecDone(txn, false);
      return;
    case ExecOutcome::kOk:
      LocalExecDone(txn, true);
      return;
  }
}

void NodeCore::LocalExecDone(TxnId txn, bool ok) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  if (!ok) {
    AbortAttempt(txn, /*send_rollbacks=*/false);
    return;
  }
  if (attempt->num_remotes == 0) {
    // Single-partition transactions skip the commit protocol entirely
    // (Section 5.2).
    CompleteWithoutProtocol(txn);
    return;
  }
  next_priority_ts_++;
  attempt->exec_timer =
      ArmNodeTimer(NowUs() + config_.ExecWatchdogUs(), NodeTimerKind::kExec,
                   txn, attempt->slot);
  SendNextFragment(txn);
}

void NodeCore::SendNextFragment(TxnId txn) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  const RemoteFragment& frag = attempt->remotes[attempt->next_remote++];
  attempt->pending_remote = frag.node;
  Message msg;
  msg.type = MsgType::kRemoteExec;
  msg.txn = txn;
  msg.dst = frag.node;
  msg.ops = frag.ops;
  msg.participants = attempt->participants;
  msg.txn_has_writes = attempt->has_writes;
  msg.priority_ts = next_priority_ts_ - 1;
  Send(std::move(msg));
}

void NodeCore::AllFragmentsReady(TxnId txn) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  CancelExecTimer(*attempt);
  if (!attempt->has_writes) {
    // Multi-partition read-only: no commit protocol (Section 5.2); tell
    // remotes to release their read locks.
    CompleteWithoutProtocol(txn);
    return;
  }
  attempt->protocol_started = true;
  metrics_.Add(metrics_.ids->commit_protocol_runs);
  engine_->StartCommit(txn, attempt->participants, Decision::kCommit);
}

void NodeCore::SendRollbacks(TxnId txn, const AttemptState& attempt,
                             bool include_pending) {
  // Fan-out order is part of the simulator's replay contract (every send
  // draws a latency sample), and it is the iteration order of a fresh
  // std::unordered_set filled with the acknowledged nodes in reply order —
  // ascending, since fragments are dispatched sequentially in node order —
  // then the in-flight one. A single target needs no set.
  std::vector<NodeId>& targets = rollback_targets_;
  targets.clear();
  for (size_t i = 0; i < attempt.num_remotes; ++i) {
    const RemoteFragment& frag = attempt.remotes[i];
    if (frag.ok) targets.push_back(frag.node);
  }
  if (include_pending && attempt.pending_remote != kInvalidNode) {
    targets.push_back(attempt.pending_remote);
  }
  if (targets.size() > 1) {
    std::unordered_set<NodeId> order;  // grown insert by insert, not presized
    for (NodeId node : targets) order.insert(node);
    targets.assign(order.begin(), order.end());
  }
  for (NodeId node : targets) {
    Message msg;
    msg.type = MsgType::kRemoteRollback;  // release-only when nothing to undo
    msg.txn = txn;
    msg.dst = node;
    Send(std::move(msg));
  }
}

void NodeCore::CompleteWithoutProtocol(TxnId txn) {
  locks_.ReleaseAll(txn);
  SendRollbacks(txn, *FindAttempt(txn), /*include_pending=*/false);
  FinishCommitted(txn);
  Run({WorkKind::kOverhead}, [this, txn]() { EraseAttempt(txn); });
}

void NodeCore::FinishCommitted(TxnId txn) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  const uint32_t slot = attempt->slot;
  ClientSlot& client = clients_[slot];
  committed_.fetch_add(1, std::memory_order_relaxed);
  metrics_.Add(metrics_.ids->txns_committed);
  metrics_.Observe(metrics_.ids->latency_us, NowUs() - client.first_start_us);
  client.in_flight = false;
  if (track_acked_ && attempt->protocol_started) {
    acked_commits_.push_back(txn);
  }
  if (config_.open_loop.enabled) {
    // Open loop: the slot returns to the admission window; the next
    // transaction arrives when the arrival process says so.
    free_client_slots_.push_back(slot);
    return;
  }
  // Closed loop: the client immediately submits its next transaction.
  StartNewClientTxn(slot);
}

void NodeCore::AbortAttempt(TxnId txn, bool send_rollbacks) {
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  if (attempt->aborting || attempt->protocol_started) return;
  attempt->aborting = true;
  CancelExecTimer(*attempt);
  UndoWrites(attempt->local_undo);
  locks_.ReleaseAll(txn);
  if (send_rollbacks) SendRollbacks(txn, *attempt, /*include_pending=*/true);
  metrics_.Add(metrics_.ids->txns_aborted);
  const uint32_t slot = attempt->slot;
  Run({WorkKind::kAbort}, [this, txn, slot]() {
    EraseAttempt(txn);
    ScheduleRetry(slot);
  });
}

void NodeCore::ScheduleRetry(uint32_t slot) {
  ClientSlot& client = clients_[slot];
  if (config_.open_loop.enabled &&
      (quiesced() || client.attempts >= config_.open_loop.max_attempts)) {
    // Terminal abort: the retry budget ran out (or quiesce is draining the
    // node). Bounded retries keep the conservation law exact.
    metrics_.Add(metrics_.ids->open_loop_aborted);
    client.in_flight = false;
    free_client_slots_.push_back(slot);
    return;
  }
  if (quiesced()) {
    client.in_flight = false;
    return;
  }
  const uint32_t shift = std::min(client.attempts, config_.backoff_max_shift);
  const Micros backoff = static_cast<Micros>(
      rng_.NextDouble() * static_cast<double>(config_.backoff_base_us) *
      static_cast<double>(1ULL << shift));
  ArmNodeTimer(NowUs() + backoff + 1, NodeTimerKind::kRetry, kInvalidTxn,
               slot);
}

void NodeCore::CancelExecTimer(AttemptState& attempt) {
  if (attempt.exec_timer != 0) {
    UnscheduleTimer(attempt.exec_timer);
    attempt.exec_timer = 0;
  }
}

// --------------------------------------------------------------------------
// Execution engine
// --------------------------------------------------------------------------

NodeCore::ExecOutcome NodeCore::ExecOps(TxnId txn, uint64_t ts,
                                        const std::vector<Operation>& ops,
                                        size_t* next,
                                        std::vector<UndoRecord>* undo) {
  for (; *next < ops.size(); ++*next) {
    const Operation& op = ops[*next];
    const LockMode mode =
        op.is_write() ? LockMode::kExclusive : LockMode::kShared;
    const AcquireResult result = locks_.Acquire(
        txn, ts, op.table, op.key, mode, [this, txn, epoch = epoch_]() {
          // WAIT_DIE grant fired from another transaction's ReleaseAll.
          if (!crashed_ && epoch == epoch_) ResumeExec(txn);
        });
    if (result == AcquireResult::kWaiting) return ExecOutcome::kParked;
    if (result == AcquireResult::kAbort || !ApplyOp(op, undo)) {
      FailExec(txn, undo);
      return ExecOutcome::kFailed;
    }
  }
  return ExecOutcome::kOk;
}

void NodeCore::FailExec(TxnId txn, std::vector<UndoRecord>* undo) {
  UndoWrites(*undo);
  undo->clear();
  locks_.ReleaseAll(txn);
}

void NodeCore::ResumeExec(TxnId txn) {
  // The granted lock is the one the parked execution waited on: apply that
  // operation, then continue with the rest.
  if (RemoteExec* parked = parked_execs_.Find(txn); parked != nullptr) {
    RemoteExec run = std::move(*parked);
    parked_execs_.Erase(txn);
    if (!ApplyOp(run.request.ops[run.next], &run.undo)) {
      FailExec(txn, &run.undo);
      FinishRemoteExec(run.request, false, {});
      return;
    }
    RunRemoteExec(run.request, run.next + 1, std::move(run.undo));
    return;
  }
  AttemptState* attempt = FindAttempt(txn);
  if (attempt == nullptr) return;
  if (!ApplyOp(attempt->local_ops[attempt->exec_next], &attempt->local_undo)) {
    FailExec(txn, &attempt->local_undo);
    LocalExecDone(txn, false);
    return;
  }
  attempt->exec_next++;
  RunLocalExec(txn);
}

bool NodeCore::ApplyOp(const Operation& op, std::vector<UndoRecord>* undo) {
  Table* table = store_.GetTable(op.table);
  if (table == nullptr) return false;
  auto row = table->GetMutable(op.key);
  if (!row.ok()) return false;
  if (op.is_write()) {
    UndoRecord rec;
    rec.table = op.table;
    rec.key = op.key;
    rec.old_columns = row.value()->columns;
    rec.old_version = row.value()->version;
    undo->push_back(std::move(rec));
    row.value()->columns[0]++;
    row.value()->version++;
  }
  return true;
}

void NodeCore::UndoWrites(const std::vector<UndoRecord>& undo) {
  // Reverse order so repeated writes to a row restore the oldest image.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Table* table = store_.GetTable(it->table);
    if (table == nullptr) continue;
    auto row = table->GetMutable(it->key);
    if (!row.ok()) continue;
    row.value()->columns = it->old_columns;
    row.value()->version = it->old_version;
  }
}

// --------------------------------------------------------------------------
// Crash and recovery
// --------------------------------------------------------------------------

void NodeCore::CrashCore() {
  crashed_ = true;
  ++epoch_;  // orphans every timer and grant callback armed before now
  locks_ = LockTable(config_.cc_policy);
  attempts_.Clear();
  attempt_pool_.clear();
  free_attempt_slots_.clear();
  fragments_.Clear();
  parked_execs_.Clear();
  pending_rollbacks_.clear();
  for (const auto& timer : protocol_timers_) UnscheduleTimer(timer.value);
  protocol_timers_.Clear();
  NewEngine();
  if (config_.open_loop.enabled) {
    // Admitted in-flight transactions die with the volatile state; count
    // them as terminal aborts so the conservation law survives crashes.
    free_client_slots_.clear();
    for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
      if (clients_[slot].in_flight) {
        metrics_.Add(metrics_.ids->open_loop_aborted);
      }
      clients_[slot].in_flight = false;
      free_client_slots_.push_back(slot);
    }
    return;
  }
  for (ClientSlot& client : clients_) client.in_flight = false;
}

bool NodeCore::RecoverCore() {
  if (!crashed_) return false;
  crashed_ = false;

  // Section 4.2 independent recovery over the WAL.
  for (TxnId txn : RecoveryManager::InFlightTxns(*wal_)) {
    // Quorum snapshot records (kQuorumState/kPaxosState) interleave with
    // the milestones; the fate analysis keys on the last *milestone*, and
    // the epoch/ballot state is reseeded separately below.
    const auto last = RecoveryManager::LastMilestone(*wal_, txn);
    if (!last.has_value()) {
      // Snapshot-only WAL: Paxos acceptor duties for a transaction this
      // node never carried as an RM. Its promises/accepts must survive the
      // crash (acceptor amnesia lets two ballots choose differently), but
      // there is no RM state machine to resume.
      SeedQuorumSnapshots(txn);
      continue;
    }
    const RecoveryAction action = RecoveryManager::AnalyzeRecord(last);
    if (action != RecoveryAction::kConsultPeers) {
      const bool commit = action == RecoveryAction::kCommit;
      wal_->Append({0, txn,
                    commit ? LogRecordType::kTransactionCommit
                           : LogRecordType::kTransactionAbort,
                    {}});
      if (monitor_ != nullptr) {
        monitor_->RecordApplied(txn, id_,
                                commit ? Decision::kCommit : Decision::kAbort);
      }
      continue;
    }
    // Re-enter the commit protocol in the logged state; the armed timeout
    // triggers the termination protocol, which consults the participants
    // recorded in the WAL.
    CohortState state = CohortState::kReady;
    if (last->type == LogRecordType::kPreCommit) {
      state = CohortState::kPreCommit;
    } else if (last->type == LogRecordType::kPreAbort) {
      state = CohortState::kPreAbort;
    }
    CowVector<NodeId> participants = last->participants;
    if (participants.empty()) {
      for (const LogRecord& r : wal_->Scan()) {
        // Snapshot records reuse `participants` as a packed payload
        // channel; only begin-commit/ready carry a membership list.
        if (r.txn == txn && !r.participants.empty() &&
            (r.type == LogRecordType::kBeginCommit ||
             r.type == LogRecordType::kReady)) {
          participants = r.participants;
          break;
        }
      }
    }
    engine_->ResumeAfterRecovery(txn, TxnCoordinator(txn),
                                 std::move(participants), state);
    SeedQuorumSnapshots(txn);
  }

  // Seed the fresh engine's decision ledger with every decision the WAL
  // witnessed (including the terminal records the loop above just wrote).
  // The pre-crash ledger died with the engine, but peers running the
  // termination protocol must still get an answer from this node for
  // transactions it decided before going down; without this, two recovered
  // nodes consulting each other about a decided transaction would defer
  // forever.
  for (const LogRecord& r : wal_->Scan()) {
    switch (r.type) {
      case LogRecordType::kCommitDecision:
      case LogRecordType::kCommitReceived:
      case LogRecordType::kTransactionCommit:
        engine_->SeedDecision(r.txn, Decision::kCommit);
        break;
      case LogRecordType::kAbortDecision:
      case LogRecordType::kAbortReceived:
      case LogRecordType::kTransactionAbort:
        engine_->SeedDecision(r.txn, Decision::kAbort);
        break;
      default:
        break;
    }
  }

  // Back in service. Open loop: the crash orphaned the arrival chain, so
  // restart it rebased to now (downtime does not replay as a burst of
  // overdue arrivals). Closed loop: clients reconnect and resume (their
  // pre-crash transactions died with the volatile state).
  if (!quiesced()) {
    if (config_.open_loop.enabled) {
      next_arrival_us_ = NowUs();
      ScheduleNextArrival();
    } else {
      for (uint32_t slot = 0; slot < clients_.size(); ++slot) {
        if (!clients_[slot].in_flight) StartNewClientTxn(slot);
      }
    }
  }
  return true;
}

void NodeCore::SeedQuorumSnapshots(TxnId txn) {
  // Last snapshot wins: each snapshot record supersedes the ones before it
  // (promises and accepts only move forward). Scan() returns by value, so
  // the records must outlive the loop for the pointers to stay valid.
  const std::vector<LogRecord> records = wal_->Scan();
  const LogRecord* quorum = nullptr;
  const LogRecord* paxos = nullptr;
  for (const LogRecord& r : records) {
    if (r.txn != txn) continue;
    if (r.type == LogRecordType::kQuorumState) quorum = &r;
    if (r.type == LogRecordType::kPaxosState) paxos = &r;
  }
  if (quorum != nullptr) {
    QuorumEpoch last_elected = 0;
    QuorumEpoch last_attempt = 0;
    bool pre_abort = false;
    if (UnpackQuorumState(quorum->participants, &last_elected, &last_attempt,
                          &pre_abort)) {
      engine_->SeedQuorumState(txn, last_elected, last_attempt, pre_abort);
    }
  }
  if (paxos != nullptr) {
    QuorumEpoch promised = 0;
    std::vector<PaxosAccepted> accepted;
    if (UnpackPaxosState(paxos->participants, &promised, &accepted)) {
      engine_->SeedPaxosAcceptor(txn, promised, std::move(accepted));
    }
  }
}

void NodeCore::ReseedTxnIdsFromWal() {
  uint64_t max_seq = 0;
  for (const LogRecord& r : wal_->Scan()) {
    if (TxnCoordinator(r.txn) == id_) {
      max_seq = std::max(max_seq, TxnSequence(r.txn));
    }
  }
  txn_ids_.Reseed(max_seq);
}

size_t NodeCore::IdleClientCount() const {
  size_t idle = 0;
  for (const ClientSlot& client : clients_) {
    if (!client.in_flight) idle++;
  }
  return idle;
}

}  // namespace ecdb
