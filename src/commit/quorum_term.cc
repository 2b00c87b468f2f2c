// E3PC-style quorum termination for the three-phase protocol (Keidar &
// Dolev, "Increasing the resilience of atomic commit, at no additional
// cost"). The happy path is plain 3PC; what changes is every timeout rule:
//
//  * Instead of the coordinator's unilateral PRE-COMMIT-timeout commit
//    (3PC's multi-cohort partition hole) and the cohorts' majority-free
//    leader election, any participant that times out starts an *election*
//    at a fresh epoch e = (round << 16 | self), strictly above every epoch
//    it has seen.
//  * Peers join the highest election they hear of (a durable promise:
//    kQuorumState is logged before the reply) and report their
//    <last_attempt, value> pair.
//  * With a quorum (majority of the FULL participant list) of replies, the
//    initiator applies the max-attempt-committable rule: commit iff the
//    highest reported attempt carried PRE-COMMIT; otherwise abort. It
//    places that value as attempt e (kQuorumPropose) and decides once a
//    quorum accepts (kQuorumAck) — two attempt quorums always intersect in
//    a node that refuses the older one, so concurrent initiators on both
//    sides of a partition can never decide differently.
//  * No quorum -> the round is abandoned and retried with capped
//    exponential backoff. A minority partition therefore *waits* (it never
//    calls OnBlocked and never guesses); progress resumes on heal, when an
//    election reaches a quorum or a peer answers with the decision.

#include "commit/commit_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace ecdb {

QuorumTxnState& CommitEngine::EnsureQuorum(TxnRecord& rec) {
  if (rec.quorum == nullptr) {
    rec.quorum = std::make_unique<QuorumTxnState>();
    // Derive the implicit first attempt: PRE-COMMIT state without a
    // snapshot means attempt 1 (the coordinator's original round) was
    // accepted with value commit. Keeps the fault-free path free of
    // kQuorumState records.
    if (rec.state == CohortState::kPreCommit) {
      rec.quorum->last_attempt = kInitialAttemptEpoch;
      rec.quorum->attempt_pre_abort = false;
    }
  }
  return *rec.quorum;
}

Micros CommitEngine::QuorumRetryDelay(const TxnRecord& rec) const {
  const uint32_t shift = std::min<uint32_t>(rec.term_attempts, 6);  // <= 64x
  return config_.termination_window_us << shift;
}

void CommitEngine::SendOrLoop(Message msg) {
  if (msg.dst == env_->self()) {
    OnMessage(msg);
    return;
  }
  env_->Send(std::move(msg));
}

void CommitEngine::SeedQuorumState(TxnId txn, QuorumEpoch last_elected,
                                   QuorumEpoch last_attempt,
                                   bool attempt_pre_abort) {
  TxnRecord* rec = Find(txn);
  if (rec == nullptr) return;  // resolved between resume and seed
  QuorumTxnState& q = EnsureQuorum(*rec);
  q.last_elected = last_elected;
  q.last_attempt = last_attempt;
  q.attempt_pre_abort = attempt_pre_abort;
  q.max_seen = std::max(q.max_seen, last_elected);
}

void CommitEngine::E3pcOnTimeout(TxnId txn, TxnRecord& rec) {
  if (rec.decided) return;

  if (rec.is_coordinator && rec.state == CohortState::kWait) {
    // Case A: a vote is missing and no PRE-COMMIT was ever sent, so no
    // committable attempt can exist anywhere — every election aborts too.
    // Unilateral abort is safe and keeps 3PC's vote-timeout liveness.
    CoordinatorDecide(txn, rec, Decision::kAbort);
    return;
  }
  if (!rec.is_coordinator && rec.state == CohortState::kInitial) {
    // Case B: no Prepare arrived, so this node never voted — the
    // coordinator can never have assembled the votes for attempt 1.
    env_->CancelTimer(txn);
    rec.decided = true;
    rec.decision = Decision::kAbort;
    ApplyAndLog(txn, rec, Decision::kAbort);
    MaybeCleanup(txn, rec);
    return;
  }

  // READY / PRE-COMMIT / PRE-ABORT (and the coordinator's PRE-COMMIT
  // timeout, where plain 3PC commits unilaterally): quorum termination.
  if (rec.in_termination) {
    // The previous round is still open: no quorum of replies/acks arrived.
    env_->OnProtocolEvent(ProtocolEvent::kQuorumLost);
    Trace(TraceEventType::kTermRoundOutcome, txn, 0, kInvalidNode,
          static_cast<uint8_t>(TermOutcome::kDeferred));
  }
  StartQuorumTermination(txn, rec);
}

void CommitEngine::StartQuorumTermination(TxnId txn, TxnRecord& rec) {
  if (rec.participants.empty()) {
    // Without the participant list no quorum size is known. Wait for a
    // peer's election or decision instead of guessing.
    env_->ArmTimer(txn, config_.timeout_us);
    return;
  }
  QuorumTxnState& q = EnsureQuorum(rec);
  const uint64_t round =
      std::max({QuorumEpochRound(q.last_elected),
                QuorumEpochRound(q.last_attempt),
                QuorumEpochRound(q.max_seen)}) +
      1;
  const QuorumEpoch epoch = MakeQuorumEpoch(round, env_->self());
  q.elect_epoch = epoch;
  q.last_elected = epoch;
  q.replies.clear();
  q.attempt_proposed = false;
  q.attempt_acks.clear();
  rec.in_termination = true;
  env_->OnProtocolEvent(ProtocolEvent::kTerminationRound);
  rec.term_attempts++;
  Trace(TraceEventType::kTermRoundStart, txn, rec.term_attempts);
  // Durable promise: after a crash this node must still refuse attempts
  // older than the election it initiated.
  env_->LogPayload(txn, LogRecordType::kQuorumState,
                   PackQuorumState(q.last_elected, q.last_attempt,
                                   q.attempt_pre_abort));
  // Our own reply is part of the quorum.
  q.replies.push_back(
      {env_->self(), q.last_attempt, q.attempt_pre_abort, false});

  for (NodeId p : rec.participants) {
    if (p == env_->self()) continue;
    Message msg;
    msg.type = MsgType::kQuorumElect;
    msg.src = env_->self();
    msg.dst = p;
    msg.txn = txn;
    msg.participants = rec.participants;
    msg.quorum_epoch = epoch;
    env_->Send(std::move(msg));
  }
  env_->ArmTimer(txn, QuorumRetryDelay(rec));
  if (q.replies.size() >= QuorumSize(rec.participants.size())) {
    QuorumProposeAttempt(txn, rec);  // degenerate single-member quorum
  }
}

void CommitEngine::OnQuorumElect(const Message& msg) {
  TxnRecord* rec = Find(msg.txn);
  if (rec == nullptr) {
    const Decision* prior = decision_ledger_.Find(msg.txn);
    if (prior != nullptr) {
      Message reply;
      reply.type = *prior == Decision::kCommit ? MsgType::kGlobalCommit
                                               : MsgType::kGlobalAbort;
      reply.src = env_->self();
      reply.dst = msg.src;
      reply.txn = msg.txn;
      reply.forwarded = true;
      env_->Send(std::move(reply));
      return;
    }
    // Same soundness argument as OnTermElect's INITIAL reply: no record
    // and no ledger entry proves this node never voted and never decided.
    // Report attempt 0 so elections reach quorum even across cleaned-up or
    // not-yet-started peers. The reply makes no durable promise — harmless,
    // because a promise-less node also never *accepts* attempts, so it can
    // never be part of the attempt quorum whose intersection the safety
    // argument relies on.
    Message reply;
    reply.type = MsgType::kQuorumStateReply;
    reply.src = env_->self();
    reply.dst = msg.src;
    reply.txn = msg.txn;
    reply.quorum_epoch = msg.quorum_epoch;
    reply.quorum_attempt = 0;
    reply.term_state = CohortState::kInitial;
    reply.has_decision = false;
    env_->Send(std::move(reply));
    return;
  }
  if (rec->decided) {
    SendTo(msg.src, msg.txn,
           rec->decision == Decision::kCommit ? MsgType::kGlobalCommit
                                              : MsgType::kGlobalAbort,
           *rec, /*forwarded=*/true);
    return;
  }
  QuorumTxnState& q = EnsureQuorum(*rec);
  q.max_seen = std::max(q.max_seen, msg.quorum_epoch);
  Message reply;
  reply.type = MsgType::kQuorumStateReply;
  reply.src = env_->self();
  reply.dst = msg.src;
  reply.txn = msg.txn;
  if (msg.quorum_epoch > q.last_elected) {
    // Join the election: log the promise before replying (write-ahead).
    q.last_elected = msg.quorum_epoch;
    env_->LogPayload(msg.txn, LogRecordType::kQuorumState,
                     PackQuorumState(q.last_elected, q.last_attempt,
                                     q.attempt_pre_abort));
    reply.quorum_epoch = msg.quorum_epoch;
    reply.quorum_nack = false;
  } else if (msg.quorum_epoch == q.last_elected) {
    reply.quorum_epoch = msg.quorum_epoch;  // duplicate elect; re-reply
    reply.quorum_nack = false;
  } else {
    // Stale election: tell the initiator which epoch to beat.
    reply.quorum_epoch = q.last_elected;
    reply.quorum_nack = true;
  }
  reply.quorum_attempt = q.last_attempt;
  // kPreAbort conveys an abort-valued attempt. Encode it from the durable
  // snapshot field, not the volatile state: after a crash between the
  // kQuorumState log and the kPreAbort log, recovery resumes in READY with
  // attempt_pre_abort=true, and reporting READY here would let the
  // initiator's max-attempt rule treat the abort-valued attempt as
  // committable (the self-reply in StartQuorumTermination already uses the
  // durable field).
  reply.term_state =
      q.attempt_pre_abort ? CohortState::kPreAbort : rec->state;
  reply.has_decision = false;
  env_->Send(std::move(reply));
}

void CommitEngine::OnQuorumStateReply(const Message& msg, TxnRecord& rec) {
  if (rec.decided || rec.quorum == nullptr) return;
  QuorumTxnState& q = *rec.quorum;
  if (msg.quorum_nack) {
    q.max_seen = std::max(q.max_seen, msg.quorum_epoch);
    return;
  }
  if (q.elect_epoch == 0 || msg.quorum_epoch != q.elect_epoch ||
      q.attempt_proposed) {
    return;  // not our current election, or the attempt is already placed
  }
  for (const QuorumTxnState::ElectReply& r : q.replies) {
    if (r.node == msg.src) return;  // duplicate
  }
  q.replies.push_back({msg.src, msg.quorum_attempt,
                       msg.term_state == CohortState::kPreAbort, false});
  if (q.replies.size() >= QuorumSize(rec.participants.size())) {
    QuorumProposeAttempt(msg.txn, rec);
  }
}

void CommitEngine::QuorumProposeAttempt(TxnId txn, TxnRecord& rec) {
  QuorumTxnState& q = *rec.quorum;
  q.attempt_proposed = true;

  // Max-attempt-committable rule: the value of the highest attempt any
  // quorum member accepted wins; no attempt at all means abort. (Replies
  // reporting the same attempt agree on its value — one propose per epoch.)
  QuorumEpoch max_attempt = 0;
  bool max_pre_abort = true;
  for (const QuorumTxnState::ElectReply& r : q.replies) {
    if (r.last_attempt > max_attempt) {
      max_attempt = r.last_attempt;
      max_pre_abort = r.pre_abort;
    }
  }
  const Decision value = (max_attempt > 0 && !max_pre_abort)
                             ? Decision::kCommit
                             : Decision::kAbort;
  q.attempt_value = value;

  // Accept our own attempt durably before asking the others.
  q.last_attempt = q.elect_epoch;
  q.attempt_pre_abort = (value == Decision::kAbort);
  env_->LogPayload(txn, LogRecordType::kQuorumState,
                   PackQuorumState(q.last_elected, q.last_attempt,
                                   q.attempt_pre_abort));
  env_->Log(txn, value == Decision::kCommit ? LogRecordType::kPreCommit
                                            : LogRecordType::kPreAbort);
  SetState(txn, rec, value == Decision::kCommit ? CohortState::kPreCommit
                                                : CohortState::kPreAbort);
  q.attempt_acks.clear();
  q.attempt_acks.insert(env_->self());

  for (NodeId p : rec.participants) {
    if (p == env_->self()) continue;
    Message msg;
    msg.type = MsgType::kQuorumPropose;
    msg.src = env_->self();
    msg.dst = p;
    msg.txn = txn;
    msg.participants = rec.participants;
    msg.quorum_epoch = q.elect_epoch;
    msg.decision = value;
    msg.has_decision = true;
    env_->Send(std::move(msg));
  }
  if (q.attempt_acks.size() >= QuorumSize(rec.participants.size())) {
    AdoptDecision(txn, rec, value, /*from_termination=*/true);
    return;
  }
  env_->ArmTimer(txn, QuorumRetryDelay(rec));
}

void CommitEngine::OnQuorumPropose(const Message& msg) {
  TxnRecord* rec = Find(msg.txn);
  if (rec == nullptr) {
    // Only nodes holding a record may accept attempts (acceptance must be
    // able to log against protocol state); a cleaned-up node answers with
    // its decision instead.
    const Decision* prior = decision_ledger_.Find(msg.txn);
    if (prior != nullptr) {
      Message reply;
      reply.type = *prior == Decision::kCommit ? MsgType::kGlobalCommit
                                               : MsgType::kGlobalAbort;
      reply.src = env_->self();
      reply.dst = msg.src;
      reply.txn = msg.txn;
      reply.forwarded = true;
      env_->Send(std::move(reply));
    }
    return;
  }
  if (rec->decided) {
    SendTo(msg.src, msg.txn,
           rec->decision == Decision::kCommit ? MsgType::kGlobalCommit
                                              : MsgType::kGlobalAbort,
           *rec, /*forwarded=*/true);
    return;
  }
  QuorumTxnState& q = EnsureQuorum(*rec);
  if (msg.quorum_epoch < q.last_elected) return;  // promised a newer epoch
  q.last_elected = std::max(q.last_elected, msg.quorum_epoch);
  q.last_attempt = msg.quorum_epoch;
  q.attempt_pre_abort = (msg.decision == Decision::kAbort);
  q.max_seen = std::max(q.max_seen, msg.quorum_epoch);
  // Accepting abandons any election this node was driving itself.
  q.elect_epoch = 0;
  rec->in_termination = false;
  env_->LogPayload(msg.txn, LogRecordType::kQuorumState,
                   PackQuorumState(q.last_elected, q.last_attempt,
                                   q.attempt_pre_abort));
  env_->Log(msg.txn, msg.decision == Decision::kCommit
                         ? LogRecordType::kPreCommit
                         : LogRecordType::kPreAbort);
  SetState(msg.txn, *rec,
           msg.decision == Decision::kCommit ? CohortState::kPreCommit
                                             : CohortState::kPreAbort);
  Message reply;
  reply.type = MsgType::kQuorumAck;
  reply.src = env_->self();
  reply.dst = msg.src;
  reply.txn = msg.txn;
  reply.quorum_epoch = msg.quorum_epoch;
  env_->Send(std::move(reply));
  // Await the initiator's decision; time out into our own election if it
  // never arrives.
  env_->ArmTimer(msg.txn, config_.timeout_us);
}

void CommitEngine::OnQuorumAck(const Message& msg, TxnRecord& rec) {
  if (rec.decided || rec.quorum == nullptr) return;
  QuorumTxnState& q = *rec.quorum;
  if (!q.attempt_proposed || msg.quorum_epoch != q.elect_epoch) return;
  q.attempt_acks.insert(msg.src);
  if (q.attempt_acks.size() >= QuorumSize(rec.participants.size())) {
    // Attempt e is chosen by a quorum: decide, log, and disseminate.
    AdoptDecision(msg.txn, rec, q.attempt_value, /*from_termination=*/true);
  }
}

}  // namespace ecdb
