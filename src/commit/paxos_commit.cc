// Paxos Commit (Gray & Lamport, "Consensus on transaction commit"). One
// acceptor set — all participants, quorum = majority — runs one Paxos
// instance per RM's vote:
//
//  * Fault-free: the coordinator logs begin-commit + its own ready record,
//    then every RM (coordinator included) broadcasts its vote as a
//    ballot-0 kPaxosVote to all acceptors; acceptors log the accept and
//    report kPaxosAccepted to the coordinator, the ballot-0 leader. Once
//    every instance has an acceptor quorum, the transaction commits iff
//    every instance chose Commit, and the decision is broadcast — no ack
//    round, since the outcome is already durable at a quorum.
//  * On timeout, any participant promotes a higher ballot b: kPaxosPrepare
//    to all acceptors, a quorum of kPaxosPromise replies (carrying each
//    acceptor's accepted values), then kPaxosPropose with, per instance,
//    the highest-ballot accepted value or the free value Abort — so a vote
//    that never reached a quorum resolves to abort, while any possibly-
//    chosen value is preserved. A quorum of kPaxosAccepted decides.
//  * F = floor((n-1)/2) acceptor crashes never block: the surviving
//    majority still forms quorums. A minority partition waits (retrying
//    promotion with capped backoff) and never calls OnBlocked.
//
// The coordinator's WAL ordering is safety-critical: kReady (its own vote)
// is logged immediately after kBeginCommit and *before* any message goes
// out. A begin-only WAL therefore proves no vote was broadcast, making the
// recovery rule "begin-commit last => abort" compatible with a promoted
// proposer's decisions: without the coordinator's ballot-0 vote its
// instance can only resolve to the free value Abort.

#include "commit/commit_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ecdb {

void CommitEngine::SeedPaxosAcceptor(TxnId txn, QuorumEpoch promised,
                                     std::vector<PaxosAccepted> accepted) {
  PaxosAcceptorState& a = paxos_acceptors_[txn];
  a.promised = promised;
  a.accepted = std::move(accepted);
}

void CommitEngine::PaxosStartCommit(TxnId txn, TxnRecord& rec) {
  QuorumTxnState& q = EnsureQuorum(rec);
  q.tallies.clear();
  for (NodeId p : rec.participants) {
    QuorumTxnState::InstanceTally tally;
    tally.instance = p;
    q.tallies.push_back(std::move(tally));
  }
  for (NodeId c : rec.participants) {
    if (c == env_->self()) continue;
    SendTo(c, txn, MsgType::kPrepare, rec);
  }
  env_->ArmTimer(txn, config_.timeout_us);
  PaxosBroadcastVote(txn, rec);  // tail: self-loop may mutate engine state
}

void CommitEngine::PaxosBroadcastVote(TxnId txn, TxnRecord& rec) {
  // Write-ahead: the vote is durable before any acceptor can learn it.
  env_->Log(txn, LogRecordType::kReady);
  if (!rec.is_coordinator) {
    rec.ready_us = env_->NowUs();
    SetState(txn, rec, CohortState::kReady);
  }
  PaxosSendVote(txn, rec);
}

void CommitEngine::PaxosSendVote(TxnId txn, TxnRecord& rec) {
  // Copy the list out: the self-delivery below may release `rec`.
  const CowVector<NodeId> participants = rec.participants;
  const Decision vote = rec.own_vote;
  for (NodeId p : participants) {
    Message msg;
    msg.type = MsgType::kPaxosVote;
    msg.src = env_->self();
    msg.dst = p;
    msg.txn = txn;
    msg.participants = participants;
    msg.quorum_epoch = 0;  // ballot 0
    msg.quorum_instance = env_->self();
    msg.decision = vote;
    msg.has_decision = true;
    SendOrLoop(std::move(msg));
  }
}

// Answers an acceptor-targeted message for an already-decided transaction.
// Returns true when handled (a decision exists here).
static bool AnswerFromDecision(CommitEnv* env, const Message& msg,
                               std::optional<Decision> decision) {
  if (!decision.has_value()) return false;
  if (msg.src != env->self()) {
    Message reply;
    reply.type = *decision == Decision::kCommit ? MsgType::kGlobalCommit
                                                : MsgType::kGlobalAbort;
    reply.src = env->self();
    reply.dst = msg.src;
    reply.txn = msg.txn;
    reply.forwarded = true;
    env->Send(std::move(reply));
  }
  return true;
}

void CommitEngine::OnPaxosVote(const Message& msg) {
  TxnRecord* rec = Find(msg.txn);
  std::optional<Decision> here;
  if (rec != nullptr && rec->decided) {
    here = rec->decision;
  } else if (rec == nullptr) {
    const Decision* prior = decision_ledger_.Find(msg.txn);
    if (prior != nullptr) here = *prior;
  }
  if (AnswerFromDecision(env_, msg, here)) return;

  PaxosAcceptorState& a = paxos_acceptors_[msg.txn];
  if (a.promised > 0) return;  // a ballot passed; ballot-0 votes are void
  PaxosAccepted* slot = a.FindInstance(msg.quorum_instance);
  if (slot == nullptr) {
    a.accepted.push_back({msg.quorum_instance, 0, msg.decision});
    env_->LogPayload(msg.txn, LogRecordType::kPaxosState,
                     PackPaxosState(a.promised, a.accepted));
  } else if (slot->ballot != 0 || slot->value != msg.decision) {
    return;  // cannot happen for an honest RM; drop defensively
  }
  // Report to the ballot-0 leader — the transaction's coordinator, which
  // is recoverable from the transaction id itself.
  Message reply;
  reply.type = MsgType::kPaxosAccepted;
  reply.src = env_->self();
  reply.dst = TxnCoordinator(msg.txn);
  reply.txn = msg.txn;
  reply.quorum_epoch = 0;
  reply.quorum_instance = msg.quorum_instance;
  reply.decision = msg.decision;
  reply.has_decision = true;
  SendOrLoop(std::move(reply));
}

void CommitEngine::OnPaxosPrepare(const Message& msg) {
  TxnRecord* rec = Find(msg.txn);
  std::optional<Decision> here;
  if (rec != nullptr && rec->decided) {
    here = rec->decision;
  } else if (rec == nullptr) {
    const Decision* prior = decision_ledger_.Find(msg.txn);
    if (prior != nullptr) here = *prior;
  }
  if (AnswerFromDecision(env_, msg, here)) return;

  PaxosAcceptorState& a = paxos_acceptors_[msg.txn];
  Message reply;
  reply.type = MsgType::kPaxosPromise;
  reply.src = env_->self();
  reply.dst = msg.src;
  reply.txn = msg.txn;
  if (msg.quorum_epoch > a.promised) {
    a.promised = msg.quorum_epoch;
    // The promise is durable before it is given out.
    env_->LogPayload(msg.txn, LogRecordType::kPaxosState,
                     PackPaxosState(a.promised, a.accepted));
    reply.quorum_epoch = msg.quorum_epoch;
    reply.quorum_nack = false;
    reply.participants = PackPaxosState(a.promised, a.accepted);
  } else {
    reply.quorum_epoch = a.promised;  // the ballot to beat
    reply.quorum_nack = true;
  }
  SendOrLoop(std::move(reply));
}

void CommitEngine::OnPaxosPropose(const Message& msg) {
  TxnRecord* rec = Find(msg.txn);
  std::optional<Decision> here;
  if (rec != nullptr && rec->decided) {
    here = rec->decision;
  } else if (rec == nullptr) {
    const Decision* prior = decision_ledger_.Find(msg.txn);
    if (prior != nullptr) here = *prior;
  }
  if (AnswerFromDecision(env_, msg, here)) return;

  PaxosAcceptorState& a = paxos_acceptors_[msg.txn];
  Message reply;
  reply.type = MsgType::kPaxosAccepted;
  reply.src = env_->self();
  reply.dst = msg.src;
  reply.txn = msg.txn;
  reply.quorum_instance = kInvalidNode;  // aggregate (all-instance) accept
  if (msg.quorum_epoch >= a.promised) {
    QuorumEpoch ballot = 0;
    std::vector<PaxosAccepted> values;
    if (!UnpackPaxosState(msg.participants, &ballot, &values)) return;
    a.promised = msg.quorum_epoch;
    a.accepted = std::move(values);
    for (PaxosAccepted& v : a.accepted) v.ballot = msg.quorum_epoch;
    env_->LogPayload(msg.txn, LogRecordType::kPaxosState,
                     PackPaxosState(a.promised, a.accepted));
    reply.quorum_epoch = msg.quorum_epoch;
    reply.quorum_nack = false;
  } else {
    reply.quorum_epoch = a.promised;
    reply.quorum_nack = true;
  }
  SendOrLoop(std::move(reply));
}

void CommitEngine::PaxosPromote(TxnId txn, TxnRecord& rec) {
  if (rec.participants.empty()) {
    env_->ArmTimer(txn, config_.timeout_us);
    return;
  }
  QuorumTxnState& q = EnsureQuorum(rec);
  const uint64_t round =
      std::max(QuorumEpochRound(q.ballot), QuorumEpochRound(q.max_seen)) + 1;
  q.ballot = MakeQuorumEpoch(round, env_->self());
  q.promises.clear();
  q.merged.clear();
  q.ballot_proposed = false;
  q.ballot_accepts.clear();
  q.proposal.clear();
  rec.in_termination = true;
  env_->OnProtocolEvent(ProtocolEvent::kBallotPromoted);
  // Promotions are this protocol's recovery rounds.
  env_->OnProtocolEvent(ProtocolEvent::kTerminationRound);
  rec.term_attempts++;
  Trace(TraceEventType::kTermRoundStart, txn, rec.term_attempts);
  env_->ArmTimer(txn, QuorumRetryDelay(rec));
  const CowVector<NodeId> participants = rec.participants;
  for (NodeId p : participants) {
    Message msg;
    msg.type = MsgType::kPaxosPrepare;
    msg.src = env_->self();
    msg.dst = p;
    msg.txn = txn;
    msg.participants = participants;
    msg.quorum_epoch = q.ballot;
    SendOrLoop(std::move(msg));
  }
}

void CommitEngine::OnPaxosPromise(const Message& msg, TxnRecord& rec) {
  if (rec.decided || rec.quorum == nullptr) return;
  QuorumTxnState& q = *rec.quorum;
  if (msg.quorum_nack) {
    q.max_seen = std::max(q.max_seen, msg.quorum_epoch);
    return;
  }
  if (q.ballot == 0 || msg.quorum_epoch != q.ballot || q.ballot_proposed) {
    return;
  }
  if (!q.promises.insert(msg.src)) return;  // duplicate
  QuorumEpoch promised = 0;
  std::vector<PaxosAccepted> accepted;
  if (UnpackPaxosState(msg.participants, &promised, &accepted)) {
    for (const PaxosAccepted& in : accepted) {
      PaxosAccepted* have = nullptr;
      for (PaxosAccepted& m : q.merged) {
        if (m.instance == in.instance) {
          have = &m;
          break;
        }
      }
      if (have == nullptr) {
        q.merged.push_back(in);
      } else if (in.ballot > have->ballot) {
        *have = in;  // keep the highest-ballot accepted value per instance
      }
    }
  }
  if (q.promises.size() < QuorumSize(rec.participants.size())) return;

  // Phase 2: propose, per instance, the highest accepted value seen in the
  // promise quorum — or the free value Abort for a vote no quorum member
  // ever accepted (that instance cannot have been chosen at ballot 0).
  q.ballot_proposed = true;
  q.proposal.clear();
  for (NodeId p : rec.participants) {
    PaxosAccepted v;
    v.instance = p;
    v.ballot = q.ballot;
    v.value = Decision::kAbort;
    for (const PaxosAccepted& m : q.merged) {
      if (m.instance == p) {
        v.value = m.value;
        break;
      }
    }
    q.proposal.push_back(v);
  }
  const CowVector<NodeId> payload = PackPaxosState(q.ballot, q.proposal);
  const CowVector<NodeId> participants = rec.participants;
  const QuorumEpoch ballot = q.ballot;
  for (NodeId p : participants) {
    Message out;
    out.type = MsgType::kPaxosPropose;
    out.src = env_->self();
    out.dst = p;
    out.txn = msg.txn;
    out.participants = payload;
    out.quorum_epoch = ballot;
    SendOrLoop(std::move(out));
  }
}

void CommitEngine::OnPaxosAccepted(const Message& msg, TxnRecord& rec) {
  if (rec.decided || rec.quorum == nullptr) return;
  QuorumTxnState& q = *rec.quorum;
  if (msg.quorum_nack) {
    q.max_seen = std::max(q.max_seen, msg.quorum_epoch);
    return;
  }

  if (msg.quorum_epoch == 0 && msg.quorum_instance != kInvalidNode) {
    // Ballot-0 tally at the leader (the coordinator).
    if (!rec.is_coordinator || q.tallies.empty()) return;
    for (QuorumTxnState::InstanceTally& t : q.tallies) {
      if (t.instance != msg.quorum_instance) continue;
      if (!t.done) {
        if (t.accepted_from.empty()) {
          t.value = msg.decision;
        } else if (msg.decision != t.value) {
          // A quorum must accept one value; a conflicting accept (e.g. a
          // retransmitted vote raced with a promoted ballot) doesn't count.
          return;
        }
      }
      if (!t.accepted_from.insert(msg.src)) return;
      if (t.done ||
          t.accepted_from.size() < QuorumSize(rec.participants.size())) {
        return;
      }
      t.done = true;
      if (t.value == Decision::kAbort) {
        // One instance chose Abort: the conjunction is already decided.
        env_->OnProtocolEvent(ProtocolEvent::kAcceptorRound);
        CoordinatorDecide(msg.txn, rec, Decision::kAbort);
        return;
      }
      for (const QuorumTxnState::InstanceTally& other : q.tallies) {
        if (!other.done) return;  // still collecting other instances
      }
      env_->OnProtocolEvent(ProtocolEvent::kAcceptorRound);
      CoordinatorDecide(msg.txn, rec, Decision::kCommit);
      return;
    }
    return;
  }

  // Aggregate accept for a promoted ballot this node proposed.
  if (q.ballot == 0 || msg.quorum_epoch != q.ballot || !q.ballot_proposed) {
    return;
  }
  if (!q.ballot_accepts.insert(msg.src)) return;
  if (q.ballot_accepts.size() < QuorumSize(rec.participants.size())) return;
  bool all_commit = true;
  for (const PaxosAccepted& v : q.proposal) {
    if (v.value == Decision::kAbort) {
      all_commit = false;
      break;
    }
  }
  env_->OnProtocolEvent(ProtocolEvent::kAcceptorRound);
  AdoptDecision(msg.txn, rec,
                all_commit ? Decision::kCommit : Decision::kAbort,
                /*from_termination=*/true);
}

void CommitEngine::PaxosOnTimeout(TxnId txn, TxnRecord& rec) {
  if (rec.decided) return;
  if (!rec.is_coordinator && rec.state == CohortState::kInitial) {
    // No Prepare arrived: this RM never voted, so its instance can only
    // resolve to the free value Abort — unilateral abort agrees with every
    // possible ballot outcome.
    env_->CancelTimer(txn);
    rec.decided = true;
    rec.decision = Decision::kAbort;
    ApplyAndLog(txn, rec, Decision::kAbort);
    MaybeCleanup(txn, rec);
    return;
  }
  if (rec.in_termination) {
    // The pending promotion found no quorum.
    env_->OnProtocolEvent(ProtocolEvent::kQuorumLost);
    Trace(TraceEventType::kTermRoundOutcome, txn, 0, kInvalidNode,
          static_cast<uint8_t>(TermOutcome::kDeferred));
  }
  // Coordinator missing accepts, or an RM waiting on a decision that never
  // came: promote a ballot. (The coordinator must NOT unilaterally abort —
  // unlike in 2PC, a promoted proposer can legitimately commit without it
  // once every instance has a ballot-0 quorum.)
  PaxosPromote(txn, rec);
}

}  // namespace ecdb
