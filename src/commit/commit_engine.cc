#include "commit/commit_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ecdb {

CommitEngine::CommitEngine(CommitProtocol protocol, CommitEnv* env,
                           CommitEngineConfig config)
    : protocol_(protocol), env_(env), config_(config) {}

CommitEngine::TxnRecord* CommitEngine::Find(TxnId txn) {
  const uint32_t* idx = index_.Find(txn);
  return idx == nullptr ? nullptr : &pool_[*idx];
}

const CommitEngine::TxnRecord* CommitEngine::Find(TxnId txn) const {
  const uint32_t* idx = index_.Find(txn);
  return idx == nullptr ? nullptr : &pool_[*idx];
}

CommitEngine::TxnRecord& CommitEngine::GetOrCreate(TxnId txn) {
  const auto [slot, inserted] = index_.Emplace(txn, 0);
  if (!inserted) return pool_[*slot];
  uint32_t idx;
  if (!free_records_.empty()) {
    idx = free_records_.back();  // already Reset by ReleaseRecord
    free_records_.pop_back();
  } else {
    idx = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  *slot = idx;  // pool_ growth does not move index_'s slots
  return pool_[idx];
}

void CommitEngine::ReleaseRecord(TxnId txn) {
  const uint32_t* idx = index_.Find(txn);
  if (idx == nullptr) return;
  const uint32_t freed = *idx;
  index_.Erase(txn);
  pool_[freed].Reset();
  free_records_.push_back(freed);
}

void CommitEngine::SendTo(NodeId dst, TxnId txn, MsgType type,
                          const TxnRecord& rec, bool forwarded) {
  Message msg;
  msg.type = type;
  msg.src = env_->self();
  msg.dst = dst;
  msg.txn = txn;
  msg.participants = rec.participants;
  msg.forwarded = forwarded;
  env_->Send(std::move(msg));
}

void CommitEngine::BroadcastDecision(TxnId txn, TxnRecord& rec,
                                     bool forwarded) {
  const MsgType type = rec.decision == Decision::kCommit
                           ? MsgType::kGlobalCommit
                           : MsgType::kGlobalAbort;
  uint64_t recipients = 0;
  if (!rec.participants.empty()) {
    for (NodeId p : rec.participants) {
      if (p != env_->self()) {
        SendTo(p, txn, type, rec, forwarded);
        recipients++;
      }
    }
  } else {
    // Degenerate case: this node never learned the participant list (no
    // Prepare arrived). Tell whoever we know about: the coordinator and any
    // node that answered our termination query.
    FlatNodeSet targets;
    if (rec.coordinator != kInvalidNode && rec.coordinator != env_->self()) {
      targets.insert(rec.coordinator);
    }
    for (const auto& [node, reply] : rec.term_replies) targets.insert(node);
    for (NodeId t : targets) SendTo(t, txn, type, rec, forwarded);
    recipients = targets.size();
  }
  // Every path that pushes the decision onto the network funnels through
  // here (coordinator broadcast, EC forward, termination leader), so this
  // is the one place the transmit leg of "first transmit then commit" is
  // traced. EC-noforward participants never reach it — by design.
  Trace(TraceEventType::kDecisionTransmit, txn, recipients, kInvalidNode,
        static_cast<uint8_t>(rec.decision));
}

// --------------------------------------------------------------------------
// Coordinator side
// --------------------------------------------------------------------------

void CommitEngine::StartCommit(TxnId txn, CowVector<NodeId> participants,
                               Decision own_vote) {
  ECDB_CHECK(!participants.empty() && participants[0] == env_->self());
  TxnRecord& rec = GetOrCreate(txn);
  rec.is_coordinator = true;
  rec.coordinator = env_->self();
  rec.participants = std::move(participants);
  rec.own_vote = own_vote;
  rec.start_us = env_->NowUs();
  SetState(txn, rec, CohortState::kWait);

  if (protocol_ != CommitProtocol::kTwoPhasePresumedAbort) {
    env_->Log(txn, LogRecordType::kBeginCommit);
  }

  // A termination leader may have decided this transaction already (its
  // cohort timed out while our execution replies were delayed) — the
  // forwarded decision landed in the ledger. Honor it instead of running
  // the vote; re-deciding could contradict what cohorts already applied.
  if (!decision_ledger_.empty()) {  // empty-check keeps the default path cold
    const Decision* prior = decision_ledger_.Find(txn);
    if (prior != nullptr) {
      CoordinatorDecide(txn, rec, *prior);
      return;
    }
  }

  // Cohorts are everyone in the list but us; iterated in place instead of
  // materializing a vector per transaction.
  bool has_cohorts = false;
  for (NodeId p : rec.participants) {
    if (p != env_->self()) {
      has_cohorts = true;
      break;
    }
  }
  if (own_vote == Decision::kAbort || !has_cohorts) {
    // Safe for every protocol including Paxos Commit: without the
    // coordinator's own ballot-0 vote its instance can only resolve to the
    // free value Abort, so no promoted proposer can ever decide commit.
    CoordinatorDecide(txn, rec, own_vote);
    return;
  }
  if (protocol_ == CommitProtocol::kPaxosCommit) {
    PaxosStartCommit(txn, rec);
    return;
  }
  for (NodeId c : rec.participants) {
    if (c == env_->self()) continue;
    SendTo(c, txn, MsgType::kPrepare, rec);
    rec.votes_pending.insert(c);
  }
  env_->ArmTimer(txn, config_.timeout_us);
}

void CommitEngine::OnVote(const Message& msg, TxnRecord& rec) {
  if (rec.state != CohortState::kWait) return;  // late vote after decision
  rec.votes_pending.erase(msg.src);
  if (msg.type == MsgType::kVoteAbort) {
    rec.any_vote_abort = true;
  } else {
    rec.commit_voters.insert(msg.src);
  }
  if (rec.votes_pending.empty()) {
    CoordinatorAllVotesIn(msg.txn, rec);
  }
}

void CommitEngine::CoordinatorAllVotesIn(TxnId txn, TxnRecord& rec) {
  if (rec.any_vote_abort || rec.own_vote == Decision::kAbort) {
    CoordinatorDecide(txn, rec, Decision::kAbort);
    return;
  }
  // Commit-bound: the vote-collection phase ends here (abort-bound
  // transactions are excluded from phase-latency accounting).
  env_->OnPhaseSample(txn, CommitPhase::kVoteCollection,
                      env_->NowUs() - rec.start_us);
  if (protocol_ == CommitProtocol::kThreePhaseE3PC && rec.quorum != nullptr &&
      rec.quorum->last_elected > kInitialAttemptEpoch) {
    // A quorum election outranks the original attempt: having promised
    // epoch e > 1, this coordinator may no longer place attempt 1 — the
    // election's leader decides (possibly without our votes).
    return;
  }
  if (IsThreePhaseFamily()) {
    // Extra phase: Prepare-to-Commit, then wait for acknowledgments.
    SetState(txn, rec, CohortState::kPreCommit);
    env_->Log(txn, LogRecordType::kPreCommit);
    for (NodeId c : rec.participants) {
      if (c == env_->self()) continue;
      SendTo(c, txn, MsgType::kPreCommit, rec);
      rec.precommit_acks_pending.insert(c);
    }
    env_->ArmTimer(txn, config_.timeout_us);
    return;
  }
  CoordinatorDecide(txn, rec, Decision::kCommit);
}

void CommitEngine::OnPreCommitAck(const Message& msg, TxnRecord& rec) {
  if (rec.state != CohortState::kPreCommit || !rec.is_coordinator) return;
  if (protocol_ == CommitProtocol::kThreePhaseE3PC && rec.quorum != nullptr &&
      rec.quorum->last_elected > kInitialAttemptEpoch) {
    return;  // promised a newer election; attempt 1 may no longer decide
  }
  rec.precommit_acks_pending.erase(msg.src);
  if (rec.precommit_acks_pending.empty()) {
    CoordinatorDecide(msg.txn, rec, Decision::kCommit);
  }
}

void CommitEngine::CoordinatorDecide(TxnId txn, TxnRecord& rec,
                                     Decision decision) {
  env_->CancelTimer(txn);
  rec.decided = true;
  rec.decision = decision;
  // A Paxos node that knows the decision is done accepting: late queries
  // for this transaction are answered from the record/ledger instead.
  if (protocol_ == CommitProtocol::kPaxosCommit) paxos_acceptors_.Erase(txn);
  // Presumed-abort coordinators write no abort records at all: recovery
  // maps "no entry" to abort, which is exactly the presumption.
  const bool presumed = protocol_ == CommitProtocol::kTwoPhasePresumedAbort &&
                        decision == Decision::kAbort;
  if (!presumed) {
    env_->Log(txn, decision == Decision::kCommit
                       ? LogRecordType::kCommitDecision
                       : LogRecordType::kAbortDecision);
  }
  // "First transmit and then commit": the global decision reaches the
  // network before the coordinator applies it locally. (2PC/3PC share the
  // ordering; the distinction is that they then wait for acknowledgments.)
  // EC makes the transmit leg an explicit (hidden) state — Figure 6's
  // TRANSMIT-C/TRANSMIT-A — which the trace records even though control
  // passes straight through it.
  if (IsEasyCommit()) {
    SetState(txn, rec, decision == Decision::kCommit
                           ? CohortState::kTransmitC
                           : CohortState::kTransmitA);
  }
  BroadcastDecision(txn, rec, /*forwarded=*/false);
  if (AcksExpectedFor(decision)) {
    // Wait for an ack from every cohort that voted commit (abort-voters
    // have already aborted unilaterally and forgotten the transaction).
    rec.acks_pending = rec.commit_voters;
  }
  ApplyAndLog(txn, rec, decision);
  MaybeCleanup(txn, rec);
}

void CommitEngine::OnAck(const Message& msg, TxnRecord& rec) {
  rec.acks_pending.erase(msg.src);
  if (rec.applied) MaybeCleanup(msg.txn, rec);
}

// --------------------------------------------------------------------------
// Participant side
// --------------------------------------------------------------------------

void CommitEngine::ExpectPrepare(TxnId txn, NodeId coordinator,
                                 CowVector<NodeId> participants) {
  TxnRecord& rec = GetOrCreate(txn);
  if (rec.decided) return;  // decision already arrived (fast path races)
  rec.is_coordinator = false;
  rec.coordinator = coordinator;
  if (!participants.empty()) rec.participants = std::move(participants);
  rec.state = CohortState::kInitial;
  env_->ArmTimer(txn, config_.timeout_us);
}

void CommitEngine::OnPrepare(const Message& msg) {
  if (!decision_ledger_.empty() && Find(msg.txn) == nullptr) {
    // Prepare for a transaction we already decided and cleaned up — e.g.
    // the unilateral no-Prepare timeout abort racing a delayed Prepare.
    // Creating a fresh record would re-run the vote and can contradict
    // the applied decision (abort applied, then READY + vote-commit on
    // the resurrected record). Answer from the ledger instead.
    const Decision* prior = decision_ledger_.Find(msg.txn);
    if (prior != nullptr) {
      Message reply;
      reply.type = *prior == Decision::kCommit ? MsgType::kVoteCommit
                                               : MsgType::kVoteAbort;
      reply.src = env_->self();
      reply.dst = msg.src;
      reply.txn = msg.txn;
      env_->Send(std::move(reply));
      return;
    }
  }
  TxnRecord& rec = GetOrCreate(msg.txn);
  if (rec.decided) return;
  rec.coordinator = msg.src;
  if (!msg.participants.empty()) rec.participants = msg.participants;

  if (rec.state == CohortState::kReady) {
    if (protocol_ == CommitProtocol::kPaxosCommit) {
      PaxosSendVote(msg.txn, rec);  // re-broadcast the ballot-0 vote
      return;
    }
    // Duplicate Prepare (coordinator retry): re-send our vote.
    SendTo(msg.src, msg.txn,
           rec.own_vote == Decision::kCommit ? MsgType::kVoteCommit
                                             : MsgType::kVoteAbort,
           rec);
    return;
  }
  if (rec.state != CohortState::kInitial) return;

  const Decision vote = env_->VoteFor(msg.txn);
  rec.own_vote = vote;

  if (protocol_ == CommitProtocol::kPaxosCommit) {
    if (vote == Decision::kCommit) {
      env_->ArmTimer(msg.txn, config_.timeout_us);
      PaxosBroadcastVote(msg.txn, rec);  // tail: may recurse via self-loop
      return;
    }
    // Abort vote: tell the acceptors (ballot 0, value abort), then abort
    // unilaterally — with an abort value placed in this RM's instance no
    // ballot can ever choose commit for it, so the global AND is abort.
    PaxosSendVote(msg.txn, rec);
    env_->CancelTimer(msg.txn);
    rec.decided = true;
    rec.decision = Decision::kAbort;
    ApplyAndLog(msg.txn, rec, Decision::kAbort);
    MaybeCleanup(msg.txn, rec);
    return;
  }

  if (IsEasyCommit()) {
    // Observation I: an EC participant never moves INITIAL -> ABORT
    // directly. Whatever it votes, it enters READY and waits for the
    // global decision (Figure 5b: send decision, then add ready to log).
    SendTo(msg.src, msg.txn,
           vote == Decision::kCommit ? MsgType::kVoteCommit
                                     : MsgType::kVoteAbort,
           rec);
    env_->Log(msg.txn, LogRecordType::kReady);
    rec.ready_us = env_->NowUs();
    SetState(msg.txn, rec, CohortState::kReady);
    env_->ArmTimer(msg.txn, config_.timeout_us);
    return;
  }

  if (vote == Decision::kCommit) {
    env_->Log(msg.txn, LogRecordType::kReady);
    SendTo(msg.src, msg.txn, MsgType::kVoteCommit, rec);
    rec.ready_us = env_->NowUs();
    SetState(msg.txn, rec, CohortState::kReady);
    env_->ArmTimer(msg.txn, config_.timeout_us);
    return;
  }
  // 2PC/3PC: an abort vote moves the cohort to ABORT unilaterally.
  SendTo(msg.src, msg.txn, MsgType::kVoteAbort, rec);
  env_->CancelTimer(msg.txn);
  rec.decided = true;
  rec.decision = Decision::kAbort;
  ApplyAndLog(msg.txn, rec, Decision::kAbort);
  MaybeCleanup(msg.txn, rec);
}

void CommitEngine::OnPreCommitMsg(const Message& msg, TxnRecord& rec) {
  if (rec.decided || !IsThreePhaseFamily()) return;
  if (protocol_ == CommitProtocol::kThreePhaseE3PC && rec.quorum != nullptr &&
      rec.quorum->last_elected > kInitialAttemptEpoch) {
    // E3PC refusal rule: having joined election e > 1, accepting the
    // original attempt would let the coordinator assemble a full ack set
    // disjoint from the election's view — the split-brain this protocol
    // exists to prevent. The election's propose supersedes this message.
    return;
  }
  if (rec.state == CohortState::kPreCommit) {
    SendTo(msg.src, msg.txn, MsgType::kPreCommitAck, rec);  // duplicate
    return;
  }
  if (rec.state != CohortState::kReady) return;
  env_->Log(msg.txn, LogRecordType::kPreCommit);
  SetState(msg.txn, rec, CohortState::kPreCommit);
  SendTo(msg.src, msg.txn, MsgType::kPreCommitAck, rec);
  env_->ArmTimer(msg.txn, config_.timeout_us);
}

void CommitEngine::OnGlobalDecision(const Message& msg, TxnRecord& rec) {
  const Decision decision = msg.type == MsgType::kGlobalCommit
                                ? Decision::kCommit
                                : Decision::kAbort;
  if (!msg.participants.empty() && rec.participants.empty()) {
    rec.participants = msg.participants;
  }
  rec.seen_decision_from.insert(msg.src);
  if (rec.decided) {
    // Duplicate or EC forward; only relevant for cleanup accounting. A
    // *conflicting* decision can never happen under EC/2PC/3PC with node
    // failures only; the forwarding-disabled ablation does produce it, and
    // the counter is how that experiment measures safety violations.
    env_->OnProtocolEvent(ProtocolEvent::kDuplicateDecision);
    if (rec.decision != decision) {
      env_->OnProtocolEvent(ProtocolEvent::kConflictingDecision);
      ECDB_LOG(kWarn, "conflicting decision for txn %llu on node %u",
               static_cast<unsigned long long>(msg.txn), env_->self());
    }
    if (rec.applied) MaybeCleanup(msg.txn, rec);
    return;
  }
  AdoptDecision(msg.txn, rec, decision, /*from_termination=*/false);
}

void CommitEngine::AdoptDecision(TxnId txn, TxnRecord& rec, Decision decision,
                                 bool from_termination) {
  env_->CancelTimer(txn);
  rec.in_termination = false;
  rec.decided = true;
  rec.decision = decision;
  if (protocol_ == CommitProtocol::kPaxosCommit) paxos_acceptors_.Erase(txn);

  // Participant-side transmit phase: READY until the decision arrived.
  // Commit-bound only, and not for termination outcomes (those measure
  // failure handling, not the steady-state transmit leg).
  if (!from_termination && decision == Decision::kCommit &&
      rec.ready_us != 0) {
    env_->OnPhaseSample(txn, CommitPhase::kDecisionTransmit,
                        env_->NowUs() - rec.ready_us);
  }
  // EC's hidden transmit state (Figure 6): entered on learning the
  // decision, left once the forwards are on the wire.
  if (IsEasyCommit() && (from_termination || ForwardingEnabled())) {
    SetState(txn, rec, decision == Decision::kCommit
                           ? CohortState::kTransmitC
                           : CohortState::kTransmitA);
  }

  if (from_termination) {
    Trace(TraceEventType::kTermRoundOutcome, txn, 0, kInvalidNode,
          static_cast<uint8_t>(decision == Decision::kCommit
                                   ? TermOutcome::kLedCommit
                                   : TermOutcome::kLedAbort));
    // Termination leader: log the decision as reached, then transmit
    // (paper cases A-C and the leader-election rule).
    env_->Log(txn, decision == Decision::kCommit
                       ? LogRecordType::kCommitDecision
                       : LogRecordType::kAbortDecision);
    BroadcastDecision(txn, rec, /*forwarded=*/true);
  } else if (IsEasyCommit()) {
    // EC participant (Figure 5b): log reception, forward to every node,
    // only then commit/abort locally.
    env_->Log(txn, decision == Decision::kCommit
                       ? LogRecordType::kCommitReceived
                       : LogRecordType::kAbortReceived);
    if (ForwardingEnabled()) {
      BroadcastDecision(txn, rec, /*forwarded=*/true);
    }
  } else {
    // 2PC/3PC participants acknowledge the coordinator's decision; the
    // presumed variants skip the ack on the presumed side.
    if (AcksExpectedFor(decision) && rec.coordinator != kInvalidNode &&
        rec.coordinator != env_->self()) {
      SendTo(rec.coordinator, txn, MsgType::kAck, rec);
    }
  }

  ApplyAndLog(txn, rec, decision);
  MaybeCleanup(txn, rec);
}

void CommitEngine::ApplyAndLog(TxnId txn, TxnRecord& rec, Decision decision) {
  ECDB_CHECK(!rec.applied);
  rec.applied = true;
  rec.blocked = false;
  Trace(TraceEventType::kDecisionApply, txn, 0, kInvalidNode,
        static_cast<uint8_t>(decision));
  env_->ApplyDecision(txn, decision);
  rec.applied_us = env_->NowUs();
  const bool presumed = protocol_ == CommitProtocol::kTwoPhasePresumedAbort &&
                        decision == Decision::kAbort;
  if (!presumed) {
    env_->Log(txn, decision == Decision::kCommit
                       ? LogRecordType::kTransactionCommit
                       : LogRecordType::kTransactionAbort);
  }
  SetState(txn, rec, decision == Decision::kCommit ? CohortState::kCommitted
                                                   : CohortState::kAborted);
  if (config_.keep_decision_ledger) LedgerRecord(txn, decision);
}

void CommitEngine::LedgerRecord(TxnId txn, Decision decision) {
  const auto [slot, inserted] = decision_ledger_.Emplace(txn, Decision{decision});
  if (!inserted) {
    *slot = decision;
    return;
  }
  if (config_.decision_ledger_cap == 0) return;
  ledger_fifo_.push_back(txn);
  while (decision_ledger_.size() > config_.decision_ledger_cap &&
         !ledger_fifo_.empty()) {
    decision_ledger_.Erase(ledger_fifo_.front());
    ledger_fifo_.pop_front();
  }
}

void CommitEngine::MaybeCleanup(TxnId txn, TxnRecord& rec) {
  if (!rec.applied) return;

  bool pending = false;
  if (rec.is_coordinator && !IsEasyCommit()) {
    pending = !rec.acks_pending.empty();
  } else if (ForwardingEnabled()) {
    // EC (Section 5.3): resources are released only after a Global-*
    // message has been seen from every other participant. Most receipts
    // cannot possibly complete the set yet, so check the count before
    // paying a per-participant lookup; the loop stays authoritative (the
    // set is keyed by sender, which need not be a current participant).
    if (rec.seen_decision_from.size() + 1 < rec.participants.size()) {
      pending = true;
    } else {
      for (NodeId p : rec.participants) {
        if (p == env_->self()) continue;
        if (rec.seen_decision_from.count(p) == 0) {
          pending = true;
          break;
        }
      }
    }
  }

  if (pending) {
    // Give-up timer: if a peer crashed and its ack/forward never comes,
    // release resources anyway once the decision is durable. Armed once
    // per record: under EC every one of the n-1 forwards lands here, and
    // re-arming on each would churn the timer queue and let a steady
    // trickle of duplicates push the give-up deadline out indefinitely.
    if (!rec.cleanup_armed) {
      rec.cleanup_armed = true;
      env_->ArmTimer(txn, config_.timeout_us);
    }
    return;
  }
  FinishCleanup(txn, rec);
}

void CommitEngine::FinishCleanup(TxnId txn, TxnRecord& rec) {
  // Apply phase: decision applied locally until resources are released
  // (for EC this spans the wait for every participant's forward).
  if (rec.applied && rec.decision == Decision::kCommit) {
    env_->OnPhaseSample(txn, CommitPhase::kDecisionApply,
                        env_->NowUs() - rec.applied_us);
  }
  Trace(TraceEventType::kCleanup, txn);
  env_->CancelTimer(txn);
  env_->OnCleanup(txn);
  ReleaseRecord(txn);  // `rec` is Reset and pooled past this line
}

// --------------------------------------------------------------------------
// Termination protocol
// --------------------------------------------------------------------------

void CommitEngine::OnTimeout(TxnId txn) {
  TxnRecord* rec = Find(txn);
  if (rec == nullptr) return;  // spurious (already cleaned up)

  // Quorum protocols replace every undecided timeout rule below with
  // quorum-gated ones; the applied/cleanup handling further down is shared.
  if (IsQuorumProtocol() && !rec->applied) {
    if (protocol_ == CommitProtocol::kThreePhaseE3PC) {
      E3pcOnTimeout(txn, *rec);
    } else {
      PaxosOnTimeout(txn, *rec);
    }
    return;
  }

  if (rec->in_termination) {
    TerminationEvaluate(txn, *rec);
    return;
  }

  if (rec->applied) {
    // Waiting on acks (2PC/3PC coordinator) or EC forwards: give up and
    // release resources; the decision is already durable and transmitted.
    // Presumed-abort must never forget an *unacknowledged* commit — the
    // no-record-means-abort presumption is only sound because commit
    // records outlive the last missing ack.
    if (protocol_ == CommitProtocol::kTwoPhasePresumedAbort &&
        rec->decision == Decision::kCommit && !rec->acks_pending.empty()) {
      LedgerRecord(txn, Decision::kCommit);
    }
    FinishCleanup(txn, *rec);
    return;
  }

  if (rec->is_coordinator) {
    if (rec->state == CohortState::kWait) {
      // Case A: a vote is missing; abort.
      CoordinatorDecide(txn, *rec, Decision::kAbort);
      return;
    }
    if (rec->state == CohortState::kPreCommit) {
      // 3PC: a cohort failed after voting commit. Every active cohort is
      // in READY or PRE-COMMIT, so commit is safe under fail-stop with at
      // most one cohort group — but NOT under a multi-cohort partition,
      // where a majority of READY cohorts on the other side of the cut can
      // concurrently elect a leader and abort (the documented 3PC hole,
      // pinned by ThreePcMultiCohortPartitionHole). E3PC never takes this
      // branch: its coordinator runs the quorum termination rule instead.
      CoordinatorDecide(txn, *rec, Decision::kCommit);
      return;
    }
    return;
  }

  // Participant timeouts.
  if (rec->state == CohortState::kInitial && !IsEasyCommit()) {
    // 2PC/3PC case B: no Prepare arrived; we have not voted, so the
    // coordinator cannot decide commit — unilateral abort is safe.
    env_->CancelTimer(txn);
    rec->decided = true;
    rec->decision = Decision::kAbort;
    ApplyAndLog(txn, *rec, Decision::kAbort);
    MaybeCleanup(txn, *rec);
    return;
  }
  // EC case B/C, 2PC cooperative termination, 3PC termination.
  StartTermination(txn, *rec);
}

void CommitEngine::StartTermination(TxnId txn, TxnRecord& rec) {
  if (IsTwoPhaseFamily() && rec.term_attempts >= kMaxBlockedRetries) {
    // Blocked 2PC cohorts stop re-running elections after a few fruitless
    // rounds; under fail-stop the missing coordinator never returns.
    if (!rec.blocked) {
      rec.blocked = true;
      Trace(TraceEventType::kTermRoundOutcome, txn, 0, kInvalidNode,
            static_cast<uint8_t>(TermOutcome::kBlocked));
      env_->OnBlocked(txn);
    }
    rec.in_termination = false;
    return;
  }
  env_->OnProtocolEvent(ProtocolEvent::kTerminationRound);
  rec.term_attempts++;
  rec.in_termination = true;
  rec.term_replies.clear();
  Trace(TraceEventType::kTermRoundStart, txn, rec.term_attempts);

  FlatNodeSet targets;
  for (NodeId p : rec.participants) {
    if (p != env_->self()) targets.insert(p);
  }
  if (rec.coordinator != kInvalidNode && rec.coordinator != env_->self()) {
    targets.insert(rec.coordinator);
  }
  for (NodeId t : targets) SendTo(t, txn, MsgType::kTermElect, rec);
  env_->ArmTimer(txn, config_.termination_window_us);
}

void CommitEngine::OnTermElect(const Message& msg) {
  TxnRecord* rec = Find(msg.txn);
  if (rec == nullptr) {
    // Possibly already decided and cleaned up; answer from the ledger.
    const Decision* prior = decision_ledger_.Find(msg.txn);
    if (prior == nullptr) {
      if (protocol_ == CommitProtocol::kTwoPhasePresumedAbort) {
        // Presumed abort: no record of the transaction IS the answer.
        // (Sound because PA retains commit records until every cohort
        // acked; an unacked commit is never forgotten.)
        Message reply;
        reply.type = MsgType::kGlobalAbort;
        reply.src = env_->self();
        reply.dst = msg.src;
        reply.txn = msg.txn;
        reply.forwarded = true;
        env_->Send(std::move(reply));
      } else if (config_.keep_decision_ledger && !IsTwoPhaseFamily()) {
        // Ledger regime: every decision this node ever reached is in the
        // ledger (ApplyAndLog records it; recovery reseeds it from the
        // WAL), and a node that durably voted READY has a WAL record that
        // recovery resurrects. No record and no ledger entry therefore
        // means this node never voted and never decided — it simply has
        // not (yet) heard of the transaction. Say so instead of staying
        // silent, so elections can reach complete information: INITIAL is
        // exactly "I have not voted". Deliberately NOT an abort reply —
        // answering abort without remembering it would let this node
        // (e.g. a coordinator still executing the transaction) decide
        // commit moments later. Gated to the non-blocking protocols: for
        // the plain 2PC family an INITIAL reply would let cooperative
        // termination abort where the paper's 2PC blocks, erasing the
        // blocking behaviour this repo exists to contrast.
        Message reply;
        reply.type = MsgType::kTermStateReply;
        reply.src = env_->self();
        reply.dst = msg.src;
        reply.txn = msg.txn;
        reply.term_state = CohortState::kInitial;
        reply.has_decision = false;
        env_->Send(std::move(reply));
      }
      return;
    }
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
  if (rec->decided) {
    // Share the decision directly; the initiator adopts it on receipt.
    SendTo(msg.src, msg.txn,
           rec->decision == Decision::kCommit ? MsgType::kGlobalCommit
                                              : MsgType::kGlobalAbort,
           *rec, /*forwarded=*/true);
    return;
  }
  Message reply;
  reply.type = MsgType::kTermStateReply;
  reply.src = env_->self();
  reply.dst = msg.src;
  reply.txn = msg.txn;
  reply.participants = rec->participants;
  reply.term_state = rec->state;
  reply.has_decision = false;
  env_->Send(std::move(reply));
}

void CommitEngine::OnTermStateReply(const Message& msg, TxnRecord& rec) {
  if (!rec.in_termination) return;
  if (!msg.participants.empty() && rec.participants.empty()) {
    rec.participants = msg.participants;
  }
  for (auto& [node, reply] : rec.term_replies) {
    if (node == msg.src) {
      reply = msg;  // peer re-replied (duplicate election round)
      return;
    }
  }
  rec.term_replies.emplace_back(msg.src, msg);
}

void CommitEngine::TerminationEvaluate(TxnId txn, TxnRecord& rec) {
  if (rec.decided) return;

  // A reply that carried a decision (defensive: deciders normally reply
  // with a Global-* message handled elsewhere).
  for (const auto& [node, reply] : rec.term_replies) {
    if (reply.has_decision) {
      AdoptDecision(txn, rec, reply.decision, /*from_termination=*/true);
      return;
    }
  }

  NodeId leader = env_->self();
  for (const auto& [node, reply] : rec.term_replies) {
    // An INITIAL reply means "I never entered the protocol for this
    // transaction" (the ledger-regime answer for an unknown txn): that
    // node has no record, no timer, and will never run an election, so
    // it cannot be deferred to.
    if (reply.term_state == CohortState::kInitial && !reply.has_decision) {
      continue;
    }
    leader = std::min(leader, node);
  }
  if (leader != env_->self()) {
    // Someone with a smaller id is active; defer to them. If their
    // decision never arrives (they crashed mid-termination), the next
    // timeout re-runs the election without them.
    Trace(TraceEventType::kTermRoundOutcome, txn, 0, leader,
          static_cast<uint8_t>(TermOutcome::kDeferred));
    rec.in_termination = false;
    env_->ArmTimer(txn, config_.timeout_us);
    return;
  }
  TerminationLead(txn, rec);
}

void CommitEngine::TerminationLead(TxnId txn, TxnRecord& rec) {
  // "Complete information": every queried peer (participants + coordinator)
  // replied this round. Any durably applied decision is logged before it is
  // applied, and a restarted node reseeds its decision ledger from the WAL,
  // so a replier that reached a decision always reports it — a full set of
  // decision-free replies proves no decision exists anywhere.
  FlatNodeSet queried;
  for (NodeId p : rec.participants) {
    if (p != env_->self()) queried.insert(p);
  }
  if (rec.coordinator != kInvalidNode && rec.coordinator != env_->self()) {
    queried.insert(rec.coordinator);
  }
  const bool complete_info = rec.term_replies.size() >= queried.size();

  if (rec.recovered && !complete_info) {
    // Section 4.2: a node recovering in the READY/PRE-COMMIT case cannot
    // terminate the transaction on its own — the decision may have been
    // reached and applied while it was down. The unilateral rules below
    // are sound only for nodes that were operational throughout the
    // failure (they would have received any decision per the transmit-
    // before-commit discipline). Keep consulting until a peer (or its
    // decision ledger) answers — or until every peer has answered with
    // complete information, which happens when the whole cluster restarts
    // (all records recovered) and would otherwise defer forever.
    Trace(TraceEventType::kTermRoundOutcome, txn, 0, kInvalidNode,
          static_cast<uint8_t>(TermOutcome::kDeferred));
    rec.in_termination = false;
    env_->ArmTimer(txn, config_.timeout_us);
    return;
  }
  // If the coordinator is alive but undecided (WAIT), its own timeout will
  // produce the decision; deciding here would race it. Defer.
  bool coordinator_active_undecided = false;
  std::vector<CohortState> states;
  states.push_back(rec.state);
  for (const auto& [node, reply] : rec.term_replies) {
    states.push_back(reply.term_state);
    if (node == rec.coordinator && reply.term_state == CohortState::kWait) {
      coordinator_active_undecided = true;
    }
  }
  if (coordinator_active_undecided) {
    Trace(TraceEventType::kTermRoundOutcome, txn, 0, rec.coordinator,
          static_cast<uint8_t>(TermOutcome::kDeferred));
    rec.in_termination = false;
    env_->ArmTimer(txn, config_.timeout_us);
    return;
  }

  // Optional loss hardening (term_fruitless_retries > 0): the EC and 3PC
  // rules below decide unilaterally from "no reply I received carries a
  // decision". That inference needs every *silent* peer to be crashed —
  // true under fail-stop, not under message loss, where a silent peer may
  // have applied the opposite decision. If any queried peer has not
  // replied, re-run the election instead, up to the configured budget.
  // (StartTermination already counted the current round in term_attempts.)
  if (config_.term_fruitless_retries > 0 && !IsTwoPhaseFamily() &&
      !complete_info) {
    // Zero replies means we are isolated (partitioned or sole survivor):
    // deciding on no information at all can always contradict a decision
    // applied on the other side of the cut, so keep deferring — progress
    // resumes when connectivity does. Partial information consumes the
    // bounded retry budget before falling back to the paper's rule.
    const bool total_silence = rec.term_replies.empty() && !queried.empty();
    if (total_silence ||
        rec.term_attempts <= config_.term_fruitless_retries) {
      Trace(TraceEventType::kTermRoundOutcome, txn, 0, kInvalidNode,
            static_cast<uint8_t>(TermOutcome::kDeferred));
      rec.in_termination = false;
      env_->ArmTimer(txn, config_.timeout_us);
      return;
    }
  }

  const auto any_in = [&](CohortState s) {
    return std::find(states.begin(), states.end(), s) != states.end();
  };

  switch (protocol_) {
    case CommitProtocol::kEasyCommit:
    case CommitProtocol::kEasyCommitNoForward:
      // Paper: "If none of the nodes know the global decision, then the
      // leader first adds a log entry for global-abort-decision-reached,
      // then transmits Global-abort ... and finally aborts."
      AdoptDecision(txn, rec, Decision::kAbort, /*from_termination=*/true);
      return;

    case CommitProtocol::kThreePhase:
      // Skeen: a PRE-COMMIT among the active nodes implies every active
      // node voted commit and no active node aborted -> commit is safe.
      // Otherwise no one can have committed -> abort.
      AdoptDecision(txn, rec,
                    any_in(CohortState::kPreCommit) ? Decision::kCommit
                                                    : Decision::kAbort,
                    /*from_termination=*/true);
      return;

    case CommitProtocol::kTwoPhase:
    case CommitProtocol::kTwoPhasePresumedAbort:
    case CommitProtocol::kTwoPhasePresumedCommit:
      // Cooperative termination: an INITIAL cohort has not voted, so abort
      // is safe. If every active cohort is READY and the coordinator is
      // down, the outcome is unknowable -> blocked. This is the 2PC
      // blocking behaviour the paper sets out to remove (the presumed
      // variants optimize logging/acks, not blocking).
      if (any_in(CohortState::kInitial)) {
        AdoptDecision(txn, rec, Decision::kAbort, /*from_termination=*/true);
        return;
      }
      rec.blocked = true;
      rec.in_termination = false;
      Trace(TraceEventType::kTermRoundOutcome, txn, 0, kInvalidNode,
            static_cast<uint8_t>(TermOutcome::kBlocked));
      env_->OnBlocked(txn);
      if (rec.term_attempts < kMaxBlockedRetries) {
        env_->ArmTimer(txn, config_.timeout_us);
      }
      return;

    case CommitProtocol::kThreePhaseE3PC:
    case CommitProtocol::kPaxosCommit:
      // Unreachable: the quorum protocols run their own termination rules
      // (quorum_term.cc / paxos_commit.cc) and never enter the classic
      // leader election.
      return;
  }
}

void CommitEngine::Forget(TxnId txn) {
  env_->CancelTimer(txn);
  ReleaseRecord(txn);
}

void CommitEngine::ResumeAfterRecovery(TxnId txn, NodeId coordinator,
                                       CowVector<NodeId> participants,
                                       CohortState state) {
  TxnRecord& rec = GetOrCreate(txn);
  rec.is_coordinator = false;
  rec.coordinator = coordinator;
  rec.participants = std::move(participants);
  SetState(txn, rec, state);
  rec.recovered = true;
  if (protocol_ == CommitProtocol::kThreePhaseE3PC &&
      (state == CohortState::kPreCommit || state == CohortState::kPreAbort)) {
    // Derive the implicit attempt when no kQuorumState snapshot follows
    // (happy-path PRE-COMMIT logs no snapshot); SeedQuorumState overwrites
    // this with the durable epochs when one exists.
    QuorumTxnState& q = EnsureQuorum(rec);
    if (q.last_attempt == 0) {
      q.last_attempt = kInitialAttemptEpoch;
      q.attempt_pre_abort = (state == CohortState::kPreAbort);
    }
  }
  // The next timeout runs the termination protocol, which asks the
  // participants whether a decision was reached.
  env_->ArmTimer(txn, config_.termination_window_us);
}

// --------------------------------------------------------------------------
// Dispatch and introspection
// --------------------------------------------------------------------------

void CommitEngine::OnMessage(const Message& msg) {
  switch (msg.type) {
    case MsgType::kPrepare:
      OnPrepare(msg);
      return;
    case MsgType::kTermElect:
      OnTermElect(msg);
      return;
    // Quorum-protocol messages that must be serviceable without a live
    // TxnRecord (acceptor duties and election queries outlive cleanup).
    case MsgType::kQuorumElect:
      OnQuorumElect(msg);
      return;
    case MsgType::kQuorumPropose:
      OnQuorumPropose(msg);
      return;
    case MsgType::kPaxosVote:
      OnPaxosVote(msg);
      return;
    case MsgType::kPaxosPrepare:
      OnPaxosPrepare(msg);
      return;
    case MsgType::kPaxosPropose:
      OnPaxosPropose(msg);
      return;
    default:
      break;
  }

  TxnRecord* rec = Find(msg.txn);
  if (rec == nullptr) {
    // Cleaned up or never known. In the ledger regime a decision that
    // reaches us for an unknown transaction must still bind us: a
    // termination leader may abort a transaction before its coordinator
    // even reaches StartCommit (the cohort's timer raced a delayed
    // execution reply), and the coordinator must not later start the
    // protocol fresh and decide commit. StartCommit and OnPrepare consult
    // the ledger first.
    if (msg.type == MsgType::kGlobalCommit ||
        msg.type == MsgType::kGlobalAbort) {
      // A decision reaching a node that unilaterally resolved (and
      // released) its fragment still retires its acceptor duties.
      if (protocol_ == CommitProtocol::kPaxosCommit) {
        paxos_acceptors_.Erase(msg.txn);
      }
    }
    if (config_.keep_decision_ledger && (msg.type == MsgType::kGlobalCommit ||
                                         msg.type == MsgType::kGlobalAbort)) {
      if (decision_ledger_.Contains(msg.txn)) {
        // Redundant copy of a decision already on record for a cleaned-up
        // transaction — the ledger-side twin of the decided-record fast
        // path in OnGlobalDecision.
        env_->OnProtocolEvent(ProtocolEvent::kDuplicateDecision);
      } else {
        LedgerRecord(msg.txn, msg.type == MsgType::kGlobalCommit
                                  ? Decision::kCommit
                                  : Decision::kAbort);
      }
    }
    return;
  }

  switch (msg.type) {
    case MsgType::kVoteCommit:
    case MsgType::kVoteAbort:
      if (rec->is_coordinator) OnVote(msg, *rec);
      return;
    case MsgType::kPreCommit:
      OnPreCommitMsg(msg, *rec);
      return;
    case MsgType::kPreCommitAck:
      OnPreCommitAck(msg, *rec);
      return;
    case MsgType::kGlobalCommit:
    case MsgType::kGlobalAbort:
      OnGlobalDecision(msg, *rec);
      return;
    case MsgType::kAck:
      if (rec->is_coordinator) OnAck(msg, *rec);
      return;
    case MsgType::kTermStateReply:
      OnTermStateReply(msg, *rec);
      return;
    case MsgType::kQuorumStateReply:
      OnQuorumStateReply(msg, *rec);
      return;
    case MsgType::kQuorumAck:
      OnQuorumAck(msg, *rec);
      return;
    case MsgType::kPaxosPromise:
      OnPaxosPromise(msg, *rec);
      return;
    case MsgType::kPaxosAccepted:
      OnPaxosAccepted(msg, *rec);
      return;
    default:
      return;  // execution-layer messages are not ours
  }
}

std::optional<CommitTxnStatus> CommitEngine::StatusOf(TxnId txn) const {
  const TxnRecord* found = Find(txn);
  if (found == nullptr) return std::nullopt;
  const TxnRecord& rec = *found;
  CommitTxnStatus status;
  status.state = rec.state;
  status.is_coordinator = rec.is_coordinator;
  status.decided = rec.decided;
  status.decision = rec.decision;
  status.blocked = rec.blocked;
  status.done = false;
  status.in_termination = rec.in_termination;
  return status;
}

std::vector<TxnId> CommitEngine::BlockedTxns() const {
  std::vector<TxnId> blocked;
  for (const auto& slot : index_) {
    if (pool_[slot.value].blocked) blocked.push_back(slot.key);
  }
  return blocked;
}

std::vector<std::pair<TxnId, bool>> CommitEngine::UnresolvedTxns() const {
  std::vector<std::pair<TxnId, bool>> out;
  for (const auto& slot : index_) {
    const TxnRecord& rec = pool_[slot.value];
    if (!rec.decided) out.emplace_back(slot.key, rec.blocked);
  }
  return out;
}

}  // namespace ecdb
