#ifndef ECDB_COMMIT_COMMIT_ENGINE_H_
#define ECDB_COMMIT_COMMIT_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <algorithm>

#include "commit/commit_env.h"
#include "commit/quorum.h"
#include "common/cow_vector.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "net/message.h"
#include "trace/trace_recorder.h"

namespace ecdb {

/// Set of NodeIds stored as a flat unsorted vector. Cohorts are tens of
/// nodes at most, where a linear scan over contiguous ids beats hashing —
/// and, unlike unordered_set, membership changes never allocate once the
/// vector has grown. Used for the per-transaction bookkeeping sets that
/// the commit engine updates on every vote/ack/decision receipt.
class FlatNodeSet {
 public:
  /// Inserts `n` if absent. Returns true when the set changed.
  bool insert(NodeId n) {
    if (contains(n)) return false;
    ids_.push_back(n);
    return true;
  }

  /// Removes `n` if present (order is not preserved). Returns the number
  /// of elements removed (0 or 1), mirroring std::unordered_set::erase.
  size_t erase(NodeId n) {
    auto it = std::find(ids_.begin(), ids_.end(), n);
    if (it == ids_.end()) return 0;
    *it = ids_.back();
    ids_.pop_back();
    return 1;
  }

  bool contains(NodeId n) const {
    return std::find(ids_.begin(), ids_.end(), n) != ids_.end();
  }
  size_t count(NodeId n) const { return contains(n) ? 1 : 0; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  void clear() { ids_.clear(); }

  std::vector<NodeId>::const_iterator begin() const { return ids_.begin(); }
  std::vector<NodeId>::const_iterator end() const { return ids_.end(); }

 private:
  std::vector<NodeId> ids_;
};

/// Per-transaction state of the quorum protocols (E3PC quorum termination
/// and Paxos Commit), hung off a TxnRecord only when a failure path needs
/// it: E3PC's happy path derives its implicit first attempt from the
/// PRE-COMMIT state, and Paxos Commit's acceptor duties live in a side map
/// — so non-coordinator fault-free transactions never allocate this.
struct QuorumTxnState {
  // --- E3PC epochs (durable via kQuorumState records) ---
  QuorumEpoch last_elected = 0;    // highest election epoch joined
  QuorumEpoch last_attempt = 0;    // highest attempt (propose) accepted
  bool attempt_pre_abort = false;  // the accepted attempt carried abort

  // E3PC initiator-side election bookkeeping (volatile).
  struct ElectReply {
    NodeId node = kInvalidNode;
    QuorumEpoch last_attempt = 0;
    bool pre_abort = false;
    bool decided = false;  // reply carried a decision outright
  };
  QuorumEpoch elect_epoch = 0;  // election this node is driving (0 = none)
  std::vector<ElectReply> replies;
  bool attempt_proposed = false;
  Decision attempt_value = Decision::kAbort;
  FlatNodeSet attempt_acks;

  // --- Paxos Commit proposer/leader side (volatile) ---
  // Ballot-0 leader tally: one slot per participant instance.
  struct InstanceTally {
    NodeId instance = kInvalidNode;
    FlatNodeSet accepted_from;
    Decision value = Decision::kCommit;
    bool done = false;  // reached an acceptor quorum
  };
  std::vector<InstanceTally> tallies;
  QuorumEpoch ballot = 0;  // promoted ballot this node drives (0 = none)
  FlatNodeSet promises;
  std::vector<PaxosAccepted> merged;  // highest-ballot accepts from promises
  bool ballot_proposed = false;
  FlatNodeSet ballot_accepts;
  std::vector<PaxosAccepted> proposal;  // values proposed at `ballot`

  // Highest foreign epoch/ballot observed (elections joined, nacks); the
  // next minted epoch's round must clear it.
  QuorumEpoch max_seen = 0;
};

/// Timeouts governing the commit protocols. All values in microseconds of
/// (simulated or real) time. Timeouts must exceed the maximum round-trip
/// message delay — the synchrony assumption under which the paper proves EC
/// safe (Section 4 shows no commit protocol is safe under unbounded delay).
/// Every engine keeps a decision ledger (capped at kDecisionLedgerCap) so
/// late termination queries can be answered after cleanup;
/// `term_fruitless_retries` is the one opt-in termination knob.
struct CommitEngineConfig {
  /// How long a node waits for the message that drives its next state
  /// transition (votes at the coordinator, Prepare/decision at cohorts).
  Micros timeout_us = 10'000;

  /// How long a termination-protocol initiator collects state replies
  /// before evaluating leadership.
  Micros termination_window_us = 5'000;

  /// Opt-in (0 = the paper's rule, proven for fail-stop): an EC/3PC
  /// termination leader that is missing state replies from one or more
  /// queried peers re-runs the election up to this many rounds before
  /// falling back to the unilateral decision rules. Under message loss —
  /// the regime where Section 4 shows *no* commit protocol is safe — a
  /// silent peer may have applied a decision the leader never saw, and
  /// "nobody I heard from knows it" no longer justifies the irreversible
  /// unilateral abort. Retrying shrinks that window from one lossy round
  /// to N consecutive lossy rounds. Chaos campaigns and the loss-soak
  /// tests enable it; benchmarks and the fail-stop sweeps keep 0. Has no
  /// effect on the 2PC family, whose fallback already blocks instead of
  /// guessing.
  uint32_t term_fruitless_retries = 0;
};

/// Per-transaction, per-node view of the commit protocol, exposed for
/// tests and the invariant monitor.
struct CommitTxnStatus {
  CohortState state = CohortState::kInitial;
  bool is_coordinator = false;
  bool decided = false;
  Decision decision = Decision::kAbort;
  bool blocked = false;
  bool done = false;  // cleanup delivered to host
  bool in_termination = false;
};

/// Atomic-commitment engine for one node. Implements the coordinator and
/// participant state machines of 2PC, 3PC and EasyCommit (plus the
/// forwarding-disabled EC ablation), and the cooperative termination
/// protocol each of them falls back to on timeouts.
///
/// Host contract:
///  * Coordinator side: call StartCommit() once the transaction's fragments
///    have all executed successfully.
///  * Participant side: call ExpectPrepare() when a remote fragment
///    executes, so the node can time out if the Prepare never arrives
///    (termination case B).
///  * Route every commit-protocol message (kPrepare .. kTermStateReply) to
///    OnMessage(), and deliver timer expirations to OnTimeout().
///
/// The engine is deliberately single-threaded; each runtime serializes
/// calls per node.
class CommitEngine {
 public:
  CommitEngine(CommitProtocol protocol, CommitEnv* env,
               CommitEngineConfig config = {});

  CommitEngine(const CommitEngine&) = delete;
  CommitEngine& operator=(const CommitEngine&) = delete;

  CommitProtocol protocol() const { return protocol_; }

  /// Coordinator entry point. `participants` lists every node touching the
  /// transaction with the coordinator (this node) first. `own_vote` is the
  /// local fragment's vote. A CowVector copies a two-id list by value and
  /// shares a longer one's buffer; plain std::vector arguments convert (one
  /// copy) at the call site.
  void StartCommit(TxnId txn, CowVector<NodeId> participants,
                   Decision own_vote);

  /// Participant entry point: a fragment of `txn` executed here; the
  /// coordinator will (normally) send Prepare. `participants` is the full
  /// participant list (coordinator first), piggybacked on the fragment.
  void ExpectPrepare(TxnId txn, NodeId coordinator,
                     CowVector<NodeId> participants);

  /// Delivers a commit-protocol or termination-protocol message.
  void OnMessage(const Message& msg);

  /// Drops all engine state for `txn` without callbacks. The host calls
  /// this when an attempt is aborted *before* the commit protocol started
  /// (execution-phase rollback), so a stale ExpectPrepare record does not
  /// later trigger spurious termination rounds.
  void Forget(TxnId txn);

  /// Re-registers a transaction after this node recovered from a crash in
  /// the consult-peers case (last WAL entry `ready`/`pre-commit`). The
  /// armed timer fires the termination protocol, which consults the listed
  /// participants for the outcome.
  void ResumeAfterRecovery(TxnId txn, NodeId coordinator,
                           CowVector<NodeId> participants,
                           CohortState state);

  /// Delivers the expiration of the timer armed via CommitEnv::ArmTimer.
  void OnTimeout(TxnId txn);

  /// Status of `txn` on this node, if the engine still tracks it.
  std::optional<CommitTxnStatus> StatusOf(TxnId txn) const;

  /// Transactions still tracked without an applied decision, paired with
  /// their blocked flag. After a run has drained, a non-blocked entry here
  /// is a liveness violation (the consistency audit's check c); blocked
  /// entries are 2PC cohorts that gave up, reported separately.
  std::vector<std::pair<TxnId, bool>> UnresolvedTxns() const;

  /// Seeds the decision ledger directly. Recovery calls this for every
  /// decision found in the WAL: the pre-crash engine (and its ledger) is
  /// gone, but peers running the termination protocol must still get an
  /// answer from this node for transactions it decided before crashing.
  void SeedDecision(TxnId txn, Decision decision) {
    LedgerRecord(txn, decision);
  }

  /// Upper bound on decision-ledger entries. The ledger exists to answer
  /// peers whose termination timers are still running, i.e. queries land
  /// within a protocol-timeout window of the decision — a bounded FIFO
  /// loses nothing as long as the cap outlives that window at peak
  /// decision rate (this one gives >10x headroom at the throughput
  /// benchmarks' rates). Left unbounded, a long throughput run grows the
  /// map without limit and every insert walks colder and colder memory,
  /// which measurably dominates the threaded-runtime profile.
  static constexpr size_t kDecisionLedgerCap = 65'536;

  /// Recovery seeding for E3PC: restores the durable epoch pair from the
  /// last kQuorumState record. Call after ResumeAfterRecovery registered
  /// the transaction; a node that forgot its promise (last_elected) or its
  /// accepted attempt could let two concurrent leaders both reach quorum.
  void SeedQuorumState(TxnId txn, QuorumEpoch last_elected,
                       QuorumEpoch last_attempt, bool attempt_pre_abort);

  /// Recovery seeding for Paxos Commit: restores this node's acceptor
  /// state from the last kPaxosState record. Standalone — works with or
  /// without a resumed TxnRecord (acceptor-only participation has none).
  void SeedPaxosAcceptor(TxnId txn, QuorumEpoch promised,
                         std::vector<PaxosAccepted> accepted);

  /// Number of transactions still tracked (not yet cleaned up).
  size_t ActiveCount() const { return index_.size(); }

  /// Attaches the host's trace recorder. The engine records protocol-level
  /// events (state transitions, decision transmit/apply, termination
  /// rounds) into it; message/timer/WAL events are recorded by the host at
  /// its CommitEnv implementation, where the I/O actually happens. Pass
  /// nullptr to detach. Must be re-called if the host recreates the engine
  /// (e.g. after a simulated crash).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  struct TxnRecord {
    bool is_coordinator = false;
    NodeId coordinator = kInvalidNode;
    // Coordinator first; empty until known. Stamping the list onto every
    // outgoing Prepare/Global-* message copies it by value (two ids) or
    // shares one buffer with the record, never deep-copying a long list
    // per recipient.
    CowVector<NodeId> participants;
    CohortState state = CohortState::kInitial;
    Decision own_vote = Decision::kCommit;

    // Coordinator bookkeeping.
    FlatNodeSet votes_pending;
    FlatNodeSet commit_voters;
    FlatNodeSet precommit_acks_pending;  // 3PC
    FlatNodeSet acks_pending;            // 2PC/3PC
    bool any_vote_abort = false;

    // Decision state.
    bool decided = false;
    Decision decision = Decision::kAbort;
    bool applied = false;
    bool blocked = false;
    // The post-decision give-up timer has been armed; MaybeCleanup arms it
    // once per record instead of on every duplicate Global-* receipt.
    bool cleanup_armed = false;

    // EC cleanup tracking: participants from whom a Global-* message
    // (original or forwarded) has been received.
    FlatNodeSet seen_decision_from;

    // Termination protocol.
    bool recovered = false;  // resumed via ResumeAfterRecovery (Section 4.2)
    bool in_termination = false;
    uint32_t term_attempts = 0;
    // One reply per peer, deduplicated by sender on insert. A flat vector:
    // termination queries a handful of peers, replies arrive in network
    // order (deterministic), and the buffer's capacity survives pooling.
    std::vector<std::pair<NodeId, Message>> term_replies;

    // Quorum-protocol state (E3PC / Paxos Commit); null for the others and
    // on their fault-free fast paths. See QuorumTxnState.
    std::unique_ptr<QuorumTxnState> quorum;

    // Phase-latency anchors (observability only; per-node clock).
    Micros start_us = 0;    // coordinator: StartCommit
    Micros ready_us = 0;    // participant: entered READY
    Micros applied_us = 0;  // decision applied locally

    /// Returns the record to its default-constructed state while keeping
    /// every container's capacity, so a pooled record re-fills without
    /// allocating. Called when the record is released to the free list —
    /// not on reuse — so shared message payloads are dropped promptly.
    void Reset() {
      is_coordinator = false;
      coordinator = kInvalidNode;
      participants.clear();
      state = CohortState::kInitial;
      own_vote = Decision::kCommit;
      votes_pending.clear();
      commit_voters.clear();
      precommit_acks_pending.clear();
      acks_pending.clear();
      any_vote_abort = false;
      decided = false;
      decision = Decision::kAbort;
      applied = false;
      blocked = false;
      cleanup_armed = false;
      seen_decision_from.clear();
      recovered = false;
      in_termination = false;
      term_attempts = 0;
      term_replies.clear();
      quorum.reset();
      start_us = 0;
      ready_us = 0;
      applied_us = 0;
    }
  };

  /// After this many fruitless termination rounds a blocked 2PC cohort
  /// stops re-arming its timer (it stays blocked; under fail-stop the
  /// missing coordinator never returns).
  static constexpr uint32_t kMaxBlockedRetries = 5;

  TxnRecord* Find(TxnId txn);
  const TxnRecord* Find(TxnId txn) const;

  /// Looks up `txn`'s record, creating (from the pool's free list when
  /// possible) a fresh one if absent. References into the pool are stable
  /// across later insertions — the pool is a deque — matching the
  /// unordered_map semantics the protocol code was written against.
  TxnRecord& GetOrCreate(TxnId txn);

  /// Unlinks `txn`'s record and pushes it, Reset, onto the free list.
  void ReleaseRecord(TxnId txn);

  /// Records a protocol trace event if a recorder is attached and enabled
  /// (two predictable branches on the disabled path).
  void Trace(TraceEventType type, TxnId txn, uint64_t arg = 0,
             NodeId peer = kInvalidNode, uint8_t a = 0, uint8_t b = 0) {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Record(type, env_->NowUs(), txn, arg, peer, a, b);
    }
  }

  /// Transitions `rec` to `next`, tracing old -> new.
  void SetState(TxnId txn, TxnRecord& rec, CohortState next) {
    Trace(TraceEventType::kTxnState, txn, 0, kInvalidNode,
          static_cast<uint8_t>(next), static_cast<uint8_t>(rec.state));
    rec.state = next;
  }

  void SendTo(NodeId dst, TxnId txn, MsgType type, const TxnRecord& rec,
              bool forwarded = false);
  void BroadcastDecision(TxnId txn, TxnRecord& rec, bool forwarded);

  // --- Coordinator paths ---
  void CoordinatorAllVotesIn(TxnId txn, TxnRecord& rec);
  void CoordinatorDecide(TxnId txn, TxnRecord& rec, Decision decision);
  void OnVote(const Message& msg, TxnRecord& rec);
  void OnPreCommitAck(const Message& msg, TxnRecord& rec);
  void OnAck(const Message& msg, TxnRecord& rec);

  // --- Participant paths ---
  void OnPrepare(const Message& msg);
  void OnPreCommitMsg(const Message& msg, TxnRecord& rec);
  void OnGlobalDecision(const Message& msg, TxnRecord& rec);

  /// Applies a decision learned at a participant (or a termination
  /// leader): forwards it first under EC ("first transmit and then
  /// commit"), then applies and logs it.
  void AdoptDecision(TxnId txn, TxnRecord& rec, Decision decision,
                     bool from_termination);

  /// Marks decided+applied and checks whether cleanup can fire.
  void ApplyAndLog(TxnId txn, TxnRecord& rec, Decision decision);
  void MaybeCleanup(TxnId txn, TxnRecord& rec);
  void FinishCleanup(TxnId txn, TxnRecord& rec);

  /// Sole writer of the decision ledger: records (or overwrites) a
  /// decision and evicts the oldest entries FIFO once the ledger holds
  /// more than kDecisionLedgerCap.
  void LedgerRecord(TxnId txn, Decision decision);

  // --- Termination protocol ---
  void StartTermination(TxnId txn, TxnRecord& rec);
  void OnTermElect(const Message& msg);
  void OnTermStateReply(const Message& msg, TxnRecord& rec);
  void TerminationEvaluate(TxnId txn, TxnRecord& rec);
  void TerminationLead(TxnId txn, TxnRecord& rec);

  // --- E3PC quorum termination (quorum_term.cc) ---
  QuorumTxnState& EnsureQuorum(TxnRecord& rec);
  /// Retry delay for fruitless quorum rounds: termination window with
  /// capped exponential backoff, so a minority partition re-elects at a
  /// bounded, shrinking rate instead of flooding (and so simulated sweeps
  /// that run partitions to quiescence stay within their event budgets).
  Micros QuorumRetryDelay(const TxnRecord& rec) const;
  void StartQuorumTermination(TxnId txn, TxnRecord& rec);
  void OnQuorumElect(const Message& msg);
  void OnQuorumStateReply(const Message& msg, TxnRecord& rec);
  void QuorumProposeAttempt(TxnId txn, TxnRecord& rec);
  void OnQuorumPropose(const Message& msg);
  void OnQuorumAck(const Message& msg, TxnRecord& rec);
  void E3pcOnTimeout(TxnId txn, TxnRecord& rec);

  // --- Paxos Commit (paxos_commit.cc) ---
  /// Routes a message to its destination, looping self-addressed ones
  /// straight back through OnMessage (acceptors are co-located on the
  /// participants, so every broadcast includes this node). May release
  /// the current TxnRecord — callers must not hold a reference across it.
  void SendOrLoop(Message msg);
  void PaxosStartCommit(TxnId txn, TxnRecord& rec);
  void PaxosBroadcastVote(TxnId txn, TxnRecord& rec);
  void PaxosSendVote(TxnId txn, TxnRecord& rec);
  void PaxosPromote(TxnId txn, TxnRecord& rec);
  void OnPaxosVote(const Message& msg);
  void OnPaxosPrepare(const Message& msg);
  void OnPaxosPropose(const Message& msg);
  void OnPaxosPromise(const Message& msg, TxnRecord& rec);
  void OnPaxosAccepted(const Message& msg, TxnRecord& rec);
  void PaxosOnTimeout(TxnId txn, TxnRecord& rec);

  bool IsEasyCommit() const {
    return protocol_ == CommitProtocol::kEasyCommit ||
           protocol_ == CommitProtocol::kEasyCommitNoForward;
  }
  bool IsTwoPhaseFamily() const {
    return protocol_ == CommitProtocol::kTwoPhase ||
           protocol_ == CommitProtocol::kTwoPhasePresumedAbort ||
           protocol_ == CommitProtocol::kTwoPhasePresumedCommit;
  }
  /// 3PC and E3PC share the PRE-COMMIT round and ack discipline; E3PC
  /// replaces only the timeout/termination rules with quorum ones.
  bool IsThreePhaseFamily() const {
    return protocol_ == CommitProtocol::kThreePhase ||
           protocol_ == CommitProtocol::kThreePhaseE3PC;
  }
  /// Protocols whose failure handling is quorum-gated: they never call
  /// OnBlocked and never decide unilaterally on silence — a partition
  /// minority waits (retrying with backoff) instead.
  bool IsQuorumProtocol() const {
    return protocol_ == CommitProtocol::kThreePhaseE3PC ||
           protocol_ == CommitProtocol::kPaxosCommit;
  }
  /// Whether an acknowledgment round follows a `decision` broadcast:
  /// plain 2PC/3PC (and E3PC) ack everything, PA acks only commits
  /// (aborts are the presumption), PC acks only aborts, EC acks nothing.
  /// Paxos Commit acks nothing either — the decision is already durable
  /// at an acceptor quorum, so the broadcast is pure dissemination.
  bool AcksExpectedFor(Decision decision) const {
    switch (protocol_) {
      case CommitProtocol::kTwoPhase:
      case CommitProtocol::kThreePhase:
      case CommitProtocol::kThreePhaseE3PC:
        return true;
      case CommitProtocol::kTwoPhasePresumedAbort:
        return decision == Decision::kCommit;
      case CommitProtocol::kTwoPhasePresumedCommit:
        return decision == Decision::kAbort;
      case CommitProtocol::kEasyCommit:
      case CommitProtocol::kEasyCommitNoForward:
      case CommitProtocol::kPaxosCommit:
        return false;
    }
    return true;
  }
  bool ForwardingEnabled() const {
    return protocol_ == CommitProtocol::kEasyCommit;
  }

  CommitProtocol protocol_;
  CommitEnv* env_;
  CommitEngineConfig config_;
  TraceRecorder* trace_ = nullptr;

  // Record storage is pooled: `index_` maps txn -> slot in `pool_`, and
  // cleaned-up slots go onto `free_records_` for reuse with their
  // containers' capacity intact. In steady state (bounded concurrent
  // transactions) the per-transaction bookkeeping allocates nothing — the
  // unordered_map this replaces paid a node allocation per transaction
  // plus rehash churn, which showed up directly in the threaded runtime's
  // throughput profile. The deque keeps records at stable addresses, so
  // `TxnRecord&` references obtained before an unrelated insert stay valid
  // (the protocol code relies on that, as it did with unordered_map).
  FlatMap<TxnId, uint32_t> index_;
  std::deque<TxnRecord> pool_;
  std::vector<uint32_t> free_records_;

  FlatMap<TxnId, Decision> decision_ledger_;
  std::deque<TxnId> ledger_fifo_;  // insertion order, drives cap eviction

  // Paxos Commit acceptor duties, keyed by txn independently of the
  // TxnRecord lifecycle (an acceptor outlives its own resolved fragment).
  // Entries are erased when this node learns the decision; later queries
  // are answered from the decision ledger.
  FlatMap<TxnId, PaxosAcceptorState> paxos_acceptors_;
};

}  // namespace ecdb

#endif  // ECDB_COMMIT_COMMIT_ENGINE_H_
