#ifndef ECDB_COMMIT_COMMIT_ENV_H_
#define ECDB_COMMIT_COMMIT_ENV_H_

#include "common/types.h"
#include "net/message.h"
#include "wal/log_record.h"

namespace ecdb {

/// Phases of a committed transaction's commit-protocol lifetime, measured
/// at the coordinator/participant that owns the sample:
///  * kVoteCollection  — coordinator: StartCommit until the last vote is in
///  * kDecisionTransmit — participant: entering READY until the global
///    decision arrives (the transmit leg of "first transmit then commit")
///  * kDecisionApply   — any node: decision applied locally until cleanup
enum class CommitPhase : uint8_t {
  kVoteCollection,
  kDecisionTransmit,
  kDecisionApply,
};

inline constexpr size_t kNumCommitPhases = 3;

/// Protocol events the engine reports, each once, as it happens; it keeps
/// no counters of its own. Hosts count each into its NodeStats or
/// ClusterStats field (kTerminationRound into termination_rounds, and so
/// on), which documents it.
enum class ProtocolEvent : uint8_t {
  kTerminationRound,     // termination round / election / ballot started
  kAcceptorRound,        // Paxos Commit: an accept quorum it led decided
  kBallotPromoted,       // Paxos Commit: a ballot minted above 0
  kQuorumLost,           // an election or prepare phase found no quorum
  kDuplicateDecision,    // Global-* receipt for an already decided txn
  kConflictingDecision,  // a decision contradicting the applied one
};

inline constexpr size_t kNumProtocolEvents = 6;

/// Host interface for the commit-protocol engine. The protocol state
/// machines are sans-I/O: every externally visible effect (sending a
/// message, writing the log, arming a timeout, applying a decision) goes
/// through this interface, so the same machines run unchanged inside the
/// discrete-event simulator, the threaded runtime, and unit tests that
/// script message deliveries by hand.
class CommitEnv {
 public:
  virtual ~CommitEnv() = default;

  /// This node's id.
  virtual NodeId self() const = 0;

  /// Transmits `msg` (src is already stamped with self()).
  virtual void Send(Message msg) = 0;

  /// Appends a commit-protocol milestone to this node's WAL. Called
  /// *before* the action it describes takes effect (write-ahead rule).
  virtual void Log(TxnId txn, LogRecordType type) = 0;

  /// Appends a record carrying an explicit payload in its `participants`
  /// field (the quorum protocols pack epochs/ballots/accepted values into
  /// it — see commit/quorum.h). Hosts that recover from their WAL must
  /// store the payload verbatim; the default forwards to Log(), which is
  /// only acceptable for hosts that never replay (payload-free logging
  /// breaks quorum-state recovery).
  virtual void LogPayload(TxnId txn, LogRecordType type,
                          const CowVector<NodeId>& payload) {
    (void)payload;
    Log(txn, type);
  }

  /// Arms (or re-arms) the single protocol timer for `txn`; after
  /// `delay_us` of simulated/real time the host must call
  /// CommitEngine::OnTimeout(txn) unless the timer was re-armed/cancelled.
  virtual void ArmTimer(TxnId txn, Micros delay_us) = 0;

  /// Cancels the pending timer for `txn`, if any.
  virtual void CancelTimer(TxnId txn) = 0;

  /// Participant-side local vote: whether this node's fragment of `txn`
  /// can commit. Without failures every transaction reaching the prepare
  /// phase votes commit (paper footnote 5); fault-injection tests override
  /// this to exercise abort paths.
  virtual Decision VoteFor(TxnId txn) = 0;

  /// Applies the global decision to local state: on commit, release locks
  /// and make writes durable; on abort, roll back the fragment. Called
  /// exactly once per transaction per node.
  virtual void ApplyDecision(TxnId txn, Decision decision) = 0;

  /// The commit protocol cannot make progress for `txn` (2PC cooperative
  /// termination found all active cohorts in READY with the coordinator
  /// failed). The node keeps its locks — this is the blocking behaviour
  /// EasyCommit eliminates.
  virtual void OnBlocked(TxnId txn) = 0;

  /// All protocol activity for `txn` has finished on this node (for EC:
  /// the forwarded decision was received from every other participant, per
  /// Section 5.3); transaction resources may be released.
  virtual void OnCleanup(TxnId txn) = 0;

  /// Current time on this node's clock, in microseconds. Used only for
  /// observability (trace timestamps and phase-latency samples), never for
  /// protocol decisions, so the default is fine for hosts that don't track
  /// time (hand-scripted unit tests).
  virtual Micros NowUs() const { return 0; }

  /// Observability hook: `txn` spent `elapsed_us` in `phase` on this node.
  /// Emitted only for commit-bound transactions; hosts aggregate the
  /// samples into per-phase latency histograms.
  virtual void OnPhaseSample(TxnId txn, CommitPhase phase, Micros elapsed_us) {
    (void)txn;
    (void)phase;
    (void)elapsed_us;
  }

  /// Observability hook: one protocol `event` happened on this node.
  virtual void OnProtocolEvent(ProtocolEvent event) { (void)event; }
};

}  // namespace ecdb

#endif  // ECDB_COMMIT_COMMIT_ENV_H_
