#ifndef ECDB_NET_MESSAGE_H_
#define ECDB_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cow_vector.h"
#include "common/operation.h"
#include "common/types.h"

namespace ecdb {

/// Wire-level message kinds exchanged between nodes. The first group is the
/// commit-protocol vocabulary shared by 2PC, 3PC and EasyCommit; the second
/// group implements the termination protocol (leader election + state
/// query); the last group carries transaction execution between partitions.
enum class MsgType : uint8_t {
  // --- Atomic commitment ---
  kPrepare,       // coordinator -> cohorts: start voting
  kVoteCommit,    // cohort -> coordinator
  kVoteAbort,     // cohort -> coordinator
  kPreCommit,     // 3PC only: coordinator -> cohorts (Prepare-to-Commit)
  kPreCommitAck,  // 3PC only: cohort -> coordinator
  kGlobalCommit,  // global decision; in EC also forwarded cohort->everyone
  kGlobalAbort,   // global decision; in EC also forwarded cohort->everyone
  kAck,           // 2PC/3PC: cohort acknowledges global decision

  // --- Termination protocol (run by active nodes after a timeout) ---
  kTermElect,         // announce election for a transaction's leadership
  kTermStateRequest,  // leader -> active participants: report your state
  kTermStateReply,    // participant -> leader: state + known decision

  // --- Transaction execution ---
  kRemoteExec,      // coordinator -> remote partition: run these operations
  kRemoteExecOk,    // remote partition -> coordinator: fragment succeeded
  kRemoteExecFail,  // remote partition -> coordinator: conflict, must abort
  kRemoteRollback,  // coordinator -> remote partition: undo fragment

  // --- E3PC quorum termination (epoch-carrying election; quorum gates
  // --- every decision, so two sides of a partition can never diverge) ---
  kQuorumElect,       // initiator -> participants: new election epoch
  kQuorumStateReply,  // participant -> initiator: <last_elected,last_attempt>
  kQuorumPropose,     // leader -> participants: pre-decision for this epoch
  kQuorumAck,         // participant -> leader: accepted the epoch's attempt

  // --- Paxos Commit (one ballot-0 Paxos instance per participant vote;
  // --- acceptors co-located on the participants) ---
  kPaxosVote,      // RM -> acceptors: ballot-0 value of the RM's instance
  kPaxosPrepare,   // proposer -> acceptors: phase-1a for ballot b
  kPaxosPromise,   // acceptor -> proposer: phase-1b (accepted list / nack)
  kPaxosPropose,   // proposer -> acceptors: phase-2a values for every RM
  kPaxosAccepted,  // acceptor -> proposer/leader: phase-2b accept

  /// Sentinel: number of wire message types. Keep last. Sizing per-type
  /// counter arrays off this (never off the last named enumerator) means a
  /// new message type can't silently alias another type's counter slot.
  kMsgTypeCount,
};

/// Returns a short name like "Prepare" or "GlobalCommit".
std::string ToString(MsgType type);

/// Commit-protocol state of a cohort as reported to a termination-protocol
/// leader. Mirrors the paper's state diagrams (Figures 1, 2, 4 and the
/// expanded Figure 6 with the hidden TRANSMIT states).
enum class CohortState : uint8_t {
  kInitial,    // has not voted yet
  kReady,      // voted commit, awaiting decision
  kWait,       // coordinator only: collecting votes
  kPreCommit,  // 3PC only: received Prepare-to-Commit
  kTransmitA,  // EC hidden state: decision=abort known, still forwarding
  kTransmitC,  // EC hidden state: decision=commit known, still forwarding
  kAborted,    // terminal
  kCommitted,  // terminal
  kPreAbort,   // E3PC only: accepted an abort-valued termination attempt
};

/// Returns a short name like "READY" or "TRANSMIT-C".
std::string ToString(CohortState state);

/// A message between two nodes. One flat struct serves every message kind;
/// unused fields stay at their defaults. (The real system serializes over
/// TCP; here the struct *is* the wire format, and `ApproximateBytes` models
/// its serialized size for network accounting.)
struct Message {
  MsgType type = MsgType::kPrepare;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  TxnId txn = kInvalidTxn;

  /// All transaction participants (coordinator first). The paper extends
  /// the Global-* messages with exactly this field so EC cohorts know whom
  /// to forward the decision to (Section 5.3); we also piggyback it on
  /// Prepare so cohorts can run the termination protocol.
  ///
  /// A CowVector: a list of up to two ids rides inside the message and is
  /// copied by value; a longer one is one shared buffer, so broadcasting a
  /// decision to n cohorts (and EC's n^2 cohort re-broadcast) performs one
  /// allocation total, not one deep copy per recipient.
  CowVector<NodeId> participants;

  /// True when a Global-* message is a cohort-side forward (EC second
  /// phase) rather than the coordinator's original transmission.
  bool forwarded = false;

  /// Termination protocol payload: reporting node's state and, if it knows
  /// one, the global decision.
  CohortState term_state = CohortState::kInitial;
  bool has_decision = false;
  Decision decision = Decision::kAbort;

  /// Execution payload for kRemoteExec: always one shared buffer
  /// (an Operation is too wide for the inline slots).
  CowVector<Operation> ops;

  /// kRemoteExec: whether the whole transaction performs writes anywhere
  /// (write-free multi-partition transactions skip the commit protocol, so
  /// the fragment must not wait for a Prepare).
  bool txn_has_writes = false;

  /// Quorum-protocol payload (E3PC + Paxos Commit). For the E3PC messages
  /// `quorum_epoch` is the election epoch and `quorum_attempt` the
  /// reporting node's last accepted attempt; for the Paxos messages
  /// `quorum_epoch` is the ballot number and `quorum_instance` names the
  /// per-RM instance (kPaxosVote / ballot-0 kPaxosAccepted). An acceptor
  /// that already promised a higher ballot answers with `quorum_nack` so
  /// the proposer can jump past it. Accepted-value lists (kPaxosPromise /
  /// kPaxosPropose) ride in `participants` as packed (instance, ballot,
  /// value) triples — see commit/quorum.h.
  ///
  /// This struct is copied once per recipient on every broadcast (EC's
  /// decision flood is O(n²) copies), so the quorum fields are packed
  /// into existing padding holes. The static_assert below is the tripwire
  /// for letting sizeof(Message) creep.
  bool quorum_nack = false;
  NodeId quorum_instance = kInvalidNode;
  uint64_t quorum_attempt = 0;
  uint64_t quorum_epoch = 0;

  /// Per-sender trace sequence number, stamped by hosts when tracing is
  /// enabled so a receive event can name the exact send it pairs with.
  /// Observability-only: excluded from ApproximateBytes (a real system
  /// would ship it in a debug header, not the protocol payload).
  uint64_t trace_seq = 0;

  /// Estimated serialized size in bytes, used by the network model.
  size_t ApproximateBytes() const;
};

/// Tripwire for the quorum-field repack: Message is copied once per
/// recipient on every broadcast (EC's decision flood is O(n²) copies), so
/// its size is a first-order throughput input. This fails the build if a
/// new field regrows the struct instead of reusing a padding hole. 64-bit
/// platforms only — pointer width drives the CowVector fields.
static_assert(sizeof(void*) != 8 || sizeof(Message) == 96,
              "Message grew past 96 bytes; pack new fields into existing "
              "padding holes (see the quorum payload comment)");

}  // namespace ecdb

#endif  // ECDB_NET_MESSAGE_H_
