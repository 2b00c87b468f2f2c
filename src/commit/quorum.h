#ifndef ECDB_COMMIT_QUORUM_H_
#define ECDB_COMMIT_QUORUM_H_

// Shared vocabulary of the quorum-hardened commit variants:
//
//  * E3PC quorum termination (Keidar & Dolev): elections carry a
//    <last_elected, last_attempt> epoch pair, and both the election and
//    the attempt it proposes need a quorum (majority of the *full*
//    participant list) — so two cohort majorities across a partition can
//    never adopt diverging decisions, closing 3PC's multi-cohort hole.
//  * Paxos Commit (Gray & Lamport): every participant's vote is one Paxos
//    instance over an acceptor set co-located on the participants; the
//    coordinator leads ballot 0, and any participant can take over by
//    promoting a higher ballot, proposing the "free value" Abort for
//    instances whose vote never reached a quorum.
//
// Epochs and ballots share one encoding, (round << 16) | node: any node
// can mint a value strictly above everything it has seen, and ties order
// deterministically by node id. Durability of promises/accepts rides in
// WAL snapshot records (kQuorumState / kPaxosState) whose payload is
// packed into the LogRecord's `participants` vector — the one variable-
// length channel the WAL codec already ships.

#include <cstdint>
#include <vector>

#include "common/cow_vector.h"
#include "common/types.h"
#include "net/message.h"

namespace ecdb {

/// Election epoch (E3PC) or ballot number (Paxos Commit).
using QuorumEpoch = uint64_t;

/// The implicit epoch of the coordinator-driven first attempt (3PC's
/// original PRE-COMMIT round / Paxos ballot 0 is "attempt" kInitialEpoch).
/// Every minted election epoch (round >= 1) compares above it.
inline constexpr QuorumEpoch kInitialAttemptEpoch = 1;

constexpr QuorumEpoch MakeQuorumEpoch(uint64_t round, NodeId node) {
  return (round << 16) | (node & 0xFFFFu);
}
constexpr uint64_t QuorumEpochRound(QuorumEpoch e) { return e >> 16; }
constexpr NodeId QuorumEpochNode(QuorumEpoch e) {
  return static_cast<NodeId>(e & 0xFFFFu);
}

/// Majority of the full participant list (crashed members included): the
/// intersection property this size guarantees is what makes concurrent
/// leaders/proposers unable to decide differently.
constexpr size_t QuorumSize(size_t participants) {
  return participants / 2 + 1;
}

/// One accepted value of an RM's Paxos instance, as stored by an acceptor.
struct PaxosAccepted {
  NodeId instance = kInvalidNode;  // the RM whose vote this instance holds
  QuorumEpoch ballot = 0;
  Decision value = Decision::kAbort;
};

/// Paxos-acceptor state for one transaction. Lives in a side map keyed by
/// txn, independent of the TxnRecord lifecycle: an RM whose own fragment
/// already resolved keeps serving acceptor duties until the global
/// decision is known. Reseeded from kPaxosState records on recovery —
/// acceptor amnesia (forgetting a promise or an accept) is exactly what
/// lets two ballots commit different values.
struct PaxosAcceptorState {
  QuorumEpoch promised = 0;
  std::vector<PaxosAccepted> accepted;

  PaxosAccepted* FindInstance(NodeId instance) {
    for (PaxosAccepted& a : accepted) {
      if (a.instance == instance) return &a;
    }
    return nullptr;
  }
};

// ---------------------------------------------------------------------------
// WAL payload codecs. Payloads are sequences of u32 in a CowVector<NodeId>
// (NodeId == uint32_t); 64-bit epochs split lo/hi. Unpackers return false
// on malformed input instead of asserting — a WAL written by a newer build
// must not crash recovery.
// ---------------------------------------------------------------------------

inline void PackU64(CowVector<NodeId>* out, uint64_t v) {
  out->push_back(static_cast<NodeId>(v & 0xFFFFFFFFu));
  out->push_back(static_cast<NodeId>(v >> 32));
}

inline bool UnpackU64(const CowVector<NodeId>& in, size_t* pos,
                      uint64_t* v) {
  if (*pos + 2 > in.size()) return false;
  *v = static_cast<uint64_t>(in[*pos]) |
       (static_cast<uint64_t>(in[*pos + 1]) << 32);
  *pos += 2;
  return true;
}

/// kQuorumState payload: [last_elected, last_attempt (u64 each), flags].
/// flags bit 0: the accepted attempt's value was abort (PRE-ABORT).
inline CowVector<NodeId> PackQuorumState(QuorumEpoch last_elected,
                                         QuorumEpoch last_attempt,
                                         bool attempt_pre_abort) {
  CowVector<NodeId> payload;
  PackU64(&payload, last_elected);
  PackU64(&payload, last_attempt);
  payload.push_back(attempt_pre_abort ? 1u : 0u);
  return payload;
}

inline bool UnpackQuorumState(const CowVector<NodeId>& payload,
                              QuorumEpoch* last_elected,
                              QuorumEpoch* last_attempt,
                              bool* attempt_pre_abort) {
  size_t pos = 0;
  if (!UnpackU64(payload, &pos, last_elected)) return false;
  if (!UnpackU64(payload, &pos, last_attempt)) return false;
  if (pos >= payload.size()) return false;
  *attempt_pre_abort = (payload[pos] & 1u) != 0;
  return true;
}

/// kPaxosState payload: [promised (u64), n, then per accepted value:
/// instance, ballot (u64), value]. Also the wire encoding of the accepted
/// list on kPaxosPromise and of the proposed values on kPaxosPropose
/// (where ballot repeats the message's ballot).
inline CowVector<NodeId> PackPaxosState(
    QuorumEpoch promised, const std::vector<PaxosAccepted>& accepted) {
  CowVector<NodeId> payload;
  PackU64(&payload, promised);
  payload.push_back(static_cast<NodeId>(accepted.size()));
  for (const PaxosAccepted& a : accepted) {
    payload.push_back(a.instance);
    PackU64(&payload, a.ballot);
    payload.push_back(a.value == Decision::kAbort ? 1u : 0u);
  }
  return payload;
}

inline bool UnpackPaxosState(const CowVector<NodeId>& payload,
                             QuorumEpoch* promised,
                             std::vector<PaxosAccepted>* accepted) {
  size_t pos = 0;
  if (!UnpackU64(payload, &pos, promised)) return false;
  if (pos >= payload.size()) return false;
  const size_t n = payload[pos++];
  accepted->clear();
  for (size_t i = 0; i < n; ++i) {
    PaxosAccepted a;
    if (pos >= payload.size()) return false;
    a.instance = payload[pos++];
    uint64_t ballot = 0;
    if (!UnpackU64(payload, &pos, &ballot)) return false;
    a.ballot = ballot;
    if (pos >= payload.size()) return false;
    a.value = (payload[pos++] & 1u) ? Decision::kAbort : Decision::kCommit;
    accepted->push_back(a);
  }
  return true;
}

}  // namespace ecdb

#endif  // ECDB_COMMIT_QUORUM_H_
