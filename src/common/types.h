#ifndef ECDB_COMMON_TYPES_H_
#define ECDB_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace ecdb {

/// Identifier of a server node in the cluster. Node ids are dense and start
/// at zero; the simulator and the threaded runtime both index nodes by id.
using NodeId = uint32_t;

/// Identifier of a data partition. The platform is shared-nothing: every
/// partition is owned by exactly one server node.
using PartitionId = uint32_t;

/// Globally unique transaction identifier. The coordinator node id is
/// embedded in the upper bits so ids never collide across coordinators.
using TxnId = uint64_t;

/// Primary key of a row within a table. Keys are 64-bit; workloads that use
/// composite keys (e.g. TPC-C) encode them into 64 bits.
using Key = uint64_t;

/// Simulated or wall-clock time in microseconds since the epoch of the run.
using Micros = uint64_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr TxnId kInvalidTxn = std::numeric_limits<TxnId>::max();

/// Builds a transaction id from the coordinating node and a local sequence
/// number. The coordinator occupies the top 16 bits.
constexpr TxnId MakeTxnId(NodeId coordinator, uint64_t seq) {
  return (static_cast<TxnId>(coordinator) << 48) | (seq & 0xFFFFFFFFFFFFULL);
}

/// Extracts the coordinating node from a transaction id.
constexpr NodeId TxnCoordinator(TxnId txn) {
  return static_cast<NodeId>(txn >> 48);
}

/// Extracts the coordinator-local sequence number from a transaction id.
constexpr uint64_t TxnSequence(TxnId txn) { return txn & 0xFFFFFFFFFFFFULL; }

/// Global decision reached by an atomic commitment protocol.
enum class Decision : uint8_t {
  kCommit,
  kAbort,
};

/// Returns "commit" or "abort".
std::string ToString(Decision decision);

/// Atomic commitment protocol selector. `kEasyCommitNoForward` is the
/// ablation variant with decision forwarding (message redundancy) disabled;
/// it exists to quantify the contribution of the paper's insight (ii).
/// `kTwoPhasePresumedAbort` / `kTwoPhasePresumedCommit` are the classic
/// 2PC log/ack optimizations (extensions beyond the paper): a missing log
/// record is presumed to mean abort (PA) or commit (PC), which removes the
/// abort-side (PA) or commit-side (PC) acknowledgments and log writes.
/// `kThreePhaseE3PC` / `kPaxosCommit` are the quorum-hardened variants:
/// E3PC replaces 3PC's termination protocol with an epoch-carrying quorum
/// rule (Keidar & Dolev), and Paxos Commit runs every participant's vote
/// as a Paxos instance over an acceptor set co-located on the participants
/// (Gray & Lamport), with 2PC as the F=0 degenerate case.
enum class CommitProtocol : uint8_t {
  kTwoPhase,
  kThreePhase,
  kEasyCommit,
  kEasyCommitNoForward,
  kTwoPhasePresumedAbort,
  kTwoPhasePresumedCommit,
  kThreePhaseE3PC,
  kPaxosCommit,
};

/// Returns a short human-readable protocol name ("2PC", "3PC", "EC", ...).
std::string ToString(CommitProtocol protocol);

/// The protocol named `name`, case-insensitively: any ToString name or
/// one of the aliases "easycommit", "ecnf", "ecnoforward", "paxos-commit"
/// and "paxoscommit". Empty for an unknown name.
std::optional<CommitProtocol> ParseProtocol(std::string_view name);

}  // namespace ecdb

#endif  // ECDB_COMMON_TYPES_H_
