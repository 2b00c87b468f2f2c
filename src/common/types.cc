#include "common/types.h"

#include <cctype>
#include <utility>

namespace ecdb {

std::string ToString(Decision decision) {
  return decision == Decision::kCommit ? "commit" : "abort";
}

std::string ToString(CommitProtocol protocol) {
  switch (protocol) {
    case CommitProtocol::kTwoPhase:
      return "2PC";
    case CommitProtocol::kThreePhase:
      return "3PC";
    case CommitProtocol::kEasyCommit:
      return "EC";
    case CommitProtocol::kEasyCommitNoForward:
      return "EC-noforward";
    case CommitProtocol::kTwoPhasePresumedAbort:
      return "2PC-PA";
    case CommitProtocol::kTwoPhasePresumedCommit:
      return "2PC-PC";
    case CommitProtocol::kThreePhaseE3PC:
      return "E3PC";
    case CommitProtocol::kPaxosCommit:
      return "Paxos";
  }
  return "unknown";
}

std::optional<CommitProtocol> ParseProtocol(std::string_view name) {
  static constexpr std::pair<std::string_view, CommitProtocol> kNames[] = {
      {"2pc", CommitProtocol::kTwoPhase},
      {"3pc", CommitProtocol::kThreePhase},
      {"ec", CommitProtocol::kEasyCommit},
      {"easycommit", CommitProtocol::kEasyCommit},
      {"ec-noforward", CommitProtocol::kEasyCommitNoForward},
      {"ecnf", CommitProtocol::kEasyCommitNoForward},
      {"ecnoforward", CommitProtocol::kEasyCommitNoForward},
      {"2pc-pa", CommitProtocol::kTwoPhasePresumedAbort},
      {"2pc-pc", CommitProtocol::kTwoPhasePresumedCommit},
      {"e3pc", CommitProtocol::kThreePhaseE3PC},
      {"paxos", CommitProtocol::kPaxosCommit},
      {"paxos-commit", CommitProtocol::kPaxosCommit},
      {"paxoscommit", CommitProtocol::kPaxosCommit},
  };
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (const auto& [known, protocol] : kNames) {
    if (lower == known) return protocol;
  }
  return std::nullopt;
}

}  // namespace ecdb
