#include "commit/invariants.h"

#include <algorithm>
#include <optional>

namespace ecdb {

StateClass ClassOf(CohortState state) {
  switch (state) {
    case CohortState::kInitial:
    case CohortState::kReady:
    case CohortState::kWait:
    case CohortState::kPreCommit:
    case CohortState::kPreAbort:  // E3PC attempt value; not yet decided
      return StateClass::kUndecided;
    case CohortState::kTransmitA:
      return StateClass::kTransmitA;
    case CohortState::kTransmitC:
      return StateClass::kTransmitC;
    case CohortState::kAborted:
      return StateClass::kAbort;
    case CohortState::kCommitted:
      return StateClass::kCommit;
  }
  return StateClass::kUndecided;
}

bool CanCoexist(StateClass a, StateClass b) {
  // Figure 7, symmetric. Row/column order:
  // UNDECIDED, TRANSMIT-A, TRANSMIT-C, ABORT, COMMIT.
  static constexpr bool kTable[5][5] = {
      //            UND    T-A    T-C    ABORT  COMMIT
      /* UND    */ {true,  true,  true,  false, false},
      /* T-A    */ {true,  true,  false, true,  false},
      /* T-C    */ {true,  false, true,  false, true},
      /* ABORT  */ {false, true,  false, true,  false},
      /* COMMIT */ {false, false, true,  false, true},
  };
  return kTable[static_cast<int>(a)][static_cast<int>(b)];
}

void SafetyMonitor::RecordApplied(TxnId txn, NodeId node, Decision decision) {
  Stripe& stripe = StripeFor(txn);
  std::lock_guard<std::mutex> lock(stripe.mu);
  PerTxn& per = stripe.txns[txn];
  bool found = false;
  for (Applier& applier : per.applied) {
    if (applier.node == node) {
      applier.decision = decision;
      found = true;
    } else if (applier.decision != decision) {
      per.conflict = true;
    }
  }
  if (!found) per.applied.push_back(Applier{node, decision});
}

void SafetyMonitor::RecordBlocked(TxnId txn, NodeId node) {
  (void)node;
  Stripe& stripe = StripeFor(txn);
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.blocked_reports++;
  stripe.blocked[txn]++;
}

std::vector<TxnId> SafetyMonitor::Violations() const {
  std::vector<TxnId> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& slot : stripe.txns) {
      if (slot.value.conflict) out.push_back(slot.key);
    }
  }
  return out;
}

uint64_t SafetyMonitor::blocked_reports() const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.blocked_reports;
  }
  return total;
}

size_t SafetyMonitor::BlockedTxnCount() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.blocked.size();
  }
  return total;
}

std::optional<Decision> SafetyMonitor::DecisionOf(TxnId txn,
                                                  NodeId node) const {
  const Stripe& stripe = StripeFor(txn);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const PerTxn* per = stripe.txns.Find(txn);
  if (per == nullptr) return std::nullopt;
  for (const Applier& applier : per->applied) {
    if (applier.node == node) return applier.decision;
  }
  return std::nullopt;
}

std::vector<std::pair<NodeId, Decision>> SafetyMonitor::AppliedFor(
    TxnId txn) const {
  const Stripe& stripe = StripeFor(txn);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const PerTxn* per = stripe.txns.Find(txn);
  std::vector<std::pair<NodeId, Decision>> out;
  if (per == nullptr) return out;
  for (const Applier& applier : per->applied) {
    out.emplace_back(applier.node, applier.decision);
  }
  return out;
}

}  // namespace ecdb
