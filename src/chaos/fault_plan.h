#ifndef ECDB_CHAOS_FAULT_PLAN_H_
#define ECDB_CHAOS_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace ecdb {

/// One kind of injected fault. The vocabulary covers the failure models
/// the paper discusses: fail-stop crashes with WAL-replay restarts
/// (Section 4.2), link failures and partitions, and the message-loss /
/// message-delay regime of Section 4's impossibility discussion.
enum class FaultType : uint8_t {
  kCrash,          // node `a` fail-stops (volatile state lost, WAL kept)
  kRecover,        // node `a` restarts: WAL replay + independent recovery
  kLinkCut,        // bidirectional link a<->b drops every message
  kLinkHeal,       // restore a<->b
  kPartition,      // isolate `group` from the rest (all cross links cut)
  kPartitionHeal,  // restore every link cut by the last kPartition
  kLossBurst,      // global drop probability = `probability` for `duration_us`
  kDelaySpike,     // extra `delay_us` on a<->b for `duration_us`
  kSplit3,         // three-way partition: `group` / `group_b` / the rest
                   // (every cross-group link cut; healed by kPartitionHeal).
                   // The shape that exposes 3PC's termination hole: a
                   // coordinator alone in one cell deciding unilaterally
                   // while a READY majority elects and aborts in another.

  kFaultTypeCount,  // sentinel, keep last
};

/// Short stable name used in the JSON form, e.g. "crash", "loss_burst".
const char* ToString(FaultType type);

/// One timed fault. Fields beyond `at_us`/`type` are used per-type (see
/// FaultType comments); unused fields keep their defaults and are omitted
/// from the JSON form.
struct FaultEvent {
  Micros at_us = 0;
  FaultType type = FaultType::kCrash;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  Micros duration_us = 0;
  Micros delay_us = 0;
  double probability = 0.0;
  std::vector<NodeId> group{};
  std::vector<NodeId> group_b{};  // kSplit3 only: the second cell

  bool operator==(const FaultEvent& o) const {
    return at_us == o.at_us && type == o.type && a == o.a && b == o.b &&
           duration_us == o.duration_us && delay_us == o.delay_us &&
           probability == o.probability && group == o.group &&
           group_b == o.group_b;
  }
};

/// How adversarial a generated plan is. Default keeps a majority of nodes
/// up and loss rates low (the regime where EC/3PC must stay clean);
/// heavy adds partitions, overlapping crashes and double-digit loss — the
/// regime that separates EC from its no-forwarding ablation.
enum class ChaosIntensity : uint8_t { kLight, kDefault, kHeavy };

const char* ToString(ChaosIntensity intensity);

/// True and sets `*out` when `name` is "light"/"default"/"heavy".
bool ParseIntensity(const std::string& name, ChaosIntensity* out);

/// A deterministic, replayable fault timeline for one chaos run. All
/// event times lie in [0, horizon_us); the driver schedules them up front
/// so identical plans yield identical simulations.
struct FaultPlan {
  uint64_t seed = 0;        // also seeds the cluster for full replay
  uint32_t num_nodes = 0;
  Micros horizon_us = 0;
  ChaosIntensity intensity = ChaosIntensity::kDefault;
  std::vector<FaultEvent> events;  // sorted by at_us

  bool operator==(const FaultPlan& o) const {
    return seed == o.seed && num_nodes == o.num_nodes &&
           horizon_us == o.horizon_us && intensity == o.intensity &&
           events == o.events;
  }

  /// Canonical JSON form. Byte-deterministic: the same plan always
  /// serializes to the same string, and ParseFaultPlan(ToJson()) == *this.
  std::string ToJson() const;
};

/// Generates a random plan from `seed`. Guarantees: every event time is
/// below 0.8 * horizon (faults end well before the drain window); crashed
/// nodes get a matching kRecover; at most a minority of nodes is down at
/// once below kHeavy; node 0 is never crashed at kLight.
FaultPlan GenerateFaultPlan(uint64_t seed, uint32_t num_nodes,
                            Micros horizon_us, ChaosIntensity intensity);

/// Parses the JSON form produced by FaultPlan::ToJson (tolerates unknown
/// keys and arbitrary whitespace). Returns false and fills `*error` on
/// malformed input.
bool ParseFaultPlan(const std::string& json, FaultPlan* out,
                    std::string* error);

/// File convenience wrappers around ToJson/ParseFaultPlan.
bool WriteFaultPlanFile(const FaultPlan& plan, const std::string& path,
                        std::string* error);
bool ReadFaultPlanFile(const std::string& path, FaultPlan* out,
                       std::string* error);

}  // namespace ecdb

#endif  // ECDB_CHAOS_FAULT_PLAN_H_
