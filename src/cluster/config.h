#ifndef ECDB_CLUSTER_CONFIG_H_
#define ECDB_CLUSTER_CONFIG_H_

#include <cstdint>

#include "cc/lock_table.h"
#include "commit/commit_engine.h"
#include "common/types.h"
#include "net/network.h"
#include "obs/metrics_registry.h"
#include "workload/open_loop.h"

namespace ecdb {

/// CPU service-time model for the simulated server (microseconds). These
/// model where a Deneva/ExpoDB worker thread spends its time; the Figure 12
/// breakdown is the direct readout of these categories.
struct ServiceCosts {
  Micros useful_work_per_op_us = 4;  // stored-procedure compute per op
  Micros index_per_op_us = 2;        // index probe per op
  Micros txn_manager_us = 10;        // per-attempt transaction bookkeeping
  Micros commit_msg_us = 10;         // processing one commit-protocol message
  Micros remote_reply_us = 5;        // processing a remote-exec reply
  Micros abort_cleanup_us = 12;      // rolling back an aborted attempt
  Micros overhead_us = 10;           // txn-table fetch/cleanup on completion
};

/// Configuration every host's NodeCore reads, declared once. The defaults
/// are the simulator's; ThreadClusterConfig overrides its own.
struct NodeConfig {
  uint32_t num_nodes = 16;

  /// Open client connections per server node (closed loop: each client
  /// keeps exactly one transaction in flight). The paper applies a heavy
  /// open-connection load per server so the system runs saturated; the
  /// default here is chosen to saturate the simulated workers as well.
  uint32_t clients_per_node = 64;

  CommitProtocol protocol = CommitProtocol::kEasyCommit;
  CcPolicy cc_policy = CcPolicy::kNoWait;

  /// Protocol timeouts. The execution watchdog — abort an attempt whose
  /// remote fragments have not all answered — is derived from them:
  /// ExecWatchdogUs() below.
  CommitEngineConfig commit;

  /// Aborted transactions restart after a randomized exponential backoff:
  /// U[0,1) * base * 2^min(attempts, max_shift).
  Micros backoff_base_us = 500;
  uint32_t backoff_max_shift = 6;

  /// Ablation knob (A3): release record locks when the decision is applied
  /// instead of at cleanup time. The paper's EC implementation frees
  /// transactional resources (locks included) only once every forwarded
  /// decision has arrived (Section 5.3), which is part of why EC trails
  /// 2PC slightly at high write ratios (Section 6.5); this flag removes
  /// that wait so its cost can be measured. Affects all protocols.
  bool release_locks_at_decision = false;

  /// Transport-level message coalescing. Simulator: every message a
  /// scheduler step emits toward the same destination travels as one
  /// frame, and same-arrival frames share one delivery event; delivery
  /// *order* across destinations changes (per-link FIFO is preserved), so
  /// runs with the knob on are deterministic among themselves but not
  /// bit-identical to runs with it off. Threaded hosts: each event-loop
  /// iteration ships one batch per destination and group-commits the WAL.
  /// Off by default; benchmarks opt in.
  bool coalesce_transport = false;

  /// Open-loop load generation (off by default: clients run the classic
  /// closed loop, one transaction in flight each). Under the open loop the
  /// admission window replaces clients_per_node as the slot population.
  OpenLoopConfig open_loop;

  /// Time-series telemetry (off by default). The simulator samples in
  /// virtual time (byte-identical across identically seeded runs); the
  /// threaded runtime samples on wall time from a dedicated thread.
  TelemetryConfig telemetry;

  uint64_t seed = 42;

  /// Execution watchdog: abort an attempt whose remote fragments have not
  /// all answered within this bound (covers execution-phase node
  /// failures). Five protocol timeouts — 50 ms at the simulator default.
  Micros ExecWatchdogUs() const { return commit.timeout_us * 5; }
};

/// Full configuration of a simulated cluster run.
struct ClusterConfig : NodeConfig {
  uint32_t workers_per_node = 4;

  NetworkConfig network;
  ServiceCosts costs;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_CONFIG_H_
