#include "exhibits.h"

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "cluster/sim_cluster.h"
#include "commit/invariants.h"
#include "commit/testbed.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace ecdb {
namespace exhibits {

const RunResult& CellRunner::Run(const Cell& cell) {
  const auto found = done_.find(cell);
  if (found != done_.end()) return found->second;

  ClusterConfig config;
  config.num_nodes = cell.nodes;
  config.clients_per_node = 32;
  config.protocol = cell.protocol;
  config.seed = 20180326;  // EDBT'18 :-)
  config.release_locks_at_decision = cell.early_release;
  // The paper uses 60 s + 60 s of wall-clock; the simulator's determinism
  // makes much shorter windows stable.
  double warmup = 0.25;
  double measure = 0.5;
  if (cell.one_way_us > 0) {
    const Micros latency = cell.one_way_us;
    config.network.base_latency_us = latency;
    config.network.jitter_us = latency / 4;
    // Timeouts must stay above the round trips at every latency (the
    // execution watchdog follows at five protocol timeouts).
    config.commit.timeout_us = latency * 20 + 10'000;
    config.commit.termination_window_us = latency * 8 + 5'000;
    config.backoff_base_us = 500 + latency / 4;
    warmup = 0.5 + latency / 1e5;
    measure = 1.0 + 4.0 * latency / 1e5;
  }
  warmup *= window_scale_;
  measure *= window_scale_;

  std::unique_ptr<Workload> workload;
  if (cell.load == Load::kTpcc) {
    TpccConfig tpcc;
    tpcc.num_partitions = cell.nodes;
    tpcc.warehouses_per_partition = 4;
    workload = std::make_unique<TpccWorkload>(tpcc);
  } else {
    // The paper's 16M rows per partition are scaled down: contention
    // depends on skew, not table bytes.
    YcsbConfig ycsb;
    ycsb.num_partitions = cell.nodes;
    ycsb.rows_per_partition = 131072;
    ycsb.ops_per_txn = cell.ops_per_txn;
    ycsb.partitions_per_txn = cell.partitions_per_txn;
    ycsb.write_fraction = cell.write_fraction;
    ycsb.theta = cell.theta;
    workload = std::make_unique<YcsbWorkload>(ycsb);
  }

  SimCluster cluster(config, std::move(workload));
  cluster.Start();
  cluster.RunFor(warmup);
  cluster.BeginMeasurement();
  cluster.RunFor(measure);
  RunResult result;
  result.stats = cluster.CollectStats(measure);
  result.throughput = result.stats.Throughput();
  result.p99_us = result.stats.total.latency.Percentile(0.99);
  result.abort_rate = result.stats.AbortRate();
  return done_.emplace(cell, std::move(result)).first->second;
}

namespace {

using testbed::ProtocolTestbed;

const CommitProtocol kProtocols[] = {CommitProtocol::kTwoPhase,
                                     CommitProtocol::kThreePhase,
                                     CommitProtocol::kEasyCommit};

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// A line of text followed by a blank line.
void Caption(const std::string& text, std::string* out) {
  *out += text + "\n\n";
}

void Row(const std::vector<std::string>& cells, std::string* out) {
  *out += "|";
  for (const std::string& c : cells) *out += " " + c + " |";
  *out += "\n";
}

void Header(const std::vector<std::string>& cells, std::string* out) {
  Row(cells, out);
  for (size_t i = 0; i < cells.size(); ++i) *out += "|---";
  *out += "|\n";
}

// ---------------------------------------------------------------------------
// Simulated exhibits: rows of cells, one column per measured value.
// ---------------------------------------------------------------------------

using Metric = std::function<std::string(const RunResult&)>;

std::string KiloTxns(const RunResult& r) {
  return Format("%.1f", r.throughput / 1000.0);
}

std::string P99Ms(const RunResult& r) {
  return Format("%.1f", static_cast<double>(r.p99_us) / 1000.0);
}

struct SweepRow {
  std::string label;
  Cell cell;
};

struct Column {
  std::string header;
  std::function<void(Cell*)> set;  // the column's change to the row's cell
  Metric value;
};

// The 2PC, 3PC and EC columns of `value`, headed "<protocol><suffix>".
std::vector<Column> PerProtocol(const Metric& value,
                                const std::string& suffix = "") {
  std::vector<Column> columns;
  for (CommitProtocol p : kProtocols) {
    columns.push_back({ToString(p) + suffix,
                       [p](Cell* cell) { cell->protocol = p; }, value});
  }
  return columns;
}

void Sweep(CellRunner& cells, const std::string& corner,
           const std::vector<SweepRow>& rows,
           const std::vector<Column>& columns, std::string* out) {
  std::vector<std::string> header = {corner};
  for (const Column& c : columns) header.push_back(c.header);
  Header(header, out);
  for (const SweepRow& row : rows) {
    std::vector<std::string> line = {row.label};
    for (const Column& c : columns) {
      Cell cell = row.cell;
      if (c.set) c.set(&cell);
      line.push_back(c.value(cells.Run(cell)));
    }
    Row(line, out);
  }
}

std::vector<Column> Concat(std::vector<Column> a,
                           const std::vector<Column>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Reproduces Figure 9: YCSB throughput vs. Zipfian skew (theta).
// Paper shape: for theta <= 0.6, EC and 2PC sit close together and clearly
// above 3PC; at high skew (>= 0.7) contention dominates and the three
// protocols converge at a much lower throughput.
bool Fig09Skew(CellRunner& cells, std::string* out) {
  Caption("Figure 9: YCSB throughput (thousand txns/s) vs skew factor "
          "(theta), 16 nodes, 2 partitions/txn.",
          out);
  std::vector<SweepRow> rows;
  for (double theta : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    rows.push_back({Format("%.1f", theta), Cell{.theta = theta}});
  }
  Sweep(cells, "theta", rows, PerProtocol(KiloTxns), out);
  return true;
}

// Reproduces Figure 10: YCSB throughput vs. partitions per transaction.
// Paper shape: throughput drops steeply from 2 to 4 partitions (~55%) and
// further (~25%) from 4 to 6, for all protocols; message count grows
// linearly for 2PC/3PC and quadratically for EC, so EC's gap to 2PC widens
// with the partition count.
bool Fig10Partitions(CellRunner& cells, std::string* out) {
  Caption("Figure 10: YCSB throughput (thousand txns/s) vs partitions per "
          "transaction, 16 nodes, theta 0.6, 16 ops/txn.",
          out);
  std::vector<SweepRow> rows;
  for (uint32_t parts : {2u, 4u, 6u}) {
    rows.push_back({std::to_string(parts),
                    Cell{.partitions_per_txn = parts, .ops_per_txn = 16}});
  }
  Sweep(cells, "parts/txn", rows, PerProtocol(KiloTxns), out);
  return true;
}

// Reproduces Figure 11 (a, b, c): throughput and p99 latency vs. server
// count at low, medium and high contention.
// Paper shape: throughput grows with node count for every protocol, with
// EC ~= 2PC (EC marginally lower at low/medium contention) and both above
// 3PC; latency grows with node count and is highest for 3PC (extra round).
bool Fig11Scaling(CellRunner& cells, std::string* out) {
  Caption("Figure 11: YCSB throughput (thousand txns/s) and p99 latency "
          "(ms) vs server count, theta in {0.1, 0.6, 0.7}, 2 partitions/txn.",
          out);
  const std::pair<double, const char*> contentions[] = {
      {0.1, "(a) low contention, theta=0.1"},
      {0.6, "(b) medium contention, theta=0.6"},
      {0.7, "(c) high contention, theta=0.7"},
  };
  for (const auto& [theta, label] : contentions) {
    Caption(label, out);
    std::vector<SweepRow> rows;
    for (uint32_t nodes : {2u, 4u, 8u, 16u, 32u}) {
      rows.push_back(
          {std::to_string(nodes), Cell{.nodes = nodes, .theta = theta}});
    }
    Sweep(cells, "nodes", rows,
          Concat(PerProtocol(KiloTxns), PerProtocol(P99Ms, " p99")), out);
    *out += "\n";
  }
  out->pop_back();
  return true;
}

// Reproduces Figure 12: where worker time goes, per protocol, as
// contention varies; plus the commit-phase latency means (us) from the
// tracing layer: vote collection, decision transmit, decision apply.
// Paper shape: the Abort share grows with theta; at medium/high contention
// 3PC workers are idle the most and do the least useful work; the Commit
// share grows with contention for every protocol.
bool Fig12Breakdown(CellRunner& cells, std::string* out) {
  Caption("Figure 12: share of worker time per component vs contention, "
          "and commit-phase latency means (us), 16 nodes.",
          out);
  std::vector<Column> columns;
  for (size_t c = 0; c < kNumTimeCategories; ++c) {
    const auto category = static_cast<TimeCategory>(c);
    columns.push_back(
        {ToString(category), nullptr, [category](const RunResult& r) {
           return Format("%.1f%%", 100.0 * r.stats.TimeFraction(category));
         }});
  }
  const std::pair<const char*, Histogram NodeStats::*> phases[] = {
      {"vote_us", &NodeStats::phase_vote},
      {"xmit_us", &NodeStats::phase_transmit},
      {"apply_us", &NodeStats::phase_apply},
  };
  for (const auto& [name, phase] : phases) {
    columns.push_back({name, nullptr, [phase](const RunResult& r) {
                         return Format("%.1f", (r.stats.total.*phase).Mean());
                       }});
  }
  for (CommitProtocol protocol : kProtocols) {
    Caption(ToString(protocol) + ":", out);
    std::vector<SweepRow> rows;
    for (double theta : {0.1, 0.5, 0.6, 0.7, 0.8}) {
      rows.push_back({Format("%.1f", theta),
                      Cell{.protocol = protocol, .theta = theta}});
    }
    Sweep(cells, "theta", rows, columns, out);
    *out += "\n";
  }
  out->pop_back();
  return true;
}

// Reproduces Section 6.5 (Figure 13): throughput vs. write percentage.
// Paper shape: at 10% writes all protocols converge; as the write
// percentage grows, 3PC falls away while EC tracks 2PC with a marginal gap
// (EC holds locks slightly longer while waiting for forwarded decisions).
bool Fig13WritePct(CellRunner& cells, std::string* out) {
  Caption("Figure 13 / Section 6.5: YCSB throughput (thousand txns/s) vs "
          "write percentage, 16 nodes, theta 0.6.",
          out);
  std::vector<SweepRow> rows;
  for (int pct : {10, 30, 50, 70, 90}) {
    rows.push_back({std::to_string(pct), Cell{.write_fraction = pct / 100.0}});
  }
  Sweep(cells, "write%", rows, PerProtocol(KiloTxns), out);
  return true;
}

std::vector<SweepRow> TpccRows() {
  std::vector<SweepRow> rows;
  for (uint32_t nodes : {2u, 4u, 8u, 16u, 32u}) {
    rows.push_back(
        {std::to_string(nodes), Cell{.load = Load::kTpcc, .nodes = nodes}});
  }
  return rows;
}

// Reproduces Figure 14 / Section 6.6: TPC-C (Payment + NewOrder)
// throughput vs. server count.
// Paper shape: TPC-C is dominated by single-partition transactions, so the
// gaps between commit protocols are much smaller than under YCSB;
// throughput scales with the node count for all three.
bool Fig14Tpcc(CellRunner& cells, std::string* out) {
  Caption("Figure 14: TPC-C throughput (thousand txns/s) vs server count.",
          out);
  Sweep(cells, "nodes", TpccRows(), PerProtocol(KiloTxns), out);
  return true;
}

// Section 6.7, the TPC-C latency companion of Figure 14 (the paper's
// source text truncates mid-section): 99th percentile latency vs. server
// count. Expected shape: latencies far lower than YCSB's, 3PC pays the
// extra round on the multi-partition tail, EC tracks 2PC closely.
bool Fig15TpccLatency(CellRunner& cells, std::string* out) {
  Caption("Section 6.7: TPC-C p99 latency (ms) vs server count.", out);
  const auto p99_ms = [](const RunResult& r) {
    return Format("%.2f", static_cast<double>(r.p99_us) / 1000.0);
  };
  Sweep(cells, "nodes", TpccRows(), PerProtocol(p99_ms, " p99"), out);
  return true;
}

// Ablation A3: the cost of EasyCommit's delayed cleanup. Section 5.3 makes
// every node hold its locks until it has seen the forwarded decision from
// every other participant; Section 6.5 attributes part of EC's small gap
// to 2PC at high write ratios to exactly this.
bool AblationCleanup(CellRunner& cells, std::string* out) {
  Caption("Ablation A3: EC delayed cleanup (paper) vs early lock release, "
          "16 nodes, theta 0.6.",
          out);
  const auto early = [](Cell* cell) { cell->early_release = true; };
  const auto abort_rate = [](const RunResult& r) {
    return Format("%.3f", r.abort_rate);
  };
  std::vector<SweepRow> rows;
  for (int pct : {30, 50, 70, 90}) {
    rows.push_back({std::to_string(pct), Cell{.write_fraction = pct / 100.0}});
  }
  Sweep(cells, "write%", rows,
        {{"EC (paper) k txns/s", nullptr, KiloTxns},
         {"EC (early rel) k txns/s", early, KiloTxns},
         {"abort/commit (paper)", nullptr, abort_rate},
         {"abort/commit (early rel)", early, abort_rate}},
        out);
  *out += "\nExpected: early release recovers a little throughput and lowers "
          "the abort rate at high write ratios, the price EC pays for the "
          "Section 5.3 cleanup rule.\n";
  return true;
}

// Extension E-WAN: the geo-scale setting of the paper's introduction.
// Commit phases multiply WAN round trips, so 3PC's extra phase costs more
// as the one-way latency grows from LAN to cross-region WAN.
bool ExtWan(CellRunner& cells, std::string* out) {
  Caption("Extension E-WAN: YCSB throughput (thousand txns/s) and p99 "
          "latency (ms) vs one-way network latency, 8 nodes, theta 0.5.",
          out);
  const std::pair<Micros, const char*> latencies[] = {
      {400, "0.4ms LAN"},
      {5'000, "5ms metro"},
      {25'000, "25ms region"},
      {100'000, "100ms geo"},
  };
  std::vector<SweepRow> rows;
  for (const auto& [latency, label] : latencies) {
    rows.push_back(
        {label, Cell{.nodes = 8, .theta = 0.5, .one_way_us = latency}});
  }
  Sweep(cells, "one-way latency", rows,
        Concat(PerProtocol(KiloTxns), PerProtocol(P99Ms, " p99")), out);
  *out += "\nExpected: the 2PC/EC advantage over 3PC widens toward the "
          "phase-count ratio as network latency dominates; EC == 2PC in "
          "phases, so geo-scale deployments get non-blocking commit without "
          "paying 3PC's WAN round trip.\n";
  return true;
}

// ---------------------------------------------------------------------------
// Testbed exhibits: single transactions on the bare protocol testbed.
// ---------------------------------------------------------------------------

NetworkConfig TestbedNetwork(Micros jitter_us) {
  NetworkConfig net;
  net.base_latency_us = 100;
  net.jitter_us = jitter_us;
  return net;
}

const char* Name(StateClass s) {
  switch (s) {
    case StateClass::kUndecided:
      return "UNDECIDED";
    case StateClass::kTransmitA:
      return "T-A";
    case StateClass::kTransmitC:
      return "T-C";
    case StateClass::kAbort:
      return "ABORT";
    case StateClass::kCommit:
      return "COMMIT";
  }
  return "?";
}

// Runs EC with a crash injected at delivery `at` of node `crash_node`,
// then collects the (applied-state x applied-state) pairs across nodes.
void CollectPairs(uint32_t n, NodeId crash_node, uint64_t at,
                  std::set<std::pair<StateClass, StateClass>>* observed,
                  uint64_t* violations) {
  ProtocolTestbed bed(CommitProtocol::kEasyCommit, n, TestbedNetwork(7));
  uint64_t counter = 0;
  bed.network().SetDeliveryInterceptor([&](const Message& msg) {
    counter++;
    if (counter == at) {
      bed.network().CrashNode(crash_node);
      if (msg.dst == crash_node) return false;
    }
    return true;
  });
  const TxnId txn = bed.StartAll();
  bed.Settle(200'000);
  if (!bed.monitor().Violations().empty()) (*violations)++;

  std::vector<StateClass> states;
  for (NodeId id = 0; id < n; ++id) {
    if (bed.network().IsCrashed(id)) continue;
    const auto applied = bed.host(id).applied(txn);
    if (!applied.has_value()) {
      states.push_back(StateClass::kUndecided);
    } else {
      states.push_back(*applied == Decision::kCommit ? StateClass::kCommit
                                                     : StateClass::kAbort);
    }
  }
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t j = i + 1; j < states.size(); ++j) {
      observed->insert({states[i], states[j]});
      observed->insert({states[j], states[i]});
    }
  }
}

// Reproduces Figure 7: the coexistence matrix of EC state classes, printed
// from the library's encoding, then validated empirically: an exhaustive
// single-crash sweep over EC runs records every pair of states observed
// across nodes and confirms that no terminal pair marked N materializes.
bool Fig07Coexistence(CellRunner&, std::string* out) {
  Caption("Figure 7: coexistent states in the EC protocol (Y: may "
          "coexist).",
          out);
  const StateClass classes[] = {StateClass::kUndecided, StateClass::kTransmitA,
                                StateClass::kTransmitC, StateClass::kAbort,
                                StateClass::kCommit};
  std::vector<std::string> header = {""};
  for (StateClass c : classes) header.push_back(Name(c));
  Header(header, out);
  for (StateClass row : classes) {
    std::vector<std::string> line = {Name(row)};
    for (StateClass col : classes) {
      line.push_back(CanCoexist(row, col) ? "Y" : "N");
    }
    Row(line, out);
  }

  std::set<std::pair<StateClass, StateClass>> observed;
  uint64_t violations = 0;
  uint64_t schedules = 0;
  for (uint32_t n : {3u, 4u}) {
    for (NodeId node = 0; node < n; ++node) {
      for (uint64_t at = 1; at <= 40; ++at) {
        CollectPairs(n, node, at, &observed, &violations);
        schedules++;
      }
    }
  }
  // UNDECIDED/decided pairs are transient here (a node still being driven
  // when another decided); terminal COMMIT+ABORT is the real violation.
  uint64_t forbidden_seen = 0;
  for (const auto& [a, b] : observed) {
    if (!CanCoexist(a, b) && a != StateClass::kUndecided &&
        b != StateClass::kUndecided) {
      forbidden_seen++;
    }
  }
  *out += "\n";
  Caption("Terminal-state pairs over crash sweeps (EC, n in {3,4}):", out);
  Header({"check", "count"}, out);
  Row({"schedules run", std::to_string(schedules)}, out);
  Row({"conflicting decisions seen (expected 0)", std::to_string(violations)},
      out);
  Row({"forbidden terminal pairs (expected 0)",
       std::to_string(forbidden_seen)},
      out);
  return violations == 0 && forbidden_seen == 0;
}

struct ForwardingOutcome {
  uint64_t schedules = 0;
  uint64_t violations = 0;
  uint64_t blocked = 0;
  uint64_t undecided_active = 0;
};

// The motivating failure shape, for every cohort x: the coordinator's
// decision broadcast reaches only x, wherever x sits in the send order,
// the coordinator crashes as soon as the broadcast is out, and x
// fail-stops right after applying the decision.
ForwardingOutcome RunForwardingScenario(CommitProtocol protocol, uint32_t n) {
  ForwardingOutcome outcome;
  for (NodeId x = 1; x < n; ++x) {
    bool crash_armed = false;  // outlives the filter that sets it
    ProtocolTestbed bed(protocol, n, TestbedNetwork(7));
    bed.host(x).set_crash_after_apply(true);
    bed.network().SetSendFilter([&bed, &crash_armed, x](const Message& msg) {
      const bool decision = msg.type == MsgType::kGlobalCommit ||
                            msg.type == MsgType::kGlobalAbort;
      if (!decision || msg.src != 0 || msg.forwarded) return true;
      if (!crash_armed) {
        // Runs after the broadcast's event, before anything it sent lands.
        crash_armed = true;
        bed.scheduler().ScheduleAfter(0,
                                      [&bed] { bed.network().CrashNode(0); });
      }
      return msg.dst == x;
    });
    const TxnId txn = bed.StartAll();
    bed.Settle(200'000);
    outcome.schedules++;
    if (!bed.monitor().Violations().empty()) outcome.violations++;
    if (bed.monitor().blocked_reports() > 0) outcome.blocked++;
    for (NodeId id = 0; id < n; ++id) {
      if (bed.network().IsCrashed(id)) continue;
      if (!bed.host(id).applied(txn).has_value() &&
          bed.host(id).blocked_count() == 0) {
        outcome.undecided_active++;
      }
    }
  }
  return outcome;
}

// Ablation A1: what EasyCommit's decision forwarding (insight ii) buys.
// Under the motivating failure shape EC's survivors learn the decision;
// without forwarding their termination aborts while the dead cohort
// committed (a safety violation); 2PC's survivors block.
bool AblationForwarding(CellRunner&, std::string* out) {
  Caption("Ablation A1: decision forwarding (EC insight ii). The "
          "coordinator crashes mid-broadcast; the one cohort that received "
          "the decision fail-stops after applying it. Sweep over cohorts "
          "and cluster sizes.",
          out);
  Header({"protocol", "nodes", "schedules", "violations", "blocked",
          "undecided"},
         out);
  bool ec_clean = true;
  bool ablation_shows_violation = false;
  for (CommitProtocol protocol :
       {CommitProtocol::kEasyCommit, CommitProtocol::kEasyCommitNoForward,
        CommitProtocol::kTwoPhase}) {
    for (uint32_t n : {3u, 4u, 5u}) {
      const ForwardingOutcome o = RunForwardingScenario(protocol, n);
      Row({ToString(protocol), std::to_string(n), std::to_string(o.schedules),
           std::to_string(o.violations), std::to_string(o.blocked),
           std::to_string(o.undecided_active)},
          out);
      if (protocol == CommitProtocol::kEasyCommit &&
          (o.violations != 0 || o.blocked != 0)) {
        ec_clean = false;
      }
      if (protocol == CommitProtocol::kEasyCommitNoForward &&
          o.violations > 0) {
        ablation_shows_violation = true;
      }
    }
  }
  const bool ok = ec_clean && ablation_shows_violation;
  *out += ok ? "\nConclusion: forwarding is necessary and sufficient here: "
               "EC is safe and non-blocking, the no-forwarding variant "
               "violates safety, 2PC blocks.\n"
             : "\nConclusion: UNEXPECTED, see the counters above.\n";
  return ok;
}

// Ablation A2: messages per committed transaction as the participant count
// grows. Sections 3.3/3.4: 2PC and 3PC exchange O(n) messages, EC O(n^2)
// (every cohort forwards the decision to all n-1 peers).
bool AblationMsgCount(CellRunner&, std::string* out) {
  Caption("Ablation A2: messages per committed transaction vs n.", out);
  const CommitProtocol protocols[] = {CommitProtocol::kTwoPhase,
                                      CommitProtocol::kThreePhase,
                                      CommitProtocol::kEasyCommit,
                                      CommitProtocol::kEasyCommitNoForward};
  std::vector<std::string> header = {"n"};
  for (CommitProtocol p : protocols) header.push_back(ToString(p));
  Header(header, out);
  uint64_t last_ec = 0, last_2pc = 0;
  uint64_t prev_ec = 0, prev_2pc = 0;
  for (uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    std::vector<std::string> line = {std::to_string(n)};
    for (CommitProtocol protocol : protocols) {
      ProtocolTestbed bed(protocol, n, TestbedNetwork(0));
      bed.StartAll();
      bed.Settle(1'000'000);
      const uint64_t msgs = bed.network().stats().messages_sent;
      line.push_back(std::to_string(msgs));
      if (protocol == CommitProtocol::kEasyCommit) {
        prev_ec = std::exchange(last_ec, msgs);
      }
      if (protocol == CommitProtocol::kTwoPhase) {
        prev_2pc = std::exchange(last_2pc, msgs);
      }
    }
    Row(line, out);
  }
  // Doubling n should ~2x the 2PC count and ~4x the EC count at scale.
  *out += Format("\nGrowth when n doubles (16 -> 32): 2PC x%.2f (O(n) ~ 2), "
                 "EC x%.2f (O(n^2) ~ 4).\n",
                 static_cast<double>(last_2pc) / static_cast<double>(prev_2pc),
                 static_cast<double>(last_ec) / static_cast<double>(prev_ec));
  return true;
}

// Extension E-PAPC: presumed-abort / presumed-commit 2PC as baselines.
// They trim acknowledgments and log writes (PA on the abort side, PC on
// the commit side) but, unlike EC, remain blocking: messages and log
// writes per transaction on each path, then end-to-end throughput.
bool ExtPresumed(CellRunner& cells, std::string* out) {
  const CommitProtocol protocols[] = {
      CommitProtocol::kTwoPhase, CommitProtocol::kTwoPhasePresumedAbort,
      CommitProtocol::kTwoPhasePresumedCommit, CommitProtocol::kEasyCommit};
  Caption("Extension E-PAPC: per-transaction cost at n=4 participants.", out);
  Header({"protocol", "msgs(commit)", "logs(commit)", "msgs(abort)",
          "logs(abort)"},
         out);
  for (CommitProtocol protocol : protocols) {
    std::vector<std::string> line = {ToString(protocol)};
    for (bool commit : {true, false}) {
      const uint32_t n = 4;
      ProtocolTestbed bed(protocol, n, TestbedNetwork(0));
      if (!commit) bed.host(n - 1).set_vote(Decision::kAbort);
      const TxnId txn = bed.StartAll();
      bed.Settle();
      uint64_t log_writes = 0;
      for (NodeId id = 0; id < n; ++id) {
        log_writes += bed.host(id).LogTypes(txn).size();
      }
      line.push_back(std::to_string(bed.network().stats().messages_sent));
      line.push_back(std::to_string(log_writes));
    }
    Row(line, out);
  }
  *out += "\n";
  Caption("End-to-end YCSB throughput (16 nodes, theta 0.6):", out);
  std::vector<SweepRow> rows;
  for (CommitProtocol protocol : protocols) {
    rows.push_back({ToString(protocol), Cell{.protocol = protocol}});
  }
  Sweep(cells, "protocol", rows,
        {{"tput (k txns/s)", nullptr, KiloTxns},
         {"blocked", nullptr,
          [](const RunResult& r) {
            return std::to_string(r.stats.total.txns_blocked);
          }}},
        out);
  *out += "\nTakeaway: PC matches EC's message count on the commit path but "
          "stays blocking; EC is the only two-phase protocol here that is "
          "non-blocking.\n";
  return true;
}

const Exhibit kExhibits[] = {
    {"fig07_coexistence", Fig07Coexistence},
    {"fig09_skew", Fig09Skew},
    {"fig10_partitions", Fig10Partitions},
    {"fig11_scaling", Fig11Scaling},
    {"fig12_breakdown", Fig12Breakdown},
    {"fig13_writepct", Fig13WritePct},
    {"fig14_tpcc", Fig14Tpcc},
    {"fig15_tpcc_latency", Fig15TpccLatency},
    {"ablation_forwarding", AblationForwarding},
    {"ablation_msgcount", AblationMsgCount},
    {"ablation_cleanup", AblationCleanup},
    {"ext_wan", ExtWan},
    {"ext_presumed", ExtPresumed},
};

}  // namespace

std::span<const Exhibit> AllExhibits() { return kExhibits; }

bool RunExhibit(const Exhibit& exhibit, CellRunner& cells, std::string* out) {
  *out += Format("<!-- exhibit %s -->\n", exhibit.name);
  const bool ok = exhibit.run(cells, out);
  *out += "<!-- /exhibit -->\n";
  return ok;
}

}  // namespace exhibits
}  // namespace ecdb
