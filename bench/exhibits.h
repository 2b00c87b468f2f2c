#ifndef ECDB_BENCH_EXHIBITS_H_
#define ECDB_BENCH_EXHIBITS_H_

// The paper's Section 6 exhibits as one table. A simulated exhibit is a
// list of cells (plain configuration values) plus the tables it prints
// from their results; the testbed exhibits (Figure 7, A1, A2 and the
// per-path costs of E-PAPC) keep their own logic. Every exhibit prints
// markdown between `<!-- exhibit NAME -->` and `<!-- /exhibit -->`, which
// scripts/exhibits.py splices into EXPERIMENTS.md. The absolute numbers
// come from a simulator (see DESIGN.md); the *shapes* are the
// reproduction target.

#include <compare>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "common/types.h"
#include "stats/metrics.h"

namespace ecdb {
namespace exhibits {

enum class Load : uint8_t { kYcsb, kTpcc };

/// One simulated configuration. Everything not named here is the Section 6
/// default: 32 clients per node, seed 20180326, 131,072 YCSB rows or four
/// TPC-C warehouses per partition. The YCSB fields are ignored by TPC-C.
struct Cell {
  Load load = Load::kYcsb;
  uint32_t nodes = 16;
  CommitProtocol protocol = CommitProtocol::kEasyCommit;
  double theta = 0.6;
  double write_fraction = 0.5;
  uint32_t partitions_per_txn = 2;
  uint32_t ops_per_txn = 10;
  bool early_release = false;  // release locks at the decision (A3)
  /// One-way network latency; 0 keeps the simulator's LAN default. A set
  /// latency also derives the timeouts, backoff and (longer) windows from
  /// it, so that transactions complete many times per window.
  Micros one_way_us = 0;

  auto operator<=>(const Cell&) const = default;
};

/// One measured cell.
struct RunResult {
  double throughput = 0;  // committed txns per simulated second
  uint64_t p99_us = 0;    // 99th percentile latency
  double abort_rate = 0;  // aborted attempts per commit
  ClusterStats stats;
};

/// Simulates cells, each distinct one once: the simulator is
/// deterministic, so a cell that two exhibits share costs one run.
class CellRunner {
 public:
  /// `window_scale` multiplies every warmup and measure window; 1 is the
  /// exhibits' full scale (0.25 s + 0.5 s of simulated time on the LAN).
  explicit CellRunner(double window_scale = 1.0)
      : window_scale_(window_scale) {}

  const RunResult& Run(const Cell& cell);

  /// Distinct cells simulated so far.
  size_t simulated() const { return done_.size(); }

 private:
  double window_scale_;
  std::map<Cell, RunResult> done_;
};

struct Exhibit {
  const char* name;  // e.g. "fig09_skew"
  /// Appends the exhibit's markdown; false when its own check fails.
  bool (*run)(CellRunner& cells, std::string* out);
};

/// Every exhibit, in EXPERIMENTS.md's order.
std::span<const Exhibit> AllExhibits();

/// Appends `exhibit`'s markdown between its markers; false when its own
/// check fails.
bool RunExhibit(const Exhibit& exhibit, CellRunner& cells, std::string* out);

}  // namespace exhibits
}  // namespace ecdb

#endif  // ECDB_BENCH_EXHIBITS_H_
