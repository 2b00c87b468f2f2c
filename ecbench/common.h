#ifndef ECBENCH_COMMON_H_
#define ECBENCH_COMMON_H_

// Shared pieces of the benchmark binary: the line protocol run.py parses,
// wall/CPU clocks, interpolated histogram percentiles, medians and the
// warm-up loop that waits out the machine's idle->busy ramp.
//
// Line protocol (one record per stdout line; anything else is commentary):
//   metric <name> <value> <unit> <samples>
//   check <name> ok|fail <detail>
//   ledger <label> offered=<n> committed=<n> rejected=<n> taborted=<n>
//   golden <seed> <key> <value>
//   count <attempted> <failed>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace ecbench {

/// Everything a workload needs from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;  // per-run directory for WAL files (run.py owns it)
};

void EmitMetric(const std::string& name, double value, const std::string& unit,
                uint64_t samples);
void EmitCheck(const std::string& name, bool ok, const std::string& detail);
void EmitLedger(const std::string& label, uint64_t offered, uint64_t committed,
                uint64_t rejected, uint64_t taborted);
void EmitGolden(uint64_t seed, const std::string& key, uint64_t value);
void EmitCount(uint64_t attempted, uint64_t failed);
/// printf-style commentary line (ignored by run.py, read by humans).
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Monotonic wall seconds.
double WallSec();

/// User+system CPU seconds of this process (children=false) or of every
/// reaped child (children=true).
double CpuSec(bool children);

/// Current resident set of this process, MB.
double RssMb();

/// Peak resident set of the largest reaped child process, MB.
double ChildPeakRssMb();

/// Percentile `q` of `h`, linearly interpolated inside the geometric bucket
/// that holds it (Histogram::Percentile returns the bucket's upper bound,
/// which quantizes to ~4% steps and repeats exactly across runs).
double InterpolatedPercentile(const ecdb::Histogram& h, double q);

double Median(std::vector<double> values);

/// Runs `window_rate` (one ~250 ms load window returning its committed/s)
/// until the rate stops rising: three windows in a row that do not beat
/// the best so far by 2%. Bounded by `max_seconds`. Returns seconds spent.
double WarmUntilFlat(const std::function<double()>& window_rate,
                     double max_seconds);

/// Host fingerprint line: nproc, CPU model, kernel.
void PrintFingerprint();

// Workload entry points (hosts.cc) and the per-layer pass (ladder.cc).
void RunSimSweep(const Options& opt);
void RunThreaded(const Options& opt, bool open_loop);
void RunSocket(const Options& opt);
void RunLayers(const Options& opt);

/// One golden sim-sweep round for `seed`, without warm-up or timing: the
/// recording path for goldens.json.
void RecordSimGolden(uint64_t seed);

}  // namespace ecbench

#endif  // ECBENCH_COMMON_H_
