// Benchmark binary: one program runs every workload, the per-layer ladder
// and the traced pass. run.py builds it, runs it once per invocation and
// turns its line protocol (see common.h) into the result JSON.
//
//   ecbench --workload <sim-sweep|thr-closed|thr-open|sock-open>
//           --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//   ecbench --record-golden <seed>

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cluster/socket_cluster.h"
#include "common.h"

namespace ecbench {

void EmitMetric(const std::string& name, double value, const std::string& unit,
                uint64_t samples) {
  std::printf("metric %s %.17g %s %llu\n", name.c_str(), value, unit.c_str(),
              static_cast<unsigned long long>(samples));
}

void EmitCheck(const std::string& name, bool ok, const std::string& detail) {
  std::printf("check %s %s %s\n", name.c_str(), ok ? "ok" : "fail",
              detail.c_str());
}

void EmitLedger(const std::string& label, uint64_t offered, uint64_t committed,
                uint64_t rejected, uint64_t taborted) {
  std::printf("ledger %s offered=%llu committed=%llu rejected=%llu "
              "taborted=%llu\n",
              label.c_str(), static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(taborted));
}

void EmitGolden(uint64_t seed, const std::string& key, uint64_t value) {
  std::printf("golden %llu %s %llu\n", static_cast<unsigned long long>(seed),
              key.c_str(), static_cast<unsigned long long>(value));
}

void EmitCount(uint64_t attempted, uint64_t failed) {
  std::printf("count %llu %llu\n", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
}

void Note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

double WallSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSec(bool children) {
  rusage ru{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double ChildPeakRssMb() {
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

double InterpolatedPercentile(const ecdb::Histogram& h, double q) {
  const auto buckets = h.NonZeroBuckets();
  uint64_t total = 0;
  for (const auto& [b, c] : buckets) total += c;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double below = 0;
  for (const auto& [b, c] : buckets) {
    const double count = static_cast<double>(c);
    if (below + count >= rank) {
      using ecdb::Histogram;
      const double hi = static_cast<double>(Histogram::BucketUpperBound(b));
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(Histogram::BucketUpperBound(b - 1));
      return lo + (hi - lo) * std::clamp((rank - below) / count, 0.0, 1.0);
    }
    below += count;
  }
  return static_cast<double>(
      ecdb::Histogram::BucketUpperBound(buckets.back().first));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double WarmUntilFlat(const std::function<double()>& window_rate,
                     double max_seconds) {
  // Single windows are noisy, so compare the median of the last four
  // windows with the median of the four before them: the ramp is over once
  // that has not risen by more than 3%.
  constexpr size_t kSpan = 4;
  const double t0 = WallSec();
  std::vector<double> rates;
  bool flat = false;
  while (!flat && WallSec() - t0 < max_seconds) {
    rates.push_back(window_rate());
    if (rates.size() >= 2 * kSpan) {
      const auto end = rates.end();
      const double recent = Median({end - kSpan, end});
      const double before = Median({end - 2 * kSpan, end - kSpan});
      flat = recent <= before * 1.03;
    }
  }
  std::string list;
  for (double r : rates) list += " " + std::to_string(static_cast<long>(r));
  const double spent = WallSec() - t0;
  Note("warm-up: %.2f s until committed/s stopped rising (%s; windows/s:%s)",
       spent, flat ? "flat" : "cap reached", list.c_str());
  return spent;
}

void PrintFingerprint() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  uname(&u);
  Note("host: nproc=%ld cpu=\"%s\" kernel=%s %s", sysconf(_SC_NPROCESSORS_ONLN),
       model.c_str(), u.sysname, u.release);
}

}  // namespace ecbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ecbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir>\n"
               "       ecbench --record-golden <seed>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Socket workloads re-exec this binary as their node processes.
  if (ecdb::MaybeRunSocketNodeChild(argc, argv)) return 0;

  ecbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") opt.trace = std::strcmp(val, "0") != 0;
    else if (key == "--scratch") opt.scratch = val;
    else if (key == "--record-golden") {
      ecbench::RecordSimGolden(std::strtoull(val, nullptr, 10));
      return 0;
    } else {
      return Usage();
    }
  }
  if (opt.scratch.empty() || opt.seconds <= 0) return Usage();
  ecbench::PrintFingerprint();
  if (opt.trace) {
    ecbench::RunLayers(opt);
  } else if (opt.workload == "sim-sweep") {
    ecbench::RunSimSweep(opt);
  } else if (opt.workload == "thr-closed") {
    ecbench::RunThreaded(opt, /*open_loop=*/false);
  } else if (opt.workload == "thr-open") {
    ecbench::RunThreaded(opt, /*open_loop=*/true);
  } else if (opt.workload == "sock-open") {
    ecbench::RunSocket(opt);
  } else {
    return Usage();
  }
  std::fflush(stdout);
  return 0;
}
