#include "stats/metrics.h"

namespace ecdb {

std::string ToString(TimeCategory category) {
  switch (category) {
    case TimeCategory::kUsefulWork:
      return "Useful Work";
    case TimeCategory::kTxnManager:
      return "Txn Manager";
    case TimeCategory::kIndex:
      return "Index";
    case TimeCategory::kAbort:
      return "Abort";
    case TimeCategory::kIdle:
      return "Idle";
    case TimeCategory::kCommit:
      return "Commit";
    case TimeCategory::kOverhead:
      return "Overhead";
  }
  return "Unknown";
}

double ClusterStats::TimeFraction(TimeCategory category) const {
  uint64_t sum = 0;
  for (size_t i = 0; i < kNumTimeCategories; ++i) sum += total.time_us[i];
  if (sum == 0) return 0.0;
  return static_cast<double>(total.TimeIn(category)) /
         static_cast<double>(sum);
}

}  // namespace ecdb
