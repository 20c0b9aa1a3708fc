// The benchmark's closed-loop workloads over the bio catalog.
//
// One client thread drives each workload; every QueryService runs one
// worker.  A run sets the system up several times (set-up time is the
// median), runs operations for the requested seconds of timed work, and
// checks every served cover outside the timed region.

#ifndef HYPERION_PERFBENCH_WORKLOADS_H_
#define HYPERION_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;   // service_rw | cluster_rw
  uint64_t seed = 1;
  double seconds = 0;     // timed work per run
  bool trace = false;     // record spans, report per-layer metrics
  std::string work_dir;   // scratch space for store and write-log files
  std::string span_out;   // span dump path (traced runs)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  std::vector<std::string> errors;  // any entry makes the run incorrect
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Metric> info;     // printed for the reader, not gated
};

/// \brief Runs one workload; never throws.  Set-up failures and wrong
/// covers land in `errors`.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_WORKLOADS_H_
