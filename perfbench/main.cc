// hyperion_perfbench: one closed-loop benchmark run.
//
//   hyperion_perfbench --workload <service_rw|cluster_rw>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      --work-dir <dir> [--span-out <file>]
//
// Prints one "name value unit" line per metric (end-to-end metrics, or
// per-layer metrics with --trace 1), then, as the last line, a JSON
// object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when a
// cover check failed, an operation failed or set-up failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: hyperion_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--span-out <file>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--span-out") {
      options.span_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_workload) return Usage("--workload is required");
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());
  const perfbench::RunReport report = perfbench::RunWorkload(options);
  std::filesystem::remove_all(options.work_dir, ec);

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  for (const perfbench::Metric& m : report.info) {
    std::printf("# %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const bool correct = report.errors.empty() && report.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
