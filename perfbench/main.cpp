// uvmsim_perfbench: run one benchmark workload as a closed loop of whole
// simulations and print its metrics.
//
//   uvmsim_perfbench --workload random-6x --seed 7 --seconds 20 --trace 0
//
// Prints one "# name value unit" line per metric, then, as the last line,
// {"correct","attempted","failed","metrics"} as JSON. --trace 0 reports
// the end-to-end metrics (untraced run() calls); --trace 1 the per-layer
// metrics (traced replay plus simulated totals). Exit 2 on bad arguments.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "uvmsim_perfbench: %s\n"
               "usage: uvmsim_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why);
  for (const auto& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      ok = parse_u64(value, options.seed);
    } else if (flag == "--seconds") {
      ok = parse_u64(value, seconds) && seconds >= 1 && seconds <= 600;
    } else if (flag == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return usage(("bad value for " + flag).c_str());
  }
  if (options.workload.empty()) return usage("--workload is required");
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;

  perfbench::Report report;
  try {
    report = perfbench::run_benchmark(options);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  for (const auto& error : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::printf("# workload %s seed %llu, inputs %llu B: %llu runs, %llu "
              "failed (run_fail_ratio %.4g)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(report.input_bytes),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted));
  for (const auto& m : report.metrics) {
    std::printf("# %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", perfbench::to_json(report).c_str());
  return 0;
}
