// Ablation: observability overhead (the zero-overhead-when-disabled
// contract, in the spirit of the paper's "logging tool more reliable than
// dmesg" — instrumentation must not distort what it measures).
//
// The same workload runs with tracing off and on. The hard claim is on
// SIMULATED time: the tracer only observes, so both modes must report
// bit-identical kernel time and a byte-identical batch log — a 0% (< 1%)
// sim-time overhead, enabled or not. The metrics snapshot needs no mode:
// it is read from the components' books after the run, so both modes have
// one, and it must not depend on the tracer. Host wall-clock is reported
// per mode (median of repetitions) to show what the recording itself costs
// the simulator process.
#include <algorithm>
#include <chrono>
#include <sstream>

#include "analysis/log_io.hpp"
#include "bench_util.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

struct Mode {
  std::string label;
  ObsConfig obs;
};

struct Row {
  std::string label;
  RunResult result;
  double wall_ms = 0;        // median over kReps
  std::size_t events = 0;    // trace events recorded
  std::size_t metrics = 0;   // counter names in the snapshot
  std::string batch_log;     // serialized, for byte comparison
  std::string snapshot;      // metrics JSON, for byte comparison
};

constexpr int kReps = 5;

Row run_mode(const Mode& mode, const WorkloadSpec& spec) {
  Row row;
  row.label = mode.label;
  std::vector<double> walls;
  for (int rep = 0; rep < kReps; ++rep) {
    SystemConfig cfg = no_prefetch(presets::scaled_titan_v(64));
    cfg.obs = mode.obs;
    System system(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = system.run(spec);
    const auto t1 = std::chrono::steady_clock::now();
    walls.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (rep == 0) {
      row.events = system.tracer().size();
      const MetricsRegistry snapshot = system.metrics();
      row.metrics = snapshot.counters.size();
      row.snapshot = metrics_to_json(snapshot);
      std::ostringstream log;
      write_batch_log(log, result.log);
      row.batch_log = log.str();
      row.result = std::move(result);
    }
  }
  std::sort(walls.begin(), walls.end());
  row.wall_ms = walls[walls.size() / 2];
  return row;
}

}  // namespace

int main() {
  print_header(
      "Ablation: tracing overhead",
      "observability only observes: simulated time and the batch log are "
      "bit-identical with tracing on or off (0% sim-time overhead, well "
      "under the 1% budget), and the metrics snapshot is read from the "
      "books after the run in either mode");

  const auto spec = make_stream_triad(1 << 18);
  const std::vector<Mode> modes{
      {"off", {false}},
      {"trace", {true}},
  };

  std::vector<Row> rows;
  for (const auto& mode : modes) rows.push_back(run_mode(mode, spec));
  const Row& off = rows.front();
  const Row& traced = rows.back();

  TablePrinter table({"mode", "kernel(ms)", "batches", "wall(ms)",
                      "wall vs off", "trace events", "counters"});
  for (const auto& row : rows) {
    const double ratio = off.wall_ms > 0 ? row.wall_ms / off.wall_ms : 1.0;
    table.add_row({row.label, fmt(row.result.kernel_time_ns / 1e6, 3),
                   std::to_string(row.result.log.size()),
                   fmt(row.wall_ms, 2), fmt(ratio, 2) + "x",
                   std::to_string(row.events),
                   std::to_string(row.metrics)});
  }
  std::printf("%s\n", table.render().c_str());

  bool sim_identical = true;
  bool log_identical = true;
  for (const auto& row : rows) {
    sim_identical &=
        row.result.kernel_time_ns == off.result.kernel_time_ns &&
        row.result.batch_time_ns == off.result.batch_time_ns;
    log_identical &= row.batch_log == off.batch_log;
  }
  shape_check(sim_identical,
              "simulated kernel/batch time bit-identical with tracing on "
              "and off (sim-time overhead exactly 0%, < 1% budget)");
  shape_check(log_identical,
              "batch log serializes byte-identically in both modes");
  shape_check(off.events == 0 && off.metrics > 0,
              "untraced mode records no trace event (null-handle fast "
              "path), and its metrics snapshot is non-empty");
  shape_check(traced.events > 0 && traced.snapshot == off.snapshot,
              "traced mode records trace events, and its metrics snapshot "
              "is byte-identical to the untraced one");
  return (sim_identical && log_identical) ? 0 : 1;
}
