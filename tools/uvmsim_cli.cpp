// uvmsim command-line tool: run any workload under any driver/GPU policy
// combination and emit the batch log, or analyze a previously saved log.
// The library's counterpart to the paper artifact's "Experiments and
// Evaluation Tool".
//
//   uvmsim_cli run --workload stream --elements 1048576 --gpu-mb 64
//       --no-prefetch --batch-size 512 --log out.batchlog
//   uvmsim_cli trace --workload vecadd-paged --gpu-mb 256 --out trace.json
//   uvmsim_cli analyze out.batchlog --phases
//   uvmsim_cli list
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/log_io.hpp"
#include "analysis/parallelism.hpp"
#include "analysis/summary.hpp"
#include "analysis/table.hpp"
#include "analysis/tenant_report.hpp"
#include "core/multi_client.hpp"
#include "core/multi_gpu.hpp"
#include "core/system.hpp"
#include "workloads/peer_share.hpp"
#include "workloads/tenant_mix.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace uvmsim;

/// A command-line mistake: reported as one line, exit status 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses a whole decimal unsigned integer; anything else (a sign, a
/// suffix, an out-of-range value) is a usage error.
std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError("--" + flag + " wants an unsigned integer (got '" +
                     text + "')");
  }
  return value;
}

/// Parses a whole finite, non-negative decimal number.
double parse_f64(const std::string& flag, const std::string& text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value) || value < 0) {
    throw UsageError("--" + flag + " wants a non-negative number (got '" +
                     text + "')");
  }
  return value;
}

/// How a flag takes its value.
enum class Value : std::uint8_t {
  kNone,      // bare switch
  kOptional,  // bare, or followed by text (--trace [FILE])
  kText,
  kUnsigned,  // decimal integer >= 0
  kNumber,    // decimal number >= 0
};

/// Which subcommands accept a flag (bit mask).
enum Command : std::uint8_t { kRun = 1, kTrace = 2, kAnalyze = 4 };

struct FlagSpec {
  std::string_view name;
  Value value;
  std::uint8_t commands = kRun | kTrace;
};

/// Every flag the CLI accepts. Anything else, or a value of the wrong
/// shape, exits 2 before a run starts (see parse_args).
constexpr FlagSpec kFlags[] = {
    // Workload selection and shape.
    {"workload", Value::kText},
    {"elements", Value::kUnsigned},
    {"bytes", Value::kUnsigned},
    {"n", Value::kUnsigned},
    {"nx", Value::kUnsigned},
    {"ny", Value::kUnsigned},
    {"sweeps", Value::kUnsigned},
    {"vcycles", Value::kUnsigned},
    {"fine-log2", Value::kUnsigned},
    {"host-threads", Value::kUnsigned},
    {"iterations", Value::kUnsigned},
    {"seed", Value::kUnsigned},
    {"pin-host", Value::kNone},
    // Driver / GPU configuration.
    {"gpu-mb", Value::kUnsigned},
    {"batch-size", Value::kUnsigned},
    {"no-prefetch", Value::kNone},
    {"no-promotion", Value::kNone},
    {"no-flush", Value::kNone},
    {"fifo-evict", Value::kNone},
    {"adaptive-batch", Value::kNone},
    {"async-host-ops", Value::kNone},
    {"service-policy", Value::kText},
    {"service-workers", Value::kUnsigned},
    // Outputs.
    {"log", Value::kText},
    {"trace", Value::kOptional},
    {"metrics", Value::kText},
    {"engine-stats", Value::kNone},
    {"fail-on-abort", Value::kNone},
    {"out", Value::kText, kTrace},
    // Transient fault injection and retry policy.
    {"inject", Value::kNone},
    {"inject-seed", Value::kUnsigned},
    {"inject-transfer-err", Value::kNumber},
    {"inject-dma-err", Value::kNumber},
    {"inject-irq-delay-prob", Value::kNumber},
    {"inject-irq-delay-ns", Value::kUnsigned},
    {"inject-irq-loss", Value::kNumber},
    {"inject-storm-prob", Value::kNumber},
    {"inject-storm-faults", Value::kUnsigned},
    {"inject-counter-loss", Value::kNumber},
    {"retry-max", Value::kUnsigned},
    {"retry-backoff-ns", Value::kUnsigned},
    {"retry-backoff-cap-ns", Value::kUnsigned},
    // Fatal faults and the recovery ladder.
    {"inject-fatal", Value::kNone},
    {"inject-ecc", Value::kNumber},
    {"inject-poison", Value::kNumber},
    {"inject-ce-fail", Value::kNumber},
    {"inject-wedge", Value::kNumber},
    {"wedge-gpu-frac", Value::kNumber},
    {"recovery-pool", Value::kUnsigned},
    {"watchdog-stuck", Value::kUnsigned},
    {"channel-reset-ns", Value::kUnsigned},
    {"gpu-reset-ns", Value::kUnsigned},
    // Thrashing detection.
    {"thrash-detect", Value::kNone},
    {"thrash-mitigation", Value::kText},
    {"thrash-threshold", Value::kUnsigned},
    {"thrash-lapse-ns", Value::kUnsigned},
    // Access counters.
    {"access-counters", Value::kOptional},
    {"ctr-buffer", Value::kUnsigned},
    {"ctr-batch", Value::kUnsigned},
    {"ctr-migrate-advised", Value::kNone},
    {"ctr-evict", Value::kNone},
    // Multi-tenant server.
    {"tenants", Value::kUnsigned},
    {"tenant-weights", Value::kText},
    {"tenant-sched", Value::kText},
    {"drr-quantum", Value::kUnsigned},
    {"tenant-quota-mb", Value::kUnsigned},
    {"tenant-max-batches", Value::kUnsigned},
    {"tenant-mix", Value::kText},
    {"tenant-kb", Value::kUnsigned},
    {"tenant-table", Value::kNone},
    {"tenant-log", Value::kText},
    {"check-fairness", Value::kText},
    // Multi-GPU topology.
    {"gpus", Value::kUnsigned},
    {"topology", Value::kText},
    {"placement", Value::kText},
    {"private-kb", Value::kUnsigned},
    {"shared-kb", Value::kUnsigned},
    {"passes", Value::kUnsigned},
    // analyze.
    {"phases", Value::kNone, kAnalyze},
    {"json", Value::kNone, kAnalyze},
};

struct Args {
  std::map<std::string, std::string> named;
  bool flag(const std::string& name) const { return named.contains(name); }
  std::string get(const std::string& name, std::string fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : it->second;
  }
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : parse_u64(name, it->second);
  }
  double get_f64(const std::string& name, double fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : parse_f64(name, it->second);
  }
};

/// Parse argv[first..] as `--flag [value]` pairs for `command`, checking
/// each flag against kFlags and each value against the flag's kind.
/// Throws UsageError on an unknown flag, a stray argument, a missing or
/// unexpected value, or a malformed number.
Args parse_args(int argc, char** argv, int first, Command command) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument '" + token + "'");
    }
    const std::string name = token.substr(2);
    const auto* spec = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const FlagSpec& f) {
          return f.name == name && (f.commands & command) != 0;
        });
    if (spec == std::end(kFlags)) {
      throw UsageError("unknown flag '" + token + "'");
    }
    const bool has_value =
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    if (!has_value) {
      if (spec->value != Value::kNone && spec->value != Value::kOptional) {
        throw UsageError(token + " wants a value");
      }
      args.named.insert_or_assign(name, std::string("1"));
      continue;
    }
    const std::string value = argv[++i];
    switch (spec->value) {
      case Value::kNone:
        throw UsageError(token + " takes no value (got '" + value + "')");
      case Value::kUnsigned: parse_u64(name, value); break;
      case Value::kNumber: parse_f64(name, value); break;
      case Value::kOptional:
      case Value::kText: break;
    }
    args.named[name] = value;
  }
  return args;
}

std::optional<WorkloadSpec> build_workload(const Args& args) {
  const std::string name = args.get("workload", "stream");
  const std::uint64_t elements = args.get_u64("elements", 1 << 18);
  if (name == "stream") {
    return make_stream_triad(elements,
                             static_cast<std::uint32_t>(
                                 args.get_u64("iterations", 1)));
  }
  if (name == "vecadd") return make_vecadd_coalesced(elements);
  if (name == "vecadd-paged") return make_vecadd_paged();
  if (name == "vecadd-prefetch") return make_vecadd_prefetch(128);
  if (name == "regular") {
    return make_regular(args.get_u64("bytes", 96ULL << 20));
  }
  if (name == "random") {
    return make_random(args.get_u64("bytes", 192ULL << 20),
                       args.get_u64("seed", 0x5eed));
  }
  if (name == "sgemm" || name == "dgemm") {
    GemmParams p;
    p.n = static_cast<std::uint32_t>(args.get_u64("n", 1024));
    p.double_precision = name == "dgemm";
    p.host_init_threads =
        static_cast<std::uint32_t>(args.get_u64("host-threads", 1));
    return make_gemm(p);
  }
  if (name == "fft") return make_fft(elements);
  if (name == "gauss-seidel") {
    GaussSeidelParams p;
    p.nx = static_cast<std::uint32_t>(args.get_u64("nx", 2048));
    p.ny = static_cast<std::uint32_t>(args.get_u64("ny", 1024));
    p.sweeps = static_cast<std::uint32_t>(args.get_u64("sweeps", 2));
    return make_gauss_seidel(p);
  }
  if (name == "hpgmg") {
    HpgmgParams p;
    p.fine_elements_log2 =
        static_cast<std::uint32_t>(args.get_u64("fine-log2", 20));
    p.vcycles = static_cast<std::uint32_t>(args.get_u64("vcycles", 1));
    p.host_threads =
        static_cast<std::uint32_t>(args.get_u64("host-threads", 32));
    return make_hpgmg(p);
  }
  return std::nullopt;
}

void print_engine_stats(const EventEngine::Stats& es) {
  std::printf("engine: events=%llu posted=%llu idle_skipped_ms=%.3f "
              "max_queue=%zu\n",
              static_cast<unsigned long long>(es.executed),
              static_cast<unsigned long long>(es.posted),
              es.idle_ns_skipped / 1e6, es.max_queue_depth);
}

int cmd_list() {
  std::printf("workloads: stream vecadd vecadd-paged vecadd-prefetch "
              "regular random sgemm dgemm fft gauss-seidel hpgmg\n");
  std::printf("run flags: --workload X --elements N --bytes N --n N "
              "--nx/--ny N --sweeps N --vcycles N --fine-log2 N "
              "--host-threads N --iterations N --seed N\n");
  std::printf("config flags: --gpu-mb N --batch-size N --no-prefetch "
              "--no-promotion --no-flush --fifo-evict --adaptive-batch "
              "--async-host-ops --pin-host --log FILE\n");
  std::printf("observability: --trace [FILE] (Chrome trace JSON, "
              "Perfetto-loadable; under --gpus the shared driver's trace; "
              "under --tenants only bare, as each client has its own) "
              "--metrics FILE (snapshot JSON read from the run's books "
              "after it ends, every node shape); `trace` subcommand = run + "
              "--trace, --out FILE\n");
  std::printf("driver parallelism (paper §6): --service-policy "
              "serial|vablock|sm --service-workers K\n");
  std::printf("event engine: --engine-stats (prints event counters)\n");
  std::printf("fault injection: --inject --inject-seed N "
              "--inject-transfer-err P --inject-dma-err P "
              "--inject-irq-delay-prob P --inject-irq-delay-ns N "
              "--inject-irq-loss P --inject-storm-prob P "
              "--inject-storm-faults N\n");
  std::printf("retry policy: --retry-max N --retry-backoff-ns N "
              "--retry-backoff-cap-ns N --fail-on-abort (exit 4 if any "
              "service was abandoned on retry exhaustion)\n");
  std::printf("fatal faults + recovery ladder: --inject-fatal "
              "(arms recovery) --inject-ecc P --inject-poison P "
              "--inject-ce-fail P --inject-wedge P --wedge-gpu-frac F "
              "--recovery-pool N --watchdog-stuck N --channel-reset-ns N "
              "--gpu-reset-ns N\n");
  std::printf("thrashing: --thrash-detect --thrash-mitigation "
              "none|pin|throttle --thrash-threshold N --thrash-lapse-ns N\n");
  std::printf("access counters: --access-counters [G,T] (granularity pages, "
              "notification threshold) --ctr-buffer N --ctr-batch N "
              "--ctr-migrate-advised --ctr-evict --inject-counter-loss P\n");
  std::printf("multi-tenant server: --tenants N --tenant-weights 1,2,4 "
              "--tenant-sched fcfs|drr|stride --drr-quantum N "
              "--tenant-quota-mb Q --tenant-max-batches M "
              "--tenant-mix mixed|uniform --tenant-kb N --tenant-table "
              "--tenant-log FILE (fairness ledger; feed to analyze) "
              "--check-fairness ERR%%,JAIN (exit 5 on violation)\n");
  std::printf("multi-GPU topology: --gpus N --topology "
              "pcie|nvlink-ring|nvlink-all --placement peer|host "
              "--private-kb N --shared-kb N --passes N (peer-share "
              "workload; prints per-link utilization; incompatible with "
              "--tenants; --topology/--placement require --gpus)\n");
  std::printf("analyze: --phases (per-phase distribution) --json "
              "(machine-readable summary incl. counter_stats and "
              "recovery_stats; tenant logs yield tenant_stats with "
              "Jain's index)\n");
  return 0;
}

/// A --trace value names the output file; a bare --trace records the
/// trace without writing one (overhead checks).
std::string trace_path(const Args& args) {
  const std::string value = args.get("trace", "");
  return value == "1" ? "" : value;
}

/// Open `path` for writing into `out`; false, after a one-line message,
/// when it cannot be opened.
bool open_output(const std::string& path, std::ofstream& out) {
  out.open(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  return true;
}

/// Write the run's output files, each only when its flag names one: --log
/// (every run's batch log, concatenated in order), --trace (`tracer`; null
/// when the node shape keeps no single trace) and --metrics (the snapshot
/// `metrics()` returns). 3 when a path cannot be opened.
template <typename Snapshot>
int write_run_outputs(const Args& args, std::span<const RunResult> runs,
                      const Tracer* tracer, Snapshot metrics) {
  if (const std::string path = args.get("log", ""); !path.empty()) {
    std::ofstream out;
    if (!open_output(path, out)) return 3;
    std::size_t records = 0;
    for (const RunResult& run : runs) {
      write_batch_log(out, run.log);
      records += run.log.size();
    }
    std::printf("batch log written to %s (%zu records)\n", path.c_str(),
                records);
  }
  if (const std::string path = trace_path(args); tracer && !path.empty()) {
    std::ofstream out;
    if (!open_output(path, out)) return 3;
    write_trace_json(out, *tracer);
    std::printf("trace written to %s (%zu events)\n", path.c_str(),
                tracer->size());
  }
  if (const std::string path = args.get("metrics", ""); !path.empty()) {
    std::ofstream out;
    if (!open_output(path, out)) return 3;
    const MetricsRegistry snapshot = metrics();
    write_metrics_json(out, snapshot);
    std::printf("metrics written to %s (%zu counters)\n", path.c_str(),
                snapshot.counters.size());
  }
  return 0;
}

/// The rows every node shape prints after its headline: robustness,
/// thrashing and recovery activity (each only when there is some), the
/// event-engine counters under --engine-stats, and the access-counter row
/// when counters are on. Each row sums over the run's drivers: their batch
/// logs plus the RunResult fields the log does not hold. Returns the run's
/// service aborts, for fail_on_abort.
std::uint64_t print_run_rows(const Args& args, const SystemConfig& cfg,
                             std::span<const RunResult> runs,
                             const EventEngine::Stats& engine) {
  BatchTotals logged;
  for (const RunResult& run : runs) {
    for (const BatchRecord& rec : run.log) logged.add(rec);
  }
  const auto sum = [&](std::uint64_t RunResult::*field) {
    unsigned long long total = 0;
    for (const RunResult& run : runs) total += run.*field;
    return total;
  };
  const auto llu = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };

  if (sum(&RunResult::injected_transfer_errors) ||
      sum(&RunResult::injected_dma_errors) ||
      sum(&RunResult::interrupts_delayed) ||
      sum(&RunResult::interrupts_lost) ||
      sum(&RunResult::injected_storm_faults) ||
      sum(&RunResult::faults_dropped_full) || logged.service_aborts) {
    std::printf("robustness: xfer_err=%llu (retries=%llu) dma_err=%llu "
                "(retries=%llu) aborts=%llu irq_delayed=%llu irq_lost=%llu "
                "storm_faults=%llu buf_dropped=%llu flushed=%llu\n",
                sum(&RunResult::injected_transfer_errors),
                llu(logged.transfer_retries),
                sum(&RunResult::injected_dma_errors),
                llu(logged.dma_map_retries), llu(logged.service_aborts),
                sum(&RunResult::interrupts_delayed),
                sum(&RunResult::interrupts_lost),
                sum(&RunResult::injected_storm_faults),
                sum(&RunResult::faults_dropped_full),
                sum(&RunResult::faults_flushed));
  }
  if (logged.thrash_pins || logged.thrash_throttles) {
    std::printf("thrashing: pins=%llu throttles=%llu\n",
                llu(logged.thrash_pins), llu(logged.thrash_throttles));
  }
  if (sum(&RunResult::injected_ecc_faults) ||
      sum(&RunResult::injected_poison_faults) ||
      sum(&RunResult::injected_ce_failures) ||
      sum(&RunResult::injected_wedges) || logged.gpu_resets ||
      logged.channel_resets) {
    std::printf("recovery: ecc=%llu poison=%llu ce_fail=%llu wedges=%llu "
                "cancelled=%llu pages_retired=%llu chunks_retired=%llu "
                "channel_resets=%llu gpu_resets=%llu stuck_wakeups=%llu\n",
                sum(&RunResult::injected_ecc_faults),
                sum(&RunResult::injected_poison_faults),
                sum(&RunResult::injected_ce_failures),
                sum(&RunResult::injected_wedges),
                llu(logged.faults_cancelled), llu(logged.pages_retired),
                llu(logged.chunks_retired), llu(logged.channel_resets),
                llu(logged.gpu_resets),
                sum(&RunResult::watchdog_stuck_wakeups));
  }
  if (args.flag("engine-stats")) print_engine_stats(engine);
  if (cfg.driver.access_counters.enabled) {
    std::printf("counters: notif=%llu serviced=%llu dropped=%llu lost=%llu "
                "promoted=%llu unpins=%llu evictions=%llu\n",
                sum(&RunResult::counter_notifications),
                llu(logged.ctr_notifications),
                sum(&RunResult::counter_notifications_dropped),
                sum(&RunResult::counter_notifications_lost),
                llu(logged.ctr_pages_promoted), llu(logged.ctr_unpins),
                llu(logged.ctr_evictions));
  }
  return logged.service_aborts;
}

/// --fail-on-abort turns abandoned block services (retry budgets exhausted
/// with no recovery path taken) into exit 4, so CI harnesses can gate on
/// them; otherwise 0.
int fail_on_abort(const Args& args, std::uint64_t aborts) {
  if (!args.flag("fail-on-abort") || aborts == 0) return 0;
  std::fprintf(stderr,
               "fail-on-abort: %llu block services abandoned after retry "
               "exhaustion\n",
               static_cast<unsigned long long>(aborts));
  return 4;
}

/// `run --tenants N ...`: the multi-tenant server path. Consumes the same
/// config flags as a single run, builds an N-workload roster, and services
/// it through MultiClientSystem under the requested arbitration policy.
int run_tenants(const Args& args, SystemConfig cfg) {
  const auto n = static_cast<std::uint32_t>(args.get_u64("tenants", 2));
  if (n == 0) {
    std::fprintf(stderr, "--tenants wants at least 1 client\n");
    return 2;
  }
  if (!trace_path(args).empty()) {
    std::fprintf(stderr,
                 "--trace FILE under --tenants: each client records its own "
                 "trace (one timeline per client), so there is no single "
                 "file to write; a bare --trace records the per-client "
                 "traces\n");
    return 2;
  }

  TenantSchedConfig sched;
  if (const std::string policy = args.get("tenant-sched", "fcfs");
      policy == "drr") {
    sched.policy = TenantSchedPolicy::kDeficitRoundRobin;
  } else if (policy == "stride") {
    sched.policy = TenantSchedPolicy::kStride;
  } else if (policy != "fcfs") {
    std::fprintf(stderr, "unknown --tenant-sched '%s' (fcfs|drr|stride)\n",
                 policy.c_str());
    return 2;
  }
  sched.drr_quantum_faults =
      args.get_u64("drr-quantum", sched.drr_quantum_faults);

  // --tenant-weights 1,2,4 cycles over the roster; default uniform.
  std::vector<double> weight_cycle;
  if (std::string weights = args.get("tenant-weights", ""); !weights.empty()) {
    while (!weights.empty()) {
      const std::size_t comma = weights.find(',');
      weight_cycle.push_back(
          parse_f64("tenant-weights", weights.substr(0, comma)));
      if (comma == std::string::npos) break;
      weights.erase(0, comma + 1);
    }
  }
  const std::uint64_t quota_pages =
      args.get_u64("tenant-quota-mb", 0) * (1ULL << 20) / kPageSize;
  const auto max_batches =
      static_cast<std::uint32_t>(args.get_u64("tenant-max-batches", 0));
  auto tenants = make_tenant_matrix(n, weight_cycle, quota_pages, max_batches);

  TenantMix mix = TenantMix::kMixed;
  if (const std::string mix_arg = args.get("tenant-mix", "mixed");
      mix_arg == "uniform") {
    mix = TenantMix::kUniform;
  } else if (mix_arg != "mixed") {
    std::fprintf(stderr, "unknown --tenant-mix '%s' (mixed|uniform)\n",
                 mix_arg.c_str());
    return 2;
  }
  const auto roster = make_tenant_roster(n, mix, cfg.seed,
                                         args.get_u64("tenant-kb", 256));

  // --check-fairness MAXERR[%][,MINJAIN], parsed before the run.
  std::optional<std::pair<double, double>> check_fairness;
  if (const std::string check = args.get("check-fairness", "");
      !check.empty()) {
    const std::size_t comma = check.find(',');
    std::string max_err = check.substr(0, comma);
    if (!max_err.empty() && max_err.back() == '%') max_err.pop_back();
    check_fairness.emplace(
        parse_f64("check-fairness", max_err),
        comma == std::string::npos
            ? 0.0
            : parse_f64("check-fairness", check.substr(comma + 1)));
  }

  MultiClientSystem system(cfg, std::move(tenants), sched);
  const MultiClientResult result = system.run(roster);
  const TenantReport report = build_tenant_report(result.per_tenant);

  std::printf("tenants=%u sched=%s makespan_ms=%.3f batches=%llu "
              "worker_busy_ms=%.3f jain=%.4f max_share_err=%.2f%% "
              "mean_wait_us=%.2f max_wait_us=%.2f\n",
              n, args.get("tenant-sched", "fcfs").c_str(),
              result.makespan_ns / 1e6,
              static_cast<unsigned long long>(result.batches_serviced),
              result.worker_busy_ns / 1e6, report.jain_index,
              report.max_abs_share_error * 100.0,
              report.mean_wait_ns / 1e3, report.max_wait_ns / 1e3);
  if (args.flag("tenant-table")) {
    std::printf("%s", tenant_report_table(report).c_str());
  }
  const std::uint64_t aborts =
      print_run_rows(args, cfg, result.per_client, system.engine_stats());

  if (const std::string path = args.get("tenant-log", ""); !path.empty()) {
    std::ofstream out;
    if (!open_output(path, out)) return 3;
    write_tenant_log(out, result.per_tenant);
    std::printf("tenant log written to %s (%zu tenants)\n", path.c_str(),
                result.per_tenant.size());
  }
  // The log concatenates the per-client batch logs in client order: a
  // byte-stable image of every batch the shared worker serviced.
  if (const int rc = write_run_outputs(args, result.per_client, nullptr,
                                       [&] { return system.metrics(); })) {
    return rc;
  }
  // --check-fairness MAXERR%,MINJAIN: gate for CI — exit 5 when the
  // in-window shares drift past MAXERR percent of the weight targets or
  // Jain's index drops below MINJAIN.
  if (check_fairness) {
    const auto [max_err_pct, min_jain] = *check_fairness;
    if (report.max_abs_share_error * 100.0 > max_err_pct ||
        report.jain_index < min_jain) {
      std::fprintf(stderr,
                   "fairness check FAILED: max_share_err=%.2f%% (limit "
                   "%.2f%%) jain=%.4f (floor %.4f)\n",
                   report.max_abs_share_error * 100.0, max_err_pct,
                   report.jain_index, min_jain);
      return 5;
    }
    std::printf("fairness check ok: max_share_err=%.2f%% <= %.2f%%, "
                "jain=%.4f >= %.4f\n",
                report.max_abs_share_error * 100.0, max_err_pct,
                report.jain_index, min_jain);
  }
  return fail_on_abort(args, aborts);
}

/// `run --gpus N ...`: the multi-GPU topology path. One driver, N GPU
/// engines over the configured interconnect, peer-share workload.
int run_multi_gpu(const Args& args, SystemConfig cfg) {
  const auto n = static_cast<std::uint32_t>(args.get_u64("gpus", 2));
  if (n == 0) {
    std::fprintf(stderr, "--gpus wants at least 1 GPU\n");
    return 2;
  }
  TopologyKind kind = TopologyKind::kPcieOnly;
  const std::string topo = args.get("topology", "pcie");
  if (topo == "nvlink-ring") {
    kind = TopologyKind::kNvlinkRing;
  } else if (topo == "nvlink-all") {
    kind = TopologyKind::kNvlinkAll;
  } else if (topo != "pcie") {
    std::fprintf(stderr, "unknown --topology '%s' "
                 "(pcie|nvlink-ring|nvlink-all)\n", topo.c_str());
    return 2;
  }
  if (kind != TopologyKind::kPcieOnly && n < 2) {
    std::fprintf(stderr,
                 "--topology %s needs --gpus >= 2 (no peers to link)\n",
                 topo.c_str());
    return 2;
  }
  PlacementPolicy placement = PlacementPolicy::kPeerFirst;
  if (const std::string p = args.get("placement", "peer"); p == "host") {
    placement = PlacementPolicy::kEvictHost;
  } else if (p != "peer") {
    std::fprintf(stderr, "unknown --placement '%s' (peer|host)\n", p.c_str());
    return 2;
  }
  cfg.driver.multi_gpu.num_gpus = n;
  cfg.driver.multi_gpu.topology = kind;
  cfg.driver.multi_gpu.placement = placement;

  PeerShareParams params;
  params.num_gpus = n;
  params.private_kb_per_gpu = args.get_u64("private-kb", 512);
  params.shared_kb = args.get_u64("shared-kb", 256);
  params.sweeps = static_cast<std::uint32_t>(args.get_u64("passes", 1));

  MultiGpuSystem system(cfg);
  const MultiGpuResult result = system.run(make_peer_share(params));
  const RunResult& agg = result.aggregate;
  const BatchTotals logged = totals(agg.log);

  std::printf("gpus=%u topology=%s placement=%s makespan_ms=%.3f "
              "batches=%zu faults=%llu evictions=%llu h2d_mb=%.1f "
              "d2h_mb=%.1f peer_mb=%.1f peer_migrated=%llu peer_maps=%llu "
              "peer_placements=%llu\n",
              n, topo.c_str(), args.get("placement", "peer").c_str(),
              result.makespan_ns / 1e6, agg.log.size(),
              static_cast<unsigned long long>(agg.total_faults),
              static_cast<unsigned long long>(agg.evictions),
              static_cast<double>(agg.bytes_h2d) / (1 << 20),
              static_cast<double>(agg.bytes_d2h) / (1 << 20),
              static_cast<double>(logged.bytes_peer) / (1 << 20),
              static_cast<unsigned long long>(logged.peer_pages_migrated),
              static_cast<unsigned long long>(logged.peer_maps),
              static_cast<unsigned long long>(logged.peer_placements));
  for (std::uint32_t g = 0; g < n; ++g) {
    std::printf("  gpu%u kernel_ms=%.3f\n", g,
                result.per_gpu_kernel_ns[g] / 1e6);
  }
  std::printf("%-24s %8s %10s %8s %12s %6s\n", "link", "kind", "mb", "ops",
              "busy_ms", "util%");
  for (const auto& link : result.links) {
    std::printf("%-24s %8s %10.1f %8llu %12.3f %6.1f\n", link.name.c_str(),
                link.kind == LinkKind::kNvlink ? "nvlink" : "pcie",
                static_cast<double>(link.bytes) / (1 << 20),
                static_cast<unsigned long long>(link.ops),
                link.busy_ns / 1e6, link.utilization * 100.0);
  }
  const std::uint64_t aborts =
      print_run_rows(args, cfg, std::span(&agg, 1), system.engine_stats());
  if (const int rc = write_run_outputs(args, std::span(&agg, 1),
                                       &system.tracer(),
                                       [&] { return system.metrics(); })) {
    return rc;
  }
  return fail_on_abort(args, aborts);
}

int cmd_run(const Args& args) {
  auto spec = build_workload(args);
  if (!spec) {
    std::fprintf(stderr, "unknown workload; try `uvmsim_cli list`\n");
    return 2;
  }
  SystemConfig cfg = presets::scaled_titan_v(args.get_u64("gpu-mb", 512));
  cfg.driver.batch_size =
      static_cast<std::uint32_t>(args.get_u64("batch-size", 256));
  if (args.flag("no-prefetch")) cfg.driver.prefetch_enabled = false;
  if (args.flag("no-promotion")) cfg.driver.big_page_promotion = false;
  if (args.flag("no-flush")) cfg.driver.flush_on_replay = false;
  if (args.flag("fifo-evict")) cfg.driver.evict_policy = EvictPolicy::kFifo;
  if (args.flag("adaptive-batch")) cfg.driver.adaptive_batch_size = true;
  if (args.flag("async-host-ops")) cfg.driver.async_host_ops = true;
  if (const std::string policy = args.get("service-policy", "serial");
      policy == "vablock") {
    cfg.driver.parallelism.policy = ServicingPolicy::kPerVaBlock;
  } else if (policy == "sm") {
    cfg.driver.parallelism.policy = ServicingPolicy::kPerSm;
  } else if (policy != "serial") {
    std::fprintf(stderr, "unknown --service-policy '%s' "
                 "(serial|vablock|sm)\n", policy.c_str());
    return 2;
  }
  cfg.driver.parallelism.workers =
      static_cast<std::uint32_t>(args.get_u64("service-workers", 1));
  cfg.seed = args.get_u64("seed", cfg.seed);

  // A bare --trace records without writing a file (overhead checks); a
  // value is the output path.
  cfg.obs.trace = !args.get("trace", "").empty();

  if (args.flag("inject")) {
    auto& inj = cfg.driver.inject;
    inj.enabled = true;
    inj.seed = args.get_u64("inject-seed", inj.seed);
    inj.transfer_error_prob = args.get_f64("inject-transfer-err", 0.0);
    inj.dma_map_error_prob = args.get_f64("inject-dma-err", 0.0);
    inj.interrupt_delay_prob = args.get_f64("inject-irq-delay-prob", 0.0);
    inj.interrupt_delay_ns =
        args.get_u64("inject-irq-delay-ns", inj.interrupt_delay_ns);
    inj.interrupt_loss_prob = args.get_f64("inject-irq-loss", 0.0);
    inj.storm_prob = args.get_f64("inject-storm-prob", 0.0);
    inj.storm_faults = static_cast<std::uint32_t>(
        args.get_u64("inject-storm-faults", inj.storm_faults));
    inj.counter_loss_prob = args.get_f64("inject-counter-loss", 0.0);
  }
  // --inject-fatal arms both the fatal injection sites and the recovery
  // ladder that contains them (fatal faults without recovery would wedge
  // the run, so the two come as a pair).
  if (args.flag("inject-fatal")) {
    auto& inj = cfg.driver.inject;
    inj.enabled = true;
    inj.seed = args.get_u64("inject-seed", inj.seed);
    inj.ecc_double_bit_prob = args.get_f64("inject-ecc", 0.0);
    inj.poison_prob = args.get_f64("inject-poison", 0.0);
    inj.ce_permanent_prob = args.get_f64("inject-ce-fail", 0.0);
    inj.wedge_prob = args.get_f64("inject-wedge", 0.0);
    inj.wedge_gpu_reset_frac =
        args.get_f64("wedge-gpu-frac", inj.wedge_gpu_reset_frac);
    auto& rec = cfg.driver.recovery;
    rec.enabled = true;
    rec.retired_page_pool = static_cast<std::uint32_t>(
        args.get_u64("recovery-pool", rec.retired_page_pool));
    rec.watchdog_stuck_wakeups = static_cast<std::uint32_t>(
        args.get_u64("watchdog-stuck", rec.watchdog_stuck_wakeups));
    rec.channel_reset_ns =
        args.get_u64("channel-reset-ns", rec.channel_reset_ns);
    rec.gpu_reset_ns = args.get_u64("gpu-reset-ns", rec.gpu_reset_ns);
  }
  cfg.driver.retry.max_attempts =
      static_cast<std::uint32_t>(args.get_u64("retry-max",
                                              cfg.driver.retry.max_attempts));
  cfg.driver.retry.backoff_base_ns =
      args.get_u64("retry-backoff-ns", cfg.driver.retry.backoff_base_ns);
  cfg.driver.retry.backoff_cap_ns =
      args.get_u64("retry-backoff-cap-ns", cfg.driver.retry.backoff_cap_ns);
  if (args.flag("thrash-detect")) {
    auto& th = cfg.driver.thrash;
    th.enabled = true;
    if (const std::string mit = args.get("thrash-mitigation", "pin");
        mit == "none") {
      th.mitigation = ThrashMitigation::kNone;
    } else if (mit == "pin") {
      th.mitigation = ThrashMitigation::kPin;
    } else if (mit == "throttle") {
      th.mitigation = ThrashMitigation::kThrottle;
    } else {
      std::fprintf(stderr, "unknown --thrash-mitigation '%s' "
                   "(none|pin|throttle)\n", mit.c_str());
      return 2;
    }
    th.threshold = static_cast<std::uint32_t>(
        args.get_u64("thrash-threshold", th.threshold));
    th.lapse_ns = args.get_u64("thrash-lapse-ns", th.lapse_ns);
  }
  // A bare --access-counters keeps the register defaults; a value is a
  // "granularity,threshold" pair (e.g. --access-counters 16,256).
  if (args.flag("access-counters")) {
    auto& ac = cfg.driver.access_counters;
    ac.enabled = true;
    if (const std::string regs = args.get("access-counters", "1");
        regs != "1") {
      const auto comma = regs.find(',');
      if (comma == std::string::npos) {
        std::fprintf(stderr, "--access-counters wants GRANULARITY,THRESHOLD "
                     "(e.g. 16,256)\n");
        return 2;
      }
      ac.granularity_pages = static_cast<std::uint32_t>(
          parse_u64("access-counters", regs.substr(0, comma)));
      ac.threshold = static_cast<std::uint32_t>(
          parse_u64("access-counters", regs.substr(comma + 1)));
    }
    ac.buffer_entries = static_cast<std::uint32_t>(
        args.get_u64("ctr-buffer", ac.buffer_entries));
    ac.batch_size = static_cast<std::uint32_t>(
        args.get_u64("ctr-batch", ac.batch_size));
    if (args.flag("ctr-migrate-advised")) ac.migrate_advised = true;
    if (args.flag("ctr-evict")) ac.evict_for_promotion = true;
  }
  if (args.flag("pin-host")) {
    for (auto& alloc : spec->allocs) {
      alloc.advise = MemAdvise::kPreferredLocationHost;
    }
  }

  // Multi-GPU topology mode (--gpus): validate flag combinations up
  // front so inconsistent invocations fail loudly instead of silently
  // running something else.
  if (args.flag("topology") && !args.flag("gpus")) {
    std::fprintf(stderr, "--topology requires --gpus N\n");
    return 2;
  }
  if (args.flag("placement") && !args.flag("gpus")) {
    std::fprintf(stderr, "--placement requires --gpus N\n");
    return 2;
  }
  if (args.flag("gpus") && args.flag("tenants")) {
    std::fprintf(stderr,
                 "--gpus and --tenants are mutually exclusive (one multi-GPU "
                 "node vs many single-GPU tenants)\n");
    return 2;
  }
  if (args.flag("gpus")) return run_multi_gpu(args, cfg);

  // Multi-tenant server mode: same config flags, N-workload roster,
  // MultiClientSystem instead of System.
  if (args.flag("tenants")) return run_tenants(args, cfg);

  System system(cfg);
  const RunResult result = system.run(*spec);

  std::printf("workload=%s kernel_ms=%.3f batch_ms=%.3f batches=%zu "
              "faults=%llu dups=%llu remote=%llu evictions=%llu "
              "h2d_mb=%.1f d2h_mb=%.1f\n",
              spec->name.c_str(), result.kernel_time_ns / 1e6,
              result.batch_time_ns / 1e6, result.log.size(),
              static_cast<unsigned long long>(result.total_faults),
              static_cast<unsigned long long>(result.duplicate_emissions),
              static_cast<unsigned long long>(result.remote_accesses),
              static_cast<unsigned long long>(result.evictions),
              static_cast<double>(result.bytes_h2d) / (1 << 20),
              static_cast<double>(result.bytes_d2h) / (1 << 20));
  const std::uint64_t aborts = print_run_rows(
      args, cfg, std::span(&result, 1), system.engine_stats());
  if (const int rc = write_run_outputs(args, std::span(&result, 1),
                                       &system.tracer(),
                                       [&] { return system.metrics(); })) {
    return rc;
  }
  return fail_on_abort(args, aborts);
}

/// `trace WORKLOAD-FLAGS --out FILE`: a run with tracing on, defaulting
/// the trace path so the common case is one flag shorter.
int cmd_trace(Args args) {
  args.named["trace"] = args.get("out", "trace.json");
  args.named.erase("out");
  return cmd_run(args);
}

/// Analyze a "#uvmsim-tenant-log v1" file: fairness table or --json
/// tenant_stats.
int analyze_tenant_log(std::ifstream& in, const std::string& path,
                       const Args& args) {
  TenantParseResult parsed;
  if (!read_tenant_log(in, parsed) || parsed.stats.empty()) {
    std::fprintf(stderr, "no parsable tenant records in %s\n", path.c_str());
    return 2;
  }
  if (parsed.skipped_lines > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed lines\n",
                 parsed.skipped_lines);
  }
  const TenantReport report = build_tenant_report(parsed.stats);
  if (args.flag("json")) {
    std::printf("{\"tenant_stats\":%s}\n",
                [&] {
                  std::string body = tenant_report_json(report);
                  if (!body.empty() && body.back() == '\n') body.pop_back();
                  return body;
                }()
                    .c_str());
    return 0;
  }
  std::printf("%s", tenant_report_table(report).c_str());
  return 0;
}

int cmd_analyze(const std::string& path, const Args& args) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  // Sniff the first line: tenant logs carry a version header, batch logs
  // start straight with "batch ..." records.
  {
    std::string first_line;
    if (std::getline(in, first_line) && is_tenant_log_header(first_line)) {
      in.seekg(0);
      return analyze_tenant_log(in, path, args);
    }
    in.clear();
    in.seekg(0);
  }
  const auto parsed = read_batch_log(in);
  if (parsed.log.empty()) {
    std::fprintf(stderr, "no parsable batch records in %s\n", path.c_str());
    return 2;
  }
  if (parsed.skipped_lines > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed lines\n",
                 parsed.skipped_lines);
  }

  const auto& log = parsed.log;
  const BatchTotals t = totals(log);
  // Under parallel or async servicing the phases overlap, so their sum
  // (the servicing work) exceeds the time the batches took; the share
  // rows stay fractions of the work.
  const SimTime work_ns = t.phase_sum();
  const auto sm = sm_stats(log, 80);
  const auto vab = vablock_stats(log);
  const auto fit = cost_vs_migration_fit(log);

  if (args.flag("json")) {
    // Machine-readable summary; counter_stats mirrors the table block.
    std::printf("{\n");
    std::printf("  \"batches\": %zu,\n", log.size());
    std::printf("  \"raw_faults\": %llu,\n",
                static_cast<unsigned long long>(t.raw_faults));
    std::printf("  \"unique_faults\": %llu,\n",
                static_cast<unsigned long long>(t.unique_faults));
    std::printf("  \"batch_time_ns\": %llu,\n",
                static_cast<unsigned long long>(t.batch_time_ns));
    std::printf("  \"robustness\": {\"transfer_errors\": %llu, "
                "\"transfer_retries\": %llu, \"dma_map_retries\": %llu, "
                "\"service_aborts\": %llu, "
                "\"thrash_pins\": %llu, \"buffer_dropped\": %llu},\n",
                static_cast<unsigned long long>(t.transfer_errors),
                static_cast<unsigned long long>(t.transfer_retries),
                static_cast<unsigned long long>(t.dma_map_retries),
                static_cast<unsigned long long>(t.service_aborts),
                static_cast<unsigned long long>(t.thrash_pins),
                static_cast<unsigned long long>(t.buffer_dropped));
    std::printf("  \"recovery_stats\": {\"faults_cancelled\": %llu, "
                "\"pages_retired\": %llu, \"chunks_retired\": %llu, "
                "\"channel_resets\": %llu, \"gpu_resets\": %llu, "
                "\"recovery_ns\": %llu},\n",
                static_cast<unsigned long long>(t.faults_cancelled),
                static_cast<unsigned long long>(t.pages_retired),
                static_cast<unsigned long long>(t.chunks_retired),
                static_cast<unsigned long long>(t.channel_resets),
                static_cast<unsigned long long>(t.gpu_resets),
                static_cast<unsigned long long>(t.recovery_ns));
    std::printf("  \"counter_stats\": {\"notifications\": %llu, "
                "\"dropped\": %llu, \"pages_promoted\": %llu, "
                "\"unpins\": %llu, \"evictions\": %llu, "
                "\"counter_ns\": %llu}\n",
                static_cast<unsigned long long>(t.ctr_notifications),
                static_cast<unsigned long long>(t.ctr_dropped),
                static_cast<unsigned long long>(t.ctr_pages_promoted),
                static_cast<unsigned long long>(t.ctr_unpins),
                static_cast<unsigned long long>(t.ctr_evictions),
                static_cast<unsigned long long>(t.counter_ns));
    std::printf("}\n");
    return 0;
  }

  TablePrinter table({"metric", "value"});
  table.add_row({"batches", std::to_string(log.size())});
  table.add_row({"raw faults", std::to_string(t.raw_faults)});
  table.add_row({"unique faults", std::to_string(t.unique_faults)});
  table.add_row({"dup rate",
                 t.raw_faults
                     ? fmt_pct(1.0 - static_cast<double>(t.unique_faults) /
                                         static_cast<double>(t.raw_faults))
                     : "0%"});
  table.add_row({"faults/SM per batch (avg)", fmt(sm.avg, 2)});
  table.add_row({"VABlocks per batch (avg)", fmt(vab.vablocks_per_batch, 2)});
  table.add_row({"cost fit (us per KB)", fmt(fit.slope, 3)});
  const auto share = [&](SimTime ns) {
    return fmt_pct(work_ns ? static_cast<double>(ns) /
                                 static_cast<double>(work_ns)
                           : 0);
  };
  table.add_row({"total batch time (ms)",
                 fmt(static_cast<double>(t.batch_time_ns) / 1e6, 3)});
  if (work_ns != t.batch_time_ns) {
    table.add_row({"servicing work (ms)",
                   fmt(static_cast<double>(work_ns) / 1e6, 3)});
  }
  table.add_row({"  transfer share", share(t.transfer_ns)});
  table.add_row({"  unmap share", share(t.unmap_ns)});
  table.add_row({"  dma/radix share", share(t.dma_map_ns)});
  table.add_row({"  eviction share", share(t.eviction_ns)});
  for (const unsigned workers : {4u, 8u}) {
    const auto est = estimate_vablock_parallel(log, workers);
    table.add_row({"VABlock-parallel speedup (" + std::to_string(workers) +
                       " workers)",
                   fmt(est.speedup, 2) + "x"});
    const auto sm = estimate_per_sm_parallel(log, workers);
    table.add_row({"per-SM-parallel speedup (" + std::to_string(workers) +
                       " workers)",
                   fmt(sm.speedup, 2) + "x"});
  }
  if (t.any(BatchGroup::kRobustness)) {
    table.add_row({"transfer errors (injected)",
                   std::to_string(t.transfer_errors)});
    table.add_row({"transfer retries", std::to_string(t.transfer_retries)});
    table.add_row({"dma map errors (injected)",
                   std::to_string(t.dma_map_errors)});
    table.add_row({"dma map retries", std::to_string(t.dma_map_retries)});
    table.add_row({"service aborts (abandoned blocks)",
                   std::to_string(t.service_aborts)});
    table.add_row({"thrash pins", std::to_string(t.thrash_pins)});
    table.add_row({"thrash throttles", std::to_string(t.thrash_throttles)});
    table.add_row({"buffer overflow drops", std::to_string(t.buffer_dropped)});
    table.add_row({"retry backoff (ms)",
                   fmt(static_cast<double>(t.backoff_ns) / 1e6, 3)});
    table.add_row({"throttle delay (ms)",
                   fmt(static_cast<double>(t.throttle_ns) / 1e6, 3)});
  }
  if (t.any(BatchGroup::kRecovery)) {
    table.add_row({"faults cancelled (tier 1)",
                   std::to_string(t.faults_cancelled)});
    table.add_row({"pages retired (tier 2)", std::to_string(t.pages_retired)});
    table.add_row({"chunks retired", std::to_string(t.chunks_retired)});
    table.add_row({"channel resets (tier 3)",
                   std::to_string(t.channel_resets)});
    table.add_row({"gpu resets (tier 4)", std::to_string(t.gpu_resets)});
    table.add_row({"recovery time (ms)",
                   fmt(static_cast<double>(t.recovery_ns) / 1e6, 3)});
  }
  if (t.any(BatchGroup::kCounters)) {
    table.add_row({"counter notifications",
                   std::to_string(t.ctr_notifications)});
    table.add_row({"counter drops", std::to_string(t.ctr_dropped)});
    table.add_row({"counter pages promoted",
                   std::to_string(t.ctr_pages_promoted)});
    table.add_row({"counter unpins", std::to_string(t.ctr_unpins)});
    table.add_row({"counter evictions", std::to_string(t.ctr_evictions)});
    table.add_row({"counter service (ms)",
                   fmt(static_cast<double>(t.counter_ns) / 1e6, 3)});
  }
  std::printf("%s", table.render().c_str());

  if (args.flag("phases")) {
    const auto rows = phase_distributions(log);
    TablePrinter pt({"phase", "total ms", "share", "mean us", "p50 us",
                     "p95 us", "p99 us", "max us"});
    const double grand = static_cast<double>(work_ns);
    for (const auto& row : rows) {
      pt.add_row({std::string(row.name),
                  fmt(static_cast<double>(row.total_ns) / 1e6, 3),
                  fmt_pct(grand > 0
                              ? static_cast<double>(row.total_ns) / grand
                              : 0),
                  fmt(row.mean_ns / 1e3, 2),
                  fmt(row.p50_ns / 1e3, 2),
                  fmt(row.p95_ns / 1e3, 2),
                  fmt(row.p99_ns / 1e3, 2),
                  fmt(static_cast<double>(row.max_ns) / 1e3, 2)});
    }
    std::printf("\nper-batch phase breakdown (%zu batches):\n%s",
                log.size(), pt.render().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s run [flags] | trace [flags] --out FILE | "
                 "analyze FILE [--phases] [--json] | list\n",
                 argv[0]);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "list") return cmd_list();
  try {
    if (command == "run") return cmd_run(parse_args(argc, argv, 2, kRun));
    if (command == "trace") {
      return cmd_trace(parse_args(argc, argv, 2, kTrace));
    }
    if (command == "analyze") {
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        std::fprintf(stderr, "analyze requires a batch-log file\n");
        return 1;
      }
      return cmd_analyze(argv[2], parse_args(argc, argv, 3, kAnalyze));
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    // A config the library rejects at construction, before any run.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}
