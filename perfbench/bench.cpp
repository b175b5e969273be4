#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "replay.hpp"
#include "workloads/tenant_mix.hpp"

namespace perfbench {

using namespace uvmsim;

// ---- Simulated totals -------------------------------------------------------

namespace {

void add_run(SimTotals& t, const RunResult& run) {
  t.kernel_sim_ns += run.kernel_time_ns;
  t.batch_sim_ns += run.batch_time_ns;
  t.batches += run.log.size();
  t.faults += run.total_faults;
  t.duplicates += run.duplicate_emissions;
  t.replays += run.replays;
  t.evictions += run.evictions;
  t.bytes_h2d += run.bytes_h2d;
  t.bytes_d2h += run.bytes_d2h;
  for (const BatchRecord& rec : run.log) {
    const BatchCounters& c = rec.counters;
    const BatchPhaseTimes& p = rec.phases;
    t.raw_faults += c.raw_faults;
    t.unique_faults += c.unique_faults;
    t.pages_migrated += c.pages_migrated;
    t.pages_prefetched += c.pages_prefetched;
    t.prefetch_sim_ns += p.prefetch_ns;
    t.eviction_sim_ns += p.eviction_ns;
    t.pages_unmapped += c.pages_unmapped;
    t.unmap_sim_ns += p.unmap_ns;
    t.dma_pages_mapped += c.dma_pages_mapped;
    t.dma_map_sim_ns += p.dma_map_ns;
    t.transfer_sim_ns += p.transfer_ns;
  }
}

}  // namespace

SimTotals totals_of(const RunResult& run, std::uint64_t events) {
  SimTotals t;
  add_run(t, run);
  t.events = events;
  return t;
}

SimTotals totals_of(const MultiClientResult& result, std::uint64_t events) {
  SimTotals t;
  for (const RunResult& run : result.per_client) add_run(t, run);
  t.events = events;
  t.tenant_makespan_sim_ns = result.makespan_ns;
  for (const TenantStats& ts : result.per_tenant) t.tenant_batches += ts.batches;
  return t;
}

namespace {

// Metric name of every SimTotals field; also the order check_same reports.
struct TotalField {
  const char* metric;
  std::uint64_t SimTotals::*field;
  const char* unit;
};
constexpr TotalField kTotalFields[] = {
    {"core.kernel_sim_ns", &SimTotals::kernel_sim_ns, "ns"},
    {"core.batch_sim_ns", &SimTotals::batch_sim_ns, "ns"},
    {"core.events", &SimTotals::events, "count"},
    {"uvm.batches", &SimTotals::batches, "count"},
    {"gpu.faults", &SimTotals::faults, "count"},
    {"gpu.duplicates", &SimTotals::duplicates, "count"},
    {"gpu.replays", &SimTotals::replays, "count"},
    {"uvm.raw_faults", &SimTotals::raw_faults, "count"},
    {"uvm.unique_faults", &SimTotals::unique_faults, "count"},
    {"uvm.pages_migrated", &SimTotals::pages_migrated, "count"},
    {"uvm.pages_prefetched", &SimTotals::pages_prefetched, "count"},
    {"uvm.prefetch_sim_ns", &SimTotals::prefetch_sim_ns, "ns"},
    {"uvm.evictions", &SimTotals::evictions, "count"},
    {"uvm.eviction_sim_ns", &SimTotals::eviction_sim_ns, "ns"},
    {"hostos.pages_unmapped", &SimTotals::pages_unmapped, "count"},
    {"hostos.unmap_sim_ns", &SimTotals::unmap_sim_ns, "ns"},
    {"hostos.dma_pages_mapped", &SimTotals::dma_pages_mapped, "count"},
    {"hostos.dma_map_sim_ns", &SimTotals::dma_map_sim_ns, "ns"},
    {"interconnect.bytes_h2d", &SimTotals::bytes_h2d, "B"},
    {"interconnect.bytes_d2h", &SimTotals::bytes_d2h, "B"},
    {"interconnect.transfer_sim_ns", &SimTotals::transfer_sim_ns, "ns"},
    {"core.tenant_makespan_sim_ns", &SimTotals::tenant_makespan_sim_ns, "ns"},
    {"uvm.tenant_batches", &SimTotals::tenant_batches, "count"},
};

void append(std::vector<std::string>& to, std::vector<std::string> from) {
  for (auto& s : from) to.push_back(std::move(s));
}

}  // namespace

// ---- Correctness checks -------------------------------------------------------

std::vector<std::string> check_run(const RunResult& run) {
  std::vector<std::string> errors;
  std::uint64_t migrated = 0;
  for (const BatchRecord& rec : run.log) migrated += rec.counters.pages_migrated;
  if (run.bytes_h2d != kPageSize * migrated) {
    errors.push_back("bytes_h2d " + std::to_string(run.bytes_h2d) +
                     " != 4096 x pages_migrated " + std::to_string(migrated));
  }
  if (run.total_faults == 0 || run.log.empty()) {
    errors.push_back("run serviced no faults");
  }
  return errors;
}

std::vector<std::string> check_tenants(const MultiClientResult& result) {
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < result.per_tenant.size(); ++i) {
    if (result.per_tenant[i].completion_ns == 0) {
      errors.push_back("tenant " + std::to_string(i) + " did not complete");
    }
  }
  for (const RunResult& run : result.per_client) append(errors, check_run(run));
  return errors;
}

std::vector<std::string> check_same(const SimTotals& expected,
                                    const SimTotals& got,
                                    const std::string& what) {
  std::vector<std::string> errors;
  for (const TotalField& f : kTotalFields) {
    if (expected.*f.field != got.*f.field) {
      errors.push_back(what + ": " + f.metric + " " +
                       std::to_string(got.*f.field) + " != " +
                       std::to_string(expected.*f.field));
    }
  }
  return errors;
}

// ---- Workloads ----------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sgemm-4096", "random-6x", "gauss-seidel-4x", "tenants-16"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale) {
  const bool paper = scale == Scale::kPaper;
  Workload w;
  if (name == "sgemm-4096") {
    // 3 x n^2 floats over a GPU 2/3 that size: 1.5x oversubscribed.
    w.config = presets::scaled_titan_v(paper ? 128 : 8);
    GemmParams p;
    p.n = paper ? 4096 : 1024;
    w.build = [p] { return make_gemm(p); };
  } else if (name == "random-6x") {
    const std::uint64_t mib = paper ? 32 : 4;
    w.config = presets::scaled_titan_v(mib);
    w.build = [mib, seed] { return make_random((6 * mib) << 20, seed); };
  } else if (name == "gauss-seidel-4x") {
    // nx * ny doubles over a GPU a quarter that size.
    w.config = presets::scaled_titan_v(paper ? 256 : 4);
    GaussSeidelParams p;
    p.nx = paper ? 16384 : 2048;
    p.ny = paper ? 8192 : 1024;
    w.build = [p] { return make_gauss_seidel(p); };
  } else if (name == "tenants-16") {
    // The ablation_multi_tenant stride configuration at 16 tenants.
    const std::uint32_t n = 16;
    const std::uint64_t footprint_kb = paper ? 32768 : 2048;
    w.config = presets::scaled_titan_v(paper ? 64 : 8);
    w.config.driver.prefetch_enabled = false;
    w.config.driver.big_page_promotion = false;
    w.config.driver.batch_size = 64;
    w.sched.policy = TenantSchedPolicy::kStride;
    w.sched.drr_quantum_faults = 64;
    w.tenants = make_tenant_matrix(n, {1.0, 2.0, 4.0}, 0, 1);
    w.build_roster = [n, seed, footprint_kb] {
      return make_tenant_roster(n, TenantMix::kMixed, seed, footprint_kb);
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.config.seed = seed;
  return w;
}

// ---- The closed loop --------------------------------------------------------

namespace {

struct Iteration {
  double build_s = 0;  // workload build (make_*)
  double setup_s = 0;  // build + system construction
  double run_s = 0;    // one untraced run() call
  std::uint64_t input_bytes = 0;
  SimTotals totals;
  LayerTimes layers;   // traced runs only
};

Iteration run_once(const Workload& w, bool trace,
                   std::vector<std::string>& errors) {
  Iteration it;
  const Clock::time_point t0 = Clock::now();
  if (w.multi_tenant()) {
    const std::vector<WorkloadSpec> specs = w.build_roster();
    it.build_s = seconds_since(t0);
    for (const WorkloadSpec& spec : specs) {
      it.input_bytes += spec.total_alloc_bytes();
    }
    MultiClientSystem multi(w.config, w.tenants, w.sched);
    it.setup_s = seconds_since(t0);
    const Clock::time_point r0 = Clock::now();
    const MultiClientResult result = multi.run(specs);
    it.run_s = seconds_since(r0);
    it.totals = totals_of(result, multi.engine_stats().executed);
    append(errors, check_tenants(result));
    // Traced runs time the whole call only: the multi-tenant loop has no
    // replay, so it reports no per-layer split and no tracing overhead.
    it.layers.total_s = it.run_s;
    return it;
  }
  const WorkloadSpec spec = w.build();
  it.build_s = seconds_since(t0);
  it.input_bytes = spec.total_alloc_bytes();
  {
    System system(w.config);
    it.setup_s = seconds_since(t0);
    const Clock::time_point r0 = Clock::now();
    const RunResult result = system.run(spec);
    it.run_s = seconds_since(r0);
    it.totals = totals_of(result, system.engine_stats().executed);
    append(errors, check_run(result));
  }
  if (trace) {
    ReplayResult replay = traced_replay(w.config, spec);
    append(errors, check_run(replay.run));
    append(errors, check_same(it.totals, totals_of(replay.run, replay.events),
                              "traced replay"));
    it.layers = std::move(replay.times);
  }
  return it;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <class F>
double median_of(const std::vector<Iteration>& its, F&& field) {
  std::vector<double> v;
  v.reserve(its.size());
  for (const Iteration& it : its) v.push_back(field(it));
  return quantile(std::move(v), 0.5);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::vector<Metric> end_to_end_metrics(const std::vector<Iteration>& ok) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"run_s", median_of(ok, [](const Iteration& i) { return i.run_s; }),
       "s"},
      {"setup_s", median_of(ok, [](const Iteration& i) { return i.setup_s; }),
       "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Iteration>& ok) {
  // Layer times come from the iteration whose traced total is the median,
  // so they and core.loop_self_s sum exactly to its trace.loop_s.
  std::vector<const Iteration*> by_total;
  std::vector<double> batch_us;
  for (const Iteration& it : ok) {
    by_total.push_back(&it);
    batch_us.insert(batch_us.end(), it.layers.handle_batch_us.begin(),
                    it.layers.handle_batch_us.end());
  }
  std::sort(by_total.begin(), by_total.end(),
            [](const Iteration* a, const Iteration* b) {
              return a->layers.total_s < b->layers.total_s;
            });
  const Iteration none{};
  const Iteration& mid =
      by_total.empty() ? none : *by_total[(by_total.size() - 1) / 2];
  const LayerTimes& l = mid.layers;
  const SimTotals& t = mid.totals;
  const double run_s = median_of(ok, [](const Iteration& i) { return i.run_s; });
  const double traced_s =
      median_of(ok, [](const Iteration& i) { return i.layers.total_s; });

  std::vector<Metric> m = {
      {"workloads.build_s",
       median_of(ok, [](const Iteration& i) { return i.build_s; }), "s"},
      {"gpu.generate_s", l.generate_s, "s"},
      {"gpu.generate_calls", static_cast<double>(l.generate_calls), "count"},
      {"gpu.classify_calls", static_cast<double>(l.classify_calls), "count"},
      {"gpu.bulk_probe_calls", static_cast<double>(l.bulk_probe_calls),
       "count"},
      {"gpu.fault_buffer_s", l.fault_buffer_s, "s"},
      {"gpu.replay_s", l.replay_s, "s"},
      {"uvm.managed_alloc_s", l.managed_alloc_s, "s"},
      {"uvm.handle_batch_s", l.handle_batch_s, "s"},
      {"uvm.handle_batch_us_p50", quantile(batch_us, 0.50), "us"},
      {"uvm.handle_batch_us_p99", quantile(batch_us, 0.99), "us"},
      {"core.loop_self_s", l.loop_self_s(), "s"},
      {"trace.loop_s", l.total_s, "s"},
      {"trace.overhead_ratio", run_s > 0 ? traced_s / run_s : 0, "ratio"},
      // Simulated raw fault records per host second of one untraced run.
      {"faults_per_s", run_s > 0 ? static_cast<double>(t.faults) / run_s : 0,
       "1/s"},
  };
  for (const TotalField& f : kTotalFields) {
    m.push_back({f.metric, static_cast<double>(t.*f.field), f.unit});
  }
  m.push_back({"uvm.dedup_keep_ratio", ratio(t.unique_faults, t.raw_faults),
               "ratio"});
  m.push_back({"uvm.prefetch_ratio",
               ratio(t.pages_prefetched, t.pages_migrated), "ratio"});
  return m;
}

}  // namespace

Report run_benchmark(const Options& options) {
  const Workload w = make_workload(options.workload, options.seed,
                                   options.scale);
  Report report;
  std::vector<Iteration> ok;
  std::optional<SimTotals> first;
  const Clock::time_point start = Clock::now();
  // Start another simulation only if one as long as the last still fits.
  double last_s = 0;
  while (report.attempted == 0 ||
         seconds_since(start) + last_s <= options.seconds) {
    const Clock::time_point it_start = Clock::now();
    ++report.attempted;
    std::vector<std::string> errors;
    try {
      Iteration it = run_once(w, options.trace, errors);
      report.input_bytes = it.input_bytes;
      if (!first) {
        first = it.totals;
      } else {
        append(errors, check_same(*first, it.totals, "repeat"));
      }
      if (errors.empty()) ok.push_back(std::move(it));
    } catch (const std::exception& e) {
      errors.push_back(e.what());
    }
    if (!errors.empty()) {
      ++report.failed;
      append(report.errors, std::move(errors));
    }
    last_s = seconds_since(it_start);
  }
  report.metrics =
      options.trace ? per_layer_metrics(ok) : end_to_end_metrics(ok);
  return report;
}

std::string to_json(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  char value[32];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
