// The engine's residency table against the classify() path.
//
// GpuEngine settles most probes from the oracle's residency table: a set
// bit is a resident hit, and `misses_fault` turns every other page into a
// fault without a call. UvmDriver may hand out that promise only while no
// non-resident page can resolve remotely. Each case below runs two
// engine-plus-driver chains from one seed in lockstep: one with the driver
// as the oracle (table path), one through a forwarding oracle that hands
// out no table (every probe calls classify()). Every step must drain the
// same fault records and log the same batch. Only the table path parks
// warps (a promised `misses_fault` is what lets a skip know the outcome of
// every probe), so the pairs are also parked-against-unparked
// differentials. After plain oversubscribed runs, a stencil and a
// throttle-bound gemm, each case exercises one of the remote-resolution
// sources the promise must exclude: host-preferred advice, thrashing pins,
// and retired pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/log_io.hpp"
#include "core/system.hpp"
#include "gpu/access_counters.hpp"
#include "gpu/gpu_engine.hpp"
#include "test_util.hpp"
#include "uvm/uvm_driver.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

/// Forwards classify() and is_resident_on_gpu() to the driver and keeps
/// the default residency table (none), so the engine calls classify()
/// for every probe.
class ClassifyOnly final : public ResidencyOracle {
 public:
  explicit ClassifyOnly(const UvmDriver& driver) : driver_(driver) {}
  bool is_resident_on_gpu(PageId page) const override {
    return driver_.is_resident_on_gpu(page);
  }
  PageLocation classify(PageId page) const override {
    return driver_.classify(page);
  }

 private:
  const UvmDriver& driver_;
};

enum class Probe { kTable, kClassify };

/// One engine and one driver on the single-GPU event chain, reduced to
/// its order of calls: generate, drain what has arrived, service it,
/// replay (or reset the GPU when the driver escalated to one), generate
/// again; a starved GPU gets a forced token refill.
class Chain {
 public:
  Chain(const SystemConfig& config, const WorkloadSpec& spec, Probe probe)
      : config_(config),
        injector_(config.driver.inject),
        driver_(config.driver, config.gpu.memory_bytes, config.gpu.num_sms,
                config.pcie, &injector_),
        gpu_(config.gpu, config.seed),
        forward_(driver_),
        oracle_(probe == Probe::kTable
                    ? static_cast<const ResidencyOracle&>(driver_)
                    : forward_) {
    gpu_.set_fault_injector(&injector_);
    const AccessCounterConfig& ac = config.driver.access_counters;
    if (ac.enabled) {
      counters_ = std::make_unique<AccessCounterUnit>(
          ac.granularity_pages, ac.threshold, ac.buffer_entries);
      counters_->set_fault_injector(&injector_);
      driver_.set_access_counters(counters_.get());
      gpu_.set_access_counters(counters_.get());
    }
    const PageId base = driver_.va_space().total_pages();
    for (const auto& alloc : spec.allocs) {
      driver_.managed_alloc(alloc.bytes, alloc.name, alloc.init, alloc.advise);
    }
    gpu_.launch(spec.kernel, base);
    window();
  }

  bool done() const {
    return gpu_.fault_buffer().empty() && gpu_.all_done();
  }

  /// One service event (or forced refill). Returns the records it drained
  /// and the batch it logged, as text; both empty for a refill.
  std::string step() {
    FaultBuffer& buffer = gpu_.fault_buffer();
    if (buffer.empty()) {
      gpu_.force_token_refill();
      gpu_.on_replay();
      window();
      return {};
    }
    now_ = std::max(now_, *buffer.next_arrival());
    const auto raw = buffer.drain_arrived(driver_.effective_batch_size(), now_);
    std::ostringstream out;
    for (const FaultRecord& f : raw) {
      out << f.page << ':' << static_cast<int>(f.access) << ':' << f.sm << ':'
          << f.block << '@' << f.timestamp
          << (f.is_duplicate_emission ? "d " : " ");
    }
    const std::uint64_t resets = driver_.recovery().gpu_resets();
    const BatchRecord& record = driver_.handle_batch(raw, now_);
    out << '\n' << serialize_batch(record);
    now_ = std::max(now_, record.end_ns);
    if (driver_.recovery().gpu_resets() != resets) {
      gpu_.full_reset();
    } else {
      if (driver_.config().flush_on_replay) buffer.flush_arrived(now_);
      gpu_.on_replay();
    }
    window();
    return out.str();
  }

  const GpuEngine& gpu() const { return gpu_; }

  /// Sum of one BatchCounters field over the batch log.
  std::uint64_t total(std::uint32_t BatchCounters::*field) const {
    std::uint64_t sum = 0;
    for (const BatchRecord& rec : driver_.log()) sum += rec.counters.*field;
    return sum;
  }

 private:
  void window() {
    const auto g = gpu_.generate(now_, oracle_);
    now_ += g.compute_ns +
            g.remote_requests * config_.gpu.remote_request_pipelined_ns;
  }

  SystemConfig config_;
  FaultInjector injector_;
  std::unique_ptr<AccessCounterUnit> counters_;
  UvmDriver driver_;
  GpuEngine gpu_;
  ClassifyOnly forward_;
  const ResidencyOracle& oracle_;
  SimTime now_ = 0;
};

/// Runs the table path and the classify() path in lockstep and requires
/// each step to drain the same records and log the same batch. Calls
/// `check` with the finished table chain for the case's own checks.
template <class Check>
void expect_paths_agree(const SystemConfig& config, const WorkloadSpec& spec,
                        Check check) {
  Chain table(config, spec, Probe::kTable);
  Chain classify(config, spec, Probe::kClassify);
  std::uint64_t steps = 0;
  while (!table.done() || !classify.done()) {
    ASSERT_LT(++steps, 20000u) << "replay did not finish the kernel";
    ASSERT_EQ(table.step(), classify.step()) << "step " << steps;
  }
  const GpuEngine& a = table.gpu();
  const GpuEngine& b = classify.gpu();
  EXPECT_GT(a.total_faults_emitted(), 0u);
  EXPECT_EQ(a.total_faults_emitted(), b.total_faults_emitted());
  EXPECT_EQ(a.remote_accesses(), b.remote_accesses());
  // Parked warps are skipped without a probe.
  EXPECT_LE(a.residency_probes(), b.residency_probes());
  // The forwarding oracle has no table: every probe reaches classify().
  EXPECT_EQ(b.oracle_probes(), b.residency_probes());
  // The driver's table settles at least the resident hits.
  EXPECT_LT(a.oracle_probes(), a.residency_probes());
  check(table);
}

TEST(ResidencyTable, OversubscribedGaussSeidelMatchesClassifyPath) {
  GaussSeidelParams p;
  p.nx = 1024;
  p.ny = 1024;  // 8 MB on a 4 MB GPU
  expect_paths_agree(small_config(4), make_gauss_seidel(p),
                     [](const Chain& run) {
    EXPECT_GT(run.total(&BatchCounters::evictions), 0u);
    // No advice, retirement or thrashing detection: the table settles
    // every probe.
    EXPECT_EQ(run.gpu().oracle_probes(), 0u);
  });
}

TEST(ResidencyTable, ThrottleBoundGemmMatchesClassifyPath) {
  // Most warps of this gemm wait on an SM with no throttle token left:
  // the table path parks them, the classify() path visits them all.
  GemmParams p;
  p.n = 1024;
  expect_paths_agree(presets::scaled_titan_v(8), make_gemm(p),
                     [](const Chain& run) {
    EXPECT_EQ(run.gpu().oracle_probes(), 0u);
  });
}

/// Warp visits that changed nothing, over a table-path run to completion.
std::uint64_t idle_warp_visits(const SystemConfig& config,
                               const WorkloadSpec& spec) {
  Chain run(config, spec, Probe::kTable);
  for (std::uint64_t steps = 0; !run.done(); ++steps) {
    if (steps == 20000) {
      ADD_FAILURE() << "replay did not finish the kernel";
      break;
    }
    run.step();
  }
  return run.gpu().idle_warp_visits();
}

TEST(ResidencyTable, ParkedWarpsMakeFewIdleVisits) {
  // Re-probing every live warp in every window made 23,344 idle visits
  // on this gemm and 50,325 on this stencil; parking leaves about 3,000
  // and 1,700.
  GemmParams gemm;
  gemm.n = 1024;
  EXPECT_LT(idle_warp_visits(presets::scaled_titan_v(8), make_gemm(gemm)),
            5000u);
  GaussSeidelParams stencil;
  stencil.nx = 2048;
  stencil.ny = 1024;
  EXPECT_LT(idle_warp_visits(presets::scaled_titan_v(4),
                             make_gauss_seidel(stencil)),
            5000u);
}

TEST(ResidencyTable, HostPreferredAllocationWithCountersMatchesClassifyPath) {
  SystemConfig cfg = small_config(256);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.access_counters.enabled = true;
  cfg.driver.access_counters.granularity_pages = 16;
  cfg.driver.access_counters.threshold = 8;
  // Promoted pages of the advised allocation turn resident while the
  // advice stays: the table's hits and the oracle's remote pages mix.
  cfg.driver.access_counters.migrate_advised = true;
  WorkloadSpec spec = make_vecadd_coalesced(1 << 16);
  spec.allocs[0].advise = MemAdvise::kPreferredLocationHost;
  expect_paths_agree(cfg, spec, [](const Chain& run) {
    EXPECT_GT(run.gpu().remote_accesses(), 0u);
    EXPECT_GT(run.total(&BatchCounters::ctr_pages_promoted), 0u);
    EXPECT_GT(run.gpu().oracle_probes(), 0u);
  });
}

TEST(ResidencyTable, ThrashingPinsMatchClassifyPath) {
  SystemConfig cfg = small_config(8);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.thrash.enabled = true;
  cfg.driver.thrash.mitigation = ThrashMitigation::kPin;
  expect_paths_agree(cfg, make_random(16ULL << 20, 0x5eed),
                     [](const Chain& run) {
    EXPECT_GT(run.total(&BatchCounters::thrash_pins), 0u);
    EXPECT_GT(run.gpu().remote_accesses(), 0u);
  });
}

TEST(ResidencyTable, FatalInjectionRetiringPagesMatchesClassifyPath) {
  SystemConfig cfg = small_config(8);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.seed = 7;
  cfg.driver.inject.ecc_double_bit_prob = 0.02;
  cfg.driver.inject.poison_prob = 0.05;
  cfg.driver.recovery.enabled = true;
  expect_paths_agree(cfg, make_random(12ULL << 20, 0xfa7a1),
                     [](const Chain& run) {
    EXPECT_GT(run.total(&BatchCounters::pages_retired), 0u);
    EXPECT_GT(run.gpu().remote_accesses(), 0u);
  });
}

TEST(ResidencyTable, DefaultSystemRunNeverCallsTheOracle) {
  System system(small_config(8));
  system.run(make_stream_triad(1 << 20));
  const MetricsRegistry metrics = system.metrics();
  EXPECT_GT(metrics.counters.at("gpu.residency_probes"), 0u);
  EXPECT_EQ(metrics.counters.at("gpu.oracle_probes"), 0u);
}

}  // namespace
}  // namespace uvmsim
