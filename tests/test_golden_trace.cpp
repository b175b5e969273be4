// Golden-trace regression test: a canonical batch log, checked in under
// tests/golden/, pins down the exact simulated behaviour of the default
// driver on the paper's Listing-1 microbenchmark (vecadd-paged, one warp,
// one page per thread) on the scaled_titan_v(256) testbed. Two more logs
// pin the shared-driver multi-GPU path (peer-share on four NVLink-ring
// GPUs, and on two PCIe-only GPUs with evict-to-host placement). Two logs
// with transfer errors and fault storms injected on a 2 MB GPU pin the
// fault generator where the µTLBs fill, accesses reissue after replays
// and blocks retire mid-window: a Gauss-Seidel stencil, and eight DRR
// tenants on one driver worker.
//
// Any change to fault generation, dedup, prefetching, cost constants, or
// batch timing shows up here as a field-level diff. If the change is
// INTENDED, regenerate the fixture and commit it alongside the change;
// each fixture's regeneration command is the k*Regenerate string next to
// its path below, e.g.
//
//   build/tools/uvmsim_cli run --workload vecadd-paged --gpu-mb 256
//       --log tests/golden/vecadd_paged_titanv256.batchlog
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/log_io.hpp"
#include "core/multi_client.hpp"
#include "core/multi_gpu.hpp"
#include "core/system.hpp"
#include "test_util.hpp"
#include "workloads/tenant_mix.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

constexpr const char* kFixture =
    UVMSIM_GOLDEN_DIR "/vecadd_paged_titanv256.batchlog";
constexpr const char* kRegenerate =
    "build/tools/uvmsim_cli run --workload vecadd-paged --gpu-mb 256 "
    "--log tests/golden/vecadd_paged_titanv256.batchlog";

constexpr const char* kRing4Fixture =
    UVMSIM_GOLDEN_DIR "/peer_share_nvlink_ring4.batchlog";
constexpr const char* kRing4Regenerate =
    "build/tools/uvmsim_cli run --gpus 4 --topology nvlink-ring --gpu-mb 4 "
    "--private-kb 4096 --shared-kb 2048 --passes 2 "
    "--log tests/golden/peer_share_nvlink_ring4.batchlog";

constexpr const char* kPcie2HostFixture =
    UVMSIM_GOLDEN_DIR "/peer_share_pcie2_evict_host.batchlog";
constexpr const char* kPcie2HostRegenerate =
    "build/tools/uvmsim_cli run --gpus 2 --topology pcie --placement host "
    "--gpu-mb 4 --private-kb 4096 --shared-kb 2048 --passes 2 "
    "--log tests/golden/peer_share_pcie2_evict_host.batchlog";

constexpr const char* kGaussSeidelFixture =
    UVMSIM_GOLDEN_DIR "/gauss_seidel_inject_gpu2.batchlog";
constexpr const char* kGaussSeidelRegenerate =
    "build/tools/uvmsim_cli run --workload gauss-seidel --nx 1024 --ny 512 "
    "--gpu-mb 2 --inject --inject-seed 42 --inject-transfer-err 0.2 "
    "--inject-storm-prob 0.1 "
    "--log tests/golden/gauss_seidel_inject_gpu2.batchlog";

constexpr const char* kTenantsFixture =
    UVMSIM_GOLDEN_DIR "/tenants8_drr_inject_gpu2.batchlog";
constexpr const char* kTenantsRegenerate =
    "build/tools/uvmsim_cli run --tenants 8 --tenant-sched drr "
    "--tenant-weights 1,2,4 --tenant-max-batches 2 --tenant-kb 256 "
    "--no-prefetch --batch-size 64 --gpu-mb 2 --inject --inject-seed 42 "
    "--inject-transfer-err 0.2 --inject-storm-prob 0.1 "
    "--log tests/golden/tenants8_drr_inject_gpu2.batchlog";

constexpr const char* kTraceFixture =
    UVMSIM_GOLDEN_DIR "/vecadd_paged_titanv256.trace.json";
constexpr const char* kTraceRegenerate =
    "build/tools/uvmsim_cli trace --workload vecadd-paged --gpu-mb 256 "
    "--out tests/golden/vecadd_paged_titanv256.trace.json";

/// The run the fixture captures: defaults all the way down.
RunResult golden_run() {
  System system(small_config(256));
  return system.run(make_vecadd_paged());
}

/// Byte-for-byte comparison of `got` against a fixture's text. Reports the
/// first diverging line, not a wall of output.
void expect_matches_fixture(const std::string& fixture, const std::string& got,
                            const char* regenerate) {
  if (got == fixture) return;
  std::istringstream want_in(fixture);
  std::istringstream got_in(got);
  std::string want_line, got_line;
  std::size_t line = 1;
  while (std::getline(want_in, want_line)) {
    if (!std::getline(got_in, got_line)) {
      ADD_FAILURE() << "output truncated at fixture line " << line
                    << "; if intended, regenerate with: " << regenerate;
      return;
    }
    if (want_line != got_line) {
      ADD_FAILURE() << "output diverges at line " << line << ":\n  golden: "
                    << want_line << "\n  run:    " << got_line
                    << "\nif intended, regenerate with: " << regenerate;
      return;
    }
    ++line;
  }
  ADD_FAILURE() << "output has extra lines after fixture line " << line
                << "; if intended, regenerate with: " << regenerate;
}

/// A peer-share run on the multi-GPU node, as `uvmsim_cli run --gpus`
/// builds it: 4 MiB of HBM per GPU, 4 MiB private slices, a 2 MiB shared
/// region, two sweeps. Returns the serialized aggregate batch log.
std::string peer_share_log(std::uint32_t gpus, TopologyKind topology,
                           PlacementPolicy placement) {
  SystemConfig cfg = small_config(4);
  cfg.driver.multi_gpu.num_gpus = gpus;
  cfg.driver.multi_gpu.topology = topology;
  cfg.driver.multi_gpu.placement = placement;
  PeerShareParams params;
  params.num_gpus = gpus;
  params.private_kb_per_gpu = 4096;
  params.shared_kb = 2048;
  params.sweeps = 2;
  MultiGpuSystem system(cfg);
  std::ostringstream out;
  write_batch_log(out, system.run(make_peer_share(params)).aggregate.log);
  return out.str();
}

/// The injection flags both storm fixtures share: transfer errors and
/// fault-buffer storms from injection seed 42.
SystemConfig injected_config(std::uint64_t gpu_mb) {
  SystemConfig cfg = small_config(gpu_mb);
  cfg.driver.inject.enabled = true;
  cfg.driver.inject.seed = 42;
  cfg.driver.inject.transfer_error_prob = 0.2;
  cfg.driver.inject.storm_prob = 0.1;
  return cfg;
}

/// `uvmsim_cli run --workload gauss-seidel --nx 1024 --ny 512` on a 2 MB
/// GPU with injection: 4 MB of grid thrash a single 2 MB chunk.
std::string gauss_seidel_injected_log() {
  GaussSeidelParams params;
  params.nx = 1024;
  params.ny = 512;
  System system(injected_config(2));
  std::ostringstream out;
  write_batch_log(out, system.run(make_gauss_seidel(params)).log);
  return out.str();
}

/// `uvmsim_cli run --tenants 8 --tenant-sched drr ...` with injection:
/// the per-client batch logs concatenated in client order.
std::string tenants_injected_log() {
  SystemConfig cfg = injected_config(2);
  cfg.driver.batch_size = 64;
  cfg.driver.prefetch_enabled = false;
  TenantSchedConfig sched;
  sched.policy = TenantSchedPolicy::kDeficitRoundRobin;
  MultiClientSystem system(cfg, make_tenant_matrix(8, {1, 2, 4}, 0, 2),
                           sched);
  const MultiClientResult result =
      system.run(make_tenant_roster(8, TenantMix::kMixed, cfg.seed, 256));
  std::ostringstream out;
  for (const RunResult& client : result.per_client) {
    write_batch_log(out, client.log);
  }
  return out.str();
}

void expect_log_matches_fixture(const char* path, const std::string& got,
                                const char* regenerate) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path
                  << "\nregenerate with: " << regenerate;
  std::ostringstream fixture;
  fixture << in.rdbuf();
  expect_matches_fixture(fixture.str(), got, regenerate);
}

/// Field-by-field comparison with one human-readable line per mismatch.
std::vector<std::string> diff_records(const BatchRecord& golden,
                                      const BatchRecord& got) {
  std::vector<std::string> diffs;
  const auto cmp = [&](std::string_view field, auto want, auto have) {
    if (want != have) {
      std::ostringstream msg;
      msg << field << ": golden " << want << " vs run " << have;
      diffs.push_back(msg.str());
    }
  };
  cmp("id", golden.id, got.id);
  cmp("start_ns", golden.start_ns, got.start_ns);
  cmp("end_ns", golden.end_ns, got.end_ns);

  for_each_batch_field([&](const BatchField& field, auto get) {
    cmp(field.metric, get(golden), get(got));
  });

  const auto cmp_list = [&](const char* field, const auto& want,
                            const auto& have, const auto& format) {
    if (want.size() != have.size()) {
      std::ostringstream msg;
      msg << field << ".size: golden " << want.size() << " vs run "
          << have.size();
      diffs.push_back(msg.str());
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i] != have[i]) {
        std::ostringstream msg;
        msg << field << "[" << i << "]: golden " << format(want[i])
            << " vs run " << format(have[i]);
        diffs.push_back(msg.str());
      }
    }
  };
  const auto scalar = [](auto v) { return std::to_string(v); };
  const auto pair = [](const auto& pr) {
    return std::to_string(pr.first) + ':' + std::to_string(pr.second);
  };
  cmp_list("faults_per_sm", golden.faults_per_sm, got.faults_per_sm,
           scalar);
  cmp_list("vablock_faults", golden.vablock_faults, got.vablock_faults,
           pair);
  cmp_list("vablock_service_ns", golden.vablock_service_ns,
           got.vablock_service_ns, pair);
  cmp_list("first_touch_blocks", golden.first_touch_blocks,
           got.first_touch_blocks, scalar);
  cmp_list("evicted_blocks", golden.evicted_blocks, got.evicted_blocks,
           scalar);
  return diffs;
}

TEST(GoldenTrace, VecaddPagedMatchesFixture) {
  std::ifstream in(kFixture);
  ASSERT_TRUE(in) << "missing golden fixture " << kFixture
                  << "\nregenerate with: " << kRegenerate;
  const auto parsed = read_batch_log(in);
  ASSERT_EQ(parsed.skipped_lines, 0u)
      << "corrupt fixture; regenerate with: " << kRegenerate;
  ASSERT_FALSE(parsed.log.empty());

  const auto result = golden_run();
  ASSERT_EQ(result.log.size(), parsed.log.size())
      << "batch count changed; if intended, regenerate with: "
      << kRegenerate;

  std::size_t mismatched_batches = 0;
  for (std::size_t i = 0; i < parsed.log.size(); ++i) {
    const auto diffs = diff_records(parsed.log[i], result.log[i]);
    if (diffs.empty()) continue;
    ++mismatched_batches;
    std::ostringstream report;
    report << "batch " << i << " diverges from the golden trace:";
    for (const auto& d : diffs) report << "\n  " << d;
    ADD_FAILURE() << report.str();
  }
  EXPECT_EQ(mismatched_batches, 0u)
      << "behaviour changed; if intended, regenerate with: " << kRegenerate;
}

TEST(GoldenTrace, VecaddPagedChromeTraceMatchesFixture) {
  // The same canonical run, traced: the emitted Chrome trace-event JSON
  // is pinned byte for byte. Catches any drift in span placement, track
  // assignment, event ordering, or the serializer itself.
  std::ifstream in(kTraceFixture, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden trace fixture " << kTraceFixture
                  << "\nregenerate with: " << kTraceRegenerate;
  std::ostringstream fixture;
  fixture << in.rdbuf();

  SystemConfig cfg = small_config(256);
  cfg.obs.trace = true;
  System system(cfg);
  system.run(make_vecadd_paged());
  expect_matches_fixture(fixture.str(), trace_to_json(system.tracer()),
                         kTraceRegenerate);
}

TEST(GoldenTrace, TraceFixtureParsesAsChromeTraceJson) {
  // The checked-in fixture must stay loadable by the log_io reader (the
  // same subset Perfetto accepts).
  std::ifstream in(kTraceFixture);
  ASSERT_TRUE(in) << "missing golden trace fixture " << kTraceFixture;
  TraceParseResult parsed;
  ASSERT_TRUE(read_trace_json(in, parsed))
      << "fixture is not valid trace JSON; regenerate with: "
      << kTraceRegenerate;
  EXPECT_FALSE(parsed.events.empty());
  EXPECT_FALSE(parsed.track_names.empty());
}

TEST(GoldenTrace, CountersEnabledLeaveTheGoldenLogUntouched) {
  // vecadd-paged never remote-maps a page, so even with the access-
  // counter channel ENABLED the canonical batch log must stay identical
  // to the (counters-off) fixture: an armed-but-idle unit is free.
  std::ifstream in(kFixture);
  ASSERT_TRUE(in) << "missing golden fixture " << kFixture;
  const auto parsed = read_batch_log(in);
  ASSERT_EQ(parsed.skipped_lines, 0u);

  SystemConfig cfg = small_config(256);
  cfg.driver.access_counters.enabled = true;
  cfg.driver.access_counters.threshold = 1;  // hair trigger, still silent
  System system(cfg);
  const auto result = system.run(make_vecadd_paged());
  ASSERT_NE(system.access_counters(), nullptr);
  EXPECT_EQ(system.access_counters()->total_accesses(), 0u);
  ASSERT_EQ(result.log.size(), parsed.log.size());
  for (std::size_t i = 0; i < result.log.size(); ++i) {
    EXPECT_EQ(serialize_batch(result.log[i]), serialize_batch(parsed.log[i]))
        << "batch " << i;
  }
}

TEST(GoldenTrace, CounterTracedRunsAreByteIdentical) {
  // An oversubscribed thrash-pinned workload with counters AND tracing
  // on: the counter track and its spans land in the trace, and repeating
  // the run reproduces the JSON byte for byte.
  SystemConfig cfg = small_config(8);
  cfg.obs.trace = true;
  cfg.driver.prefetch_enabled = false;
  cfg.driver.big_page_promotion = false;
  cfg.driver.thrash.enabled = true;
  cfg.driver.thrash.mitigation = ThrashMitigation::kPin;
  cfg.driver.access_counters.enabled = true;
  cfg.driver.access_counters.threshold = 32;

  const auto spec = make_random(16ULL << 20, 0x5eed);
  System first(cfg);
  const auto a = first.run(spec);
  System second(cfg);
  second.run(spec);

  EXPECT_GT(totals(a.log).ctr_pages_promoted, 0u);
  const std::string json = trace_to_json(first.tracer());
  EXPECT_NE(json.find("access counters"), std::string::npos);
  EXPECT_NE(json.find("counter_service"), std::string::npos);
  EXPECT_EQ(json, trace_to_json(second.tracer()));
}

TEST(GoldenTrace, PeerShareNvlinkRing4MatchesFixture) {
  // Four GPUs on an NVLink ring with peer-first placement: peer
  // migrations, remote maps and evictions all appear in the log.
  expect_log_matches_fixture(
      kRing4Fixture,
      peer_share_log(4, TopologyKind::kNvlinkRing, PlacementPolicy::kPeerFirst),
      kRing4Regenerate);
}

TEST(GoldenTrace, PeerSharePcie2EvictHostMatchesFixture) {
  // Two PCIe-only GPUs with evict-to-host placement: every handoff of a
  // peer-owned block bounces through host memory.
  expect_log_matches_fixture(
      kPcie2HostFixture,
      peer_share_log(2, TopologyKind::kPcieOnly, PlacementPolicy::kEvictHost),
      kPcie2HostRegenerate);
}

TEST(GoldenTrace, GaussSeidelInjectedMatchesFixture) {
  // Full µTLBs, reissues after every replay and injected storms, with
  // blocks retiring mid-window: every fault the generator emits reaches
  // the log through dedup, eviction and retried transfers.
  expect_log_matches_fixture(kGaussSeidelFixture, gauss_seidel_injected_log(),
                             kGaussSeidelRegenerate);
}

TEST(GoldenTrace, TenantsDrrInjectedMatchesFixture) {
  // Eight mixed tenants, each with its own engine, driver and injector,
  // sharing one worker under DRR with a two-batch grant cap.
  expect_log_matches_fixture(kTenantsFixture, tenants_injected_log(),
                             kTenantsRegenerate);
}

TEST(GoldenTrace, FixtureRoundTripsThroughLogIo) {
  // The fixture exercises the serializer too: parse -> serialize must
  // reproduce the file byte for byte (modulo trailing whitespace).
  std::ifstream in(kFixture);
  ASSERT_TRUE(in) << "missing golden fixture " << kFixture;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    BatchRecord record;
    ASSERT_TRUE(parse_batch(line, record));
    EXPECT_EQ(serialize_batch(record), line);
  }
}

}  // namespace
}  // namespace uvmsim
