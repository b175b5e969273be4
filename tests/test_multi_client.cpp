#include "core/multi_client.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/log_io.hpp"
#include "analysis/tenant_report.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

using testutil::small_config;

// A 64-client roster cycling through four paper workloads with varied
// footprints, so contention mixes regular, strided, and butterfly access.
std::vector<WorkloadSpec> mixed_roster_64() {
  std::vector<WorkloadSpec> specs;
  specs.reserve(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    switch (i % 4) {
      case 0:
        specs.push_back(make_stream_triad(1u << (11 + i % 3)));
        break;
      case 1:
        specs.push_back(make_vecadd_coalesced(1u << (11 + i % 3)));
        break;
      case 2:
        specs.push_back(make_fft(1u << (10 + i % 3)));
        break;
      default:
        specs.push_back(make_random(1u << 18, 77 + i));
        break;
    }
  }
  return specs;
}

std::size_t count_driver_spans(const Tracer& tracer, const std::string& name) {
  std::size_t n = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.kind == TraceEvent::Kind::kSpan && e.track == tracks::kDriver &&
        e.name == name) {
      ++n;
    }
  }
  return n;
}

TEST(MultiClient, RequiresOneSpecPerClient) {
  MultiClientSystem multi(small_config(), 2);
  EXPECT_THROW(multi.run({make_stream_triad(1 << 12)}),
               std::invalid_argument);
}

TEST(MultiClient, SingleClientMatchesStandaloneFootprint) {
  // One node, one simulator: a one-tenant MultiClientSystem seeded s is
  // System seeded s + 0x9E37 (tenant i's engine seed is s + 0x9E37 * (i+1))
  // — the same batch log, kernel time, faults and executed events.
  const std::vector<WorkloadSpec> specs = {make_stream_triad(1 << 15),
                                           make_stream_triad(1 << 20),
                                           make_fft(1 << 16)};
  for (const std::uint64_t gpu_mb : {256u, 8u}) {
    for (const WorkloadSpec& spec : specs) {
      const std::string what =
          spec.name + " on " + std::to_string(gpu_mb) + " MB";
      SystemConfig standalone_cfg = small_config(gpu_mb);
      standalone_cfg.seed += 0x9E37;
      System standalone(standalone_cfg);
      const auto solo = standalone.run(spec);

      MultiClientSystem multi(small_config(gpu_mb), 1);
      const auto shared = multi.run({spec});

      ASSERT_EQ(shared.per_client.size(), 1u);
      const RunResult& client = shared.per_client[0];
      EXPECT_EQ(multi.driver(0).va_space().gpu_resident_pages(),
                standalone.driver().va_space().gpu_resident_pages())
          << what;
      ASSERT_GT(client.log.size(), 0u) << what;
      ASSERT_EQ(client.log.size(), solo.log.size()) << what;
      for (std::size_t b = 0; b < solo.log.size(); ++b) {
        ASSERT_EQ(serialize_batch(client.log[b]), serialize_batch(solo.log[b]))
            << what << " batch " << b;
      }
      EXPECT_EQ(client.kernel_time_ns, solo.kernel_time_ns) << what;
      EXPECT_EQ(client.total_faults, solo.total_faults) << what;
      EXPECT_EQ(multi.engine_stats().executed,
                standalone.engine_stats().executed)
          << what;
    }
  }
}

TEST(MultiClient, AllClientsComplete) {
  MultiClientSystem multi(small_config(), 3);
  const auto result = multi.run({make_stream_triad(1 << 14),
                                 make_vecadd_coalesced(1 << 14),
                                 make_stream_triad(1 << 13)});
  ASSERT_EQ(result.per_client.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_GT(result.per_client[i].total_faults, 0u) << i;
    EXPECT_GT(multi.driver(i).va_space().gpu_resident_pages(), 0u) << i;
  }
  EXPECT_GT(result.makespan_ns, 0u);
  EXPECT_LE(result.worker_busy_ns, result.makespan_ns);
}

TEST(MultiClient, DriverContentionSlowsClients) {
  // The §6 serial-bottleneck prediction: the same workload takes longer
  // per client when the worker also serves a second device.
  const auto spec = make_stream_triad(1 << 16);

  MultiClientSystem one(small_config(), 1);
  const auto solo = one.run({spec});

  MultiClientSystem two(small_config(), 2);
  const auto pair = two.run({spec, spec});

  EXPECT_GT(pair.per_client[0].kernel_time_ns,
            solo.per_client[0].kernel_time_ns);
  EXPECT_GT(pair.makespan_ns, solo.makespan_ns);
}

TEST(MultiClient, ClientsAreIsolated) {
  // Different workloads per client: each client's VA space sees only its
  // own allocations; evictions on one never touch the other.
  SystemConfig cfg = presets::scaled_titan_v(16);  // client 0 oversubscribes
  MultiClientSystem multi(cfg, 2);
  const auto result = multi.run(
      {make_stream_triad(1 << 20, 2), make_vecadd_coalesced(1 << 12)});
  EXPECT_GT(result.per_client[0].evictions, 0u);
  EXPECT_EQ(result.per_client[1].evictions, 0u);
  EXPECT_LE(multi.driver(0).va_space().gpu_resident_pages() * kPageSize,
            cfg.gpu.memory_bytes);
}

TEST(MultiClient, DeterministicAcrossRuns) {
  const auto build = [] {
    MultiClientSystem multi(small_config(), 2);
    return multi.run({make_stream_triad(1 << 14), make_fft(1 << 13)});
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.batches_serviced, b.batches_serviced);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.per_client[i].total_faults, b.per_client[i].total_faults);
  }
}

TEST(MultiClient, SixtyFourClientMixedWorkloadCompletes) {
  SystemConfig cfg = small_config();
  cfg.obs.trace = true;
  MultiClientSystem multi(cfg, 64);
  const auto result = multi.run(mixed_roster_64());

  ASSERT_EQ(result.per_client.size(), 64u);
  std::uint64_t batches = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_GT(result.per_client[i].total_faults, 0u) << "client " << i;
    EXPECT_GT(result.per_client[i].kernel_time_ns, 0u) << "client " << i;
    EXPECT_LE(result.per_client[i].kernel_time_ns, result.makespan_ns)
        << "client " << i;
    EXPECT_GT(multi.driver(i).va_space().gpu_resident_pages(), 0u)
        << "client " << i;
    batches += result.per_client[i].log.size();
  }
  EXPECT_EQ(result.batches_serviced, batches);
  EXPECT_LE(result.worker_busy_ns, result.makespan_ns);
  // The node's one event chain: the launch, then per grant an interrupt,
  // one service event per batch and the service that found the buffer
  // drained. Every posted event runs; none is cancelled.
  std::uint64_t grants = 0;
  std::uint64_t refills = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    grants += result.per_tenant[i].grants;
    refills += result.per_client[i].forced_throttle_refills;
  }
  EXPECT_EQ(refills, 0u);
  const auto& stats = multi.engine_stats();
  EXPECT_EQ(stats.executed, 1 + 2 * grants + result.batches_serviced);
  EXPECT_EQ(stats.posted, stats.executed);
}

TEST(MultiClient, PerClientTracesAreIsolated) {
  // Each client records into its OWN tracer. The shared worker serves all
  // 64 clients interleaved, so the isolation claim is: client i's tracer
  // holds exactly i's serviced batches (one "fetch" + one "dedup" span
  // per batch) and i's own grants, and nothing from any other client.
  SystemConfig cfg = small_config();
  cfg.obs.trace = true;
  MultiClientSystem multi(cfg, 64);
  const auto result = multi.run(mixed_roster_64());

  std::size_t traced_batches = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const Tracer* tracer = multi.client_tracer(i);
    ASSERT_NE(tracer, nullptr) << "client " << i;
    EXPECT_FALSE(tracer->empty()) << "client " << i;
    const std::size_t fetches = count_driver_spans(*tracer, "fetch");
    EXPECT_EQ(fetches, result.per_client[i].log.size()) << "client " << i;
    EXPECT_EQ(count_driver_spans(*tracer, "dedup"),
              result.per_client[i].log.size())
        << "client " << i;
    traced_batches += fetches;
    // The shared chain traces each grant's interrupt into the granted
    // client's timeline only.
    std::uint64_t interrupts = 0;
    for (const TraceEvent& e : tracer->events()) {
      if (e.kind == TraceEvent::Kind::kInstant && e.track == tracks::kSim &&
          e.name == "interrupt") {
        ++interrupts;
      }
    }
    EXPECT_EQ(interrupts, result.per_tenant[i].grants) << "client " << i;
  }
  // Every serviced batch was traced by exactly one client.
  EXPECT_EQ(traced_batches, result.batches_serviced);
}

// Everything a multi-tenant run externalizes, serialized for bytewise
// comparison: aggregates, the per-tenant ledger, every client's batch log.
std::string serialize_multi_run(const MultiClientResult& result) {
  std::string out = "makespan=" + std::to_string(result.makespan_ns) +
                    " busy=" + std::to_string(result.worker_busy_ns) +
                    " batches=" + std::to_string(result.batches_serviced) +
                    "\n";
  for (std::size_t i = 0; i < result.per_tenant.size(); ++i) {
    out += serialize_tenant(i, result.per_tenant[i]);
    out += '\n';
  }
  for (const RunResult& r : result.per_client) {
    for (const auto& rec : r.log) {
      out += serialize_batch(rec);
      out += '\n';
    }
  }
  return out;
}

TEST(MultiClient, UniformFcfsTenantsAreByteIdenticalToLegacyRoster) {
  // The compatibility contract: uniform weights + quotas off + FCFS is
  // THE pre-tenant system — same arbitration, same seeds, same bytes.
  SystemConfig cfg = small_config();
  MultiClientSystem legacy(cfg, 16);
  MultiClientSystem tenants(cfg, std::vector<TenantConfig>(16),
                            TenantSchedConfig{});
  const std::vector<WorkloadSpec> roster = mixed_roster_64();
  const std::vector<WorkloadSpec> specs(roster.begin(), roster.begin() + 16);
  const auto a = legacy.run(specs);
  const auto b = tenants.run(specs);
  EXPECT_EQ(b.sched_policy, TenantSchedPolicy::kFcfs);
  ASSERT_EQ(serialize_multi_run(b), serialize_multi_run(a));
}

}  // namespace
}  // namespace uvmsim
