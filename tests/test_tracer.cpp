// Property tests for the cross-layer tracer (src/obs/): spans nest per
// track, tracing never perturbs the simulation, identical-seed runs trace
// byte-identically, and the Chrome trace-event JSON round-trips through
// log_io exactly. Fuzzed over the shared scenario space (including with
// the fault injector armed) and every servicing policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/log_io.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

using testutil::FuzzCase;
using testutil::make_fuzz_case;
using testutil::make_injected_fuzz_case;
using testutil::small_config;

constexpr std::uint64_t kSeeds = 20;

const std::vector<ServicingPolicy> kPolicies{
    ServicingPolicy::kSerial, ServicingPolicy::kPerVaBlock,
    ServicingPolicy::kPerSm};

struct TracedRun {
  RunResult result;
  std::vector<TraceEvent> events;
  std::map<TrackId, std::string> track_names;
  std::string json;
};

TracedRun traced_run(SystemConfig cfg, const WorkloadSpec& spec) {
  cfg.obs.trace = true;
  System system(cfg);
  TracedRun out;
  out.result = system.run(spec);
  out.events = system.tracer().events();
  out.track_names = system.tracer().track_names();
  out.json = trace_to_json(system.tracer());
  return out;
}

std::vector<std::string> serialized_log(const RunResult& result) {
  std::vector<std::string> lines;
  lines.reserve(result.log.size());
  for (const auto& rec : result.log) lines.push_back(serialize_batch(rec));
  return lines;
}

/// Spans on one track must form a forest: any two either nest (one
/// contains the other, shared edges allowed) or are disjoint. Checked
/// with a stack sweep over spans sorted by (begin asc, end desc) so a
/// container always precedes its contents.
void check_spans_nest(const std::vector<TraceEvent>& events,
                      const char* label) {
  std::map<TrackId, std::vector<const TraceEvent*>> per_track;
  for (const auto& ev : events) {
    ASSERT_GE(ev.end_ns, ev.begin_ns)
        << label << ": event '" << ev.name << "' ends before it begins";
    if (ev.kind == TraceEvent::Kind::kSpan) {
      per_track[ev.track].push_back(&ev);
    }
  }
  for (auto& [track, spans] : per_track) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->begin_ns != b->begin_ns)
                         return a->begin_ns < b->begin_ns;
                       return a->end_ns > b->end_ns;
                     });
    std::vector<const TraceEvent*> open;
    for (const TraceEvent* span : spans) {
      while (!open.empty() && open.back()->end_ns <= span->begin_ns) {
        open.pop_back();
      }
      if (!open.empty()) {
        ASSERT_LE(span->end_ns, open.back()->end_ns)
            << label << ": track " << track << " span '" << span->name
            << "' [" << span->begin_ns << ", " << span->end_ns
            << "] partially overlaps '" << open.back()->name << "' ["
            << open.back()->begin_ns << ", " << open.back()->end_ns << "]";
      }
      open.push_back(span);
    }
  }
}

TEST(Tracer, SpansNestPerTrackAcrossPoliciesAndSeeds) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_fuzz_case(seed);
    for (const auto policy : kPolicies) {
      SystemConfig cfg = c.config;
      cfg.driver.parallelism.policy = policy;
      const TracedRun run = traced_run(cfg, c.spec);
      ASSERT_FALSE(run.events.empty()) << "seed " << seed;
      const std::string label = "seed " + std::to_string(seed) + " policy " +
                                std::to_string(static_cast<int>(policy));
      check_spans_nest(run.events, label.c_str());
    }
  }
}

TEST(Tracer, SpansNestUnderInjectedFaults) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_injected_fuzz_case(seed);
    const TracedRun run = traced_run(c.config, c.spec);
    ASSERT_FALSE(run.events.empty()) << "seed " << seed;
    const std::string label = "injected seed " + std::to_string(seed);
    check_spans_nest(run.events, label.c_str());
  }
}

TEST(Tracer, PromoteSpansLieInsideTheirCounterPass) {
  // A thrash-pinned oversubscribed run whose hot regions the counter
  // servicer promotes, evicting for room. A promote span is stamped on
  // the batch's serial phase timeline, which is the wall clock only when
  // servicing is serial; under per-VABlock workers the pass keeps its
  // envelope and the promotes inside it are not drawn.
  SystemConfig cfg = small_config(8);
  cfg.driver.prefetch_enabled = false;
  cfg.driver.thrash.enabled = true;
  cfg.driver.thrash.mitigation = ThrashMitigation::kPin;
  cfg.driver.access_counters.enabled = true;
  cfg.driver.access_counters.granularity_pages = 16;
  cfg.driver.access_counters.threshold = 4;
  cfg.driver.access_counters.evict_for_promotion = true;
  const WorkloadSpec spec = make_random(16ULL << 20, 0x5eed);
  for (const auto policy :
       {ServicingPolicy::kSerial, ServicingPolicy::kPerVaBlock}) {
    SystemConfig run_cfg = cfg;
    run_cfg.driver.parallelism.policy = policy;
    run_cfg.driver.parallelism.workers = 4;
    const TracedRun run = traced_run(run_cfg, spec);
    ASSERT_GT(totals(run.result.log).ctr_pages_promoted, 0u);
    std::vector<const TraceEvent*> passes;
    std::vector<const TraceEvent*> promotes;
    for (const TraceEvent& ev : run.events) {
      if (ev.name == "counter_service") passes.push_back(&ev);
      if (ev.name == "promote" || ev.name == "peer_promote") {
        promotes.push_back(&ev);
      }
    }
    ASSERT_FALSE(passes.empty());
    if (policy == ServicingPolicy::kSerial) {
      EXPECT_FALSE(promotes.empty());
    }
    for (const TraceEvent* promote : promotes) {
      EXPECT_TRUE(std::any_of(passes.begin(), passes.end(),
                              [&](const TraceEvent* pass) {
                                return pass->begin_ns <= promote->begin_ns &&
                                       promote->end_ns <= pass->end_ns;
                              }))
          << "policy " << static_cast<int>(policy) << ": '" << promote->name
          << "' [" << promote->begin_ns << ", " << promote->end_ns
          << "] lies outside every counter_service pass";
    }
  }
}

TEST(Tracer, TracingDoesNotPerturbTheSimulation) {
  // Determinism contract: the tracer only observes. A traced run's batch
  // log must serialize byte-identically to the untraced run's.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_fuzz_case(seed);
    System plain(c.config);
    const auto baseline = serialized_log(plain.run(c.spec));
    const TracedRun traced = traced_run(c.config, c.spec);
    const auto traced_log = serialized_log(traced.result);
    ASSERT_EQ(traced_log.size(), baseline.size()) << "seed " << seed;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(traced_log[i], baseline[i]) << "seed " << seed << " batch "
                                            << i;
    }
  }
}

TEST(Tracer, IdenticalSeedsTraceByteIdentically) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase base = make_fuzz_case(seed);
    const FuzzCase injected = make_injected_fuzz_case(seed);
    for (const FuzzCase* c : {&base, &injected}) {
      const TracedRun first = traced_run(c->config, c->spec);
      const TracedRun second = traced_run(c->config, c->spec);
      ASSERT_EQ(first.events, second.events) << "seed " << seed;
      ASSERT_EQ(first.json, second.json) << "seed " << seed;
    }
  }
}

TEST(Tracer, JsonRoundTripsThroughLogIo) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = make_injected_fuzz_case(seed);
    SystemConfig cfg = c.config;
    cfg.driver.parallelism.policy =
        kPolicies[static_cast<std::size_t>(seed % kPolicies.size())];
    const TracedRun run = traced_run(cfg, c.spec);

    std::istringstream in(run.json);
    TraceParseResult parsed;
    ASSERT_TRUE(read_trace_json(in, parsed)) << "seed " << seed;
    ASSERT_EQ(parsed.events.size(), run.events.size()) << "seed " << seed;
    for (std::size_t i = 0; i < run.events.size(); ++i) {
      ASSERT_EQ(parsed.events[i], run.events[i])
          << "seed " << seed << " event " << i << " ('"
          << run.events[i].name << "')";
    }
    ASSERT_EQ(parsed.track_names, run.track_names) << "seed " << seed;
  }
}

TEST(Tracer, WorkerTracksAppearOnlyUnderParallelServicing) {
  SystemConfig serial_cfg = small_config();
  const auto spec = make_stream_triad(1 << 15);
  const TracedRun serial = traced_run(serial_cfg, spec);
  for (const auto& ev : serial.events) {
    EXPECT_LT(ev.track, tracks::kWorkerBase)
        << "serial run emitted worker-track event '" << ev.name << "'";
  }

  SystemConfig par_cfg = small_config();
  par_cfg.driver.parallelism = {ServicingPolicy::kPerVaBlock, 4};
  const TracedRun parallel = traced_run(par_cfg, spec);
  bool saw_worker = false;
  for (const auto& ev : parallel.events) {
    if (ev.track >= tracks::kWorkerBase) {
      saw_worker = true;
      EXPECT_LT(ev.track, tracks::kWorkerBase + 4u)
          << "worker track beyond configured worker count";
    }
  }
  EXPECT_TRUE(saw_worker) << "parallel run produced no worker spans";
  for (TrackId t = tracks::kWorkerBase; t < tracks::kWorkerBase + 4u; ++t) {
    if (parallel.track_names.count(t)) {
      EXPECT_NE(parallel.track_names.at(t).find("worker"), std::string::npos);
    }
  }
}

TEST(Tracer, DisabledTracingLeavesTracerEmpty) {
  SystemConfig cfg = small_config();
  System system(cfg);  // obs.trace defaults to off
  const auto result = system.run(make_vecadd_paged());
  ASSERT_FALSE(result.log.empty());
  EXPECT_TRUE(system.tracer().empty());
  EXPECT_TRUE(system.tracer().track_names().empty());
}

}  // namespace
}  // namespace uvmsim
