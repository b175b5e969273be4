// uvmsim chaos harness: randomized fault-injection schedules against the
// recovery ladder, with automatic shrinking of failing schedules.
//
// A *schedule* is a full knob assignment — transient error rates, fatal
// class rates, retry/watchdog/pool settings, batching — derived
// deterministically from one seed. Each schedule runs under the shared
// run oracle (analysis/invariants.hpp) plus a replay-determinism check;
// a violation is a finding. The harness then *shrinks* the schedule:
// greedily resetting knobs to their benign values while the failure
// persists, until the schedule is 1-minimal (resetting any single
// remaining non-benign knob makes the failure vanish). The reproducer it
// prints is the smallest configuration that still trips the oracle.
//
//   uvmsim_chaos --schedules 25 --seed 1          # exploration / CI smoke
//   uvmsim_chaos --check-seed 7 --verbose         # one schedule, verbose
//   uvmsim_chaos --demo-shrink                    # shrinker self-test
//
// Exit codes: 0 = no violations (or demo shrink verified), 1 = a violation
// was found (reproducer printed), 2 = usage error.
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "analysis/log_io.hpp"
#include "core/system.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace uvmsim;

// ---- Knob schedule ---------------------------------------------------------

// One knob: a name, the benign value (injection off / stock driver), and
// the chaotic value range this knob draws from. Everything is stored as a
// double and rounded where integral; that keeps the shrinker generic.
struct Knob {
  const char* name;
  double benign;
  std::function<double(std::mt19937_64&)> draw;
};

double uniform_choice(std::mt19937_64& rng, std::vector<double> values) {
  return values[rng() % values.size()];
}

const std::vector<Knob>& knob_table() {
  static const std::vector<Knob> table = {
      {"transfer_error_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.1, 0.4, 1.0}); }},
      {"dma_map_error_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.1, 0.4}); }},
      {"interrupt_delay_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.2, 0.5}); }},
      {"interrupt_loss_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.2, 0.5}); }},
      {"storm_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.1, 0.3}); }},
      {"ecc_double_bit_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.01, 0.05}); }},
      {"poison_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.01, 0.05}); }},
      {"ce_permanent_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.5, 1.0}); }},
      {"wedge_prob", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.05, 0.2}); }},
      {"wedge_gpu_reset_frac", 0.0,
       [](auto& r) { return uniform_choice(r, {0.0, 0.5, 1.0}); }},
      {"retry_max_attempts", 4.0,
       [](auto& r) { return uniform_choice(r, {1.0, 2.0, 4.0}); }},
      {"watchdog_stuck_wakeups", 3.0,
       [](auto& r) { return uniform_choice(r, {1.0, 2.0, 3.0}); }},
      {"retired_page_pool_blocks", 64.0,
       [](auto& r) { return uniform_choice(r, {1.0, 2.0, 64.0}); }},
      {"batch_size", 256.0,
       [](auto& r) { return uniform_choice(r, {64.0, 128.0, 256.0}); }},
      {"prefetch_enabled", 1.0,
       [](auto& r) { return uniform_choice(r, {0.0, 1.0}); }},
  };
  return table;
}

struct Schedule {
  std::uint64_t seed = 0;  // also the simulator seed
  std::vector<double> values;

  double get(const char* name) const {
    const auto& table = knob_table();
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (std::strcmp(table[i].name, name) == 0) return values[i];
    }
    std::fprintf(stderr, "unknown knob %s\n", name);
    std::abort();
  }
  bool is_benign(std::size_t i) const {
    return values[i] == knob_table()[i].benign;
  }
  std::size_t non_benign_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < values.size(); ++i) n += !is_benign(i);
    return n;
  }
};

Schedule make_schedule(std::uint64_t seed) {
  std::mt19937_64 rng(0xC4A05ULL ^ (seed * 0x9E3779B97F4A7C15ULL));
  Schedule s;
  s.seed = seed;
  for (const auto& knob : knob_table()) s.values.push_back(knob.draw(rng));
  return s;
}

SystemConfig to_config(const Schedule& s) {
  SystemConfig cfg = presets::scaled_titan_v(256);
  cfg.seed = s.seed;
  cfg.driver.batch_size = static_cast<std::uint32_t>(s.get("batch_size"));
  cfg.driver.prefetch_enabled = s.get("prefetch_enabled") != 0.0;
  cfg.driver.big_page_promotion = cfg.driver.prefetch_enabled;
  cfg.driver.retry.max_attempts =
      static_cast<std::uint32_t>(s.get("retry_max_attempts"));

  auto& inj = cfg.driver.inject;
  inj.transfer_error_prob = s.get("transfer_error_prob");
  inj.dma_map_error_prob = s.get("dma_map_error_prob");
  inj.interrupt_delay_prob = s.get("interrupt_delay_prob");
  inj.interrupt_loss_prob = s.get("interrupt_loss_prob");
  inj.storm_prob = s.get("storm_prob");
  inj.ecc_double_bit_prob = s.get("ecc_double_bit_prob");
  inj.poison_prob = s.get("poison_prob");
  inj.ce_permanent_prob = s.get("ce_permanent_prob");
  inj.wedge_prob = s.get("wedge_prob");
  inj.wedge_gpu_reset_frac = s.get("wedge_gpu_reset_frac");
  inj.enabled = inj.active();  // armed only when some site has a rate
  inj.seed = s.seed;

  auto& rec = cfg.driver.recovery;
  rec.enabled = cfg.driver.inject.fatal_active();
  rec.watchdog_stuck_wakeups =
      static_cast<std::uint32_t>(s.get("watchdog_stuck_wakeups"));
  rec.retired_page_pool =
      static_cast<std::uint32_t>(s.get("retired_page_pool_blocks")) *
      kPagesPerVaBlock;
  return cfg;
}

void print_schedule(const Schedule& s, const char* prefix) {
  const auto& table = knob_table();
  std::printf("%sseed=%llu\n", prefix,
              static_cast<unsigned long long>(s.seed));
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (s.is_benign(i)) continue;
    std::printf("%s%s=%g  (benign: %g)\n", prefix, table[i].name, s.values[i],
                table[i].benign);
  }
  if (s.non_benign_count() == 0) std::printf("%s(all knobs benign)\n", prefix);
}

// ---- Invariant oracle ------------------------------------------------------

std::string log_text(const RunResult& result) {
  std::string text;
  for (const auto& rec : result.log) {
    text += serialize_batch(rec);
    text += '\n';
  }
  return text;
}

/// Run one schedule and check every invariant the simulator promises: the
/// shared run oracle (analysis/invariants.hpp), that the run faulted at
/// all, and replay determinism. Returns the first violation's
/// description, or nullopt when clean.
std::optional<std::string> violation(const Schedule& s,
                                     std::uint64_t elements) {
  const SystemConfig cfg = to_config(s);
  const WorkloadSpec spec = make_stream_triad(elements);
  System system(cfg);
  RunResult result;
  try {
    result = system.run(spec);
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
  if (result.total_faults == 0) {
    return std::string("invariant: run produced no faults");
  }
  const auto found = run_violations(system.driver(), result);
  if (!found.empty()) return "invariant: " + found.front();

  // Replay determinism: same schedule, bit-identical batch log.
  System replay_system(cfg);
  const RunResult replay = replay_system.run(spec);
  if (log_text(replay) != log_text(result)) {
    return std::string("invariant: replay log differs (nondeterminism)");
  }
  return std::nullopt;
}

// ---- Shrinker --------------------------------------------------------------

using Predicate = std::function<std::optional<std::string>(const Schedule&)>;

/// Greedy schedule shrinking: walk the knobs, resetting each to its
/// benign value whenever the failure persists without it, and repeat
/// until a full pass changes nothing. The result is 1-minimal: resetting
/// any single remaining non-benign knob makes the failure disappear.
Schedule shrink(Schedule failing, const Predicate& fails, bool verbose) {
  const auto& table = knob_table();
  bool changed = true;
  int passes = 0;
  while (changed) {
    changed = false;
    ++passes;
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (failing.is_benign(i)) continue;
      Schedule candidate = failing;
      candidate.values[i] = table[i].benign;
      if (fails(candidate)) {
        failing = candidate;  // knob not needed for the failure
        changed = true;
        if (verbose) {
          std::printf("  shrink: %s -> benign (failure persists)\n",
                      table[i].name);
        }
      } else if (verbose) {
        std::printf("  shrink: %s is load-bearing\n", table[i].name);
      }
    }
  }
  if (verbose) {
    std::printf("  shrink converged after %d pass(es), %zu knob(s) remain\n",
                passes, failing.non_benign_count());
  }
  return failing;
}

// ---- Modes -----------------------------------------------------------------

int run_exploration(std::uint64_t schedules, std::uint64_t seed0,
                    std::uint64_t elements, bool verbose) {
  for (std::uint64_t i = 0; i < schedules; ++i) {
    const Schedule s = make_schedule(seed0 + i);
    if (verbose) {
      std::printf("schedule %llu:\n",
                  static_cast<unsigned long long>(s.seed));
      print_schedule(s, "  ");
    }
    const auto failure = violation(s, elements);
    if (!failure) continue;

    std::printf("FAILING SCHEDULE (seed %llu): %s\n",
                static_cast<unsigned long long>(s.seed), failure->c_str());
    const Predicate still_fails = [&](const Schedule& c) {
      return violation(c, elements);
    };
    const Schedule minimal = shrink(s, still_fails, verbose);
    std::printf("minimal reproducer (%zu non-benign knob(s)):\n",
                minimal.non_benign_count());
    print_schedule(minimal, "  ");
    const auto minimal_failure = violation(minimal, elements);
    std::printf("  failure: %s\n",
                minimal_failure ? minimal_failure->c_str() : "(vanished!)");
    return 1;
  }
  std::printf("chaos: %llu schedule(s) clean (seeds %llu..%llu)\n",
              static_cast<unsigned long long>(schedules),
              static_cast<unsigned long long>(seed0),
              static_cast<unsigned long long>(seed0 + schedules - 1));
  return 0;
}

/// Shrinker self-test with a synthetic predicate: a schedule "fails" iff
/// BOTH the wedge and CE classes are armed (a planted two-knob
/// interaction bug). Verifies the shrinker finds exactly that pair and
/// that the result is 1-minimal. This is the CI gate for the shrinking
/// machinery itself — it must work on the day a real violation appears.
int run_demo_shrink(bool verbose) {
  const Predicate planted = [](const Schedule& s) -> std::optional<std::string> {
    if (s.get("wedge_prob") > 0.0 && s.get("ce_permanent_prob") > 0.0) {
      return std::string("planted interaction: wedge x ce-permanent");
    }
    return std::nullopt;
  };

  // Find a seed whose schedule trips the planted bug, as exploration would.
  Schedule failing = make_schedule(0);
  std::uint64_t seed = 0;
  while (!planted(failing)) failing = make_schedule(++seed);
  std::printf("demo: seed %llu trips the planted bug with %zu knob(s):\n",
              static_cast<unsigned long long>(seed),
              failing.non_benign_count());
  print_schedule(failing, "  ");

  const Schedule minimal = shrink(failing, planted, verbose);
  std::printf("demo: minimal reproducer:\n");
  print_schedule(minimal, "  ");

  // Exactly the two load-bearing knobs survive...
  if (minimal.non_benign_count() != 2 || !planted(minimal)) {
    std::printf("demo: FAILED — expected exactly the 2 planted knobs\n");
    return 1;
  }
  // ...and the result is 1-minimal: benign-ing either one passes.
  const auto& table = knob_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (minimal.is_benign(i)) continue;
    Schedule c = minimal;
    c.values[i] = table[i].benign;
    if (planted(c)) {
      std::printf("demo: FAILED — %s is not load-bearing\n", table[i].name);
      return 1;
    }
  }
  std::printf("demo: shrink verified (2-knob reproducer, 1-minimal)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t schedules = 10;
  std::uint64_t seed0 = 1;
  std::uint64_t elements = 1 << 16;
  bool verbose = false;
  bool demo = false;
  std::optional<std::uint64_t> check_seed;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_u64 = [&](std::uint64_t& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      out = std::stoull(argv[++i]);
    };
    if (arg == "--schedules") {
      next_u64(schedules);
    } else if (arg == "--seed") {
      next_u64(seed0);
    } else if (arg == "--elements") {
      next_u64(elements);
    } else if (arg == "--check-seed") {
      std::uint64_t s = 0;
      next_u64(s);
      check_seed = s;
    } else if (arg == "--demo-shrink") {
      demo = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: uvmsim_chaos [--schedules N] [--seed S]\n"
                   "                    [--elements E] [--check-seed S]\n"
                   "                    [--demo-shrink] [--verbose]\n");
      return 2;
    }
  }

  if (demo) return run_demo_shrink(verbose);
  if (check_seed) return run_exploration(1, *check_seed, elements, true);
  return run_exploration(schedules, seed0, elements, verbose);
}
