// Central registry of named counters, gauges, and log2-bucket histograms:
// the structured replacement for ad-hoc per-run tallies.
//
// Every component that used to keep a private running total (faults
// emitted, bytes copied, radix nodes allocated, ...) also publishes it
// here under a stable dotted name (driver.pages_migrated,
// copy.bytes_h2d), so a run's full accounting is snapshotable mid-run
// and serializable to JSON (analysis/log_io.hpp) without touching any
// component API. The legacy BatchRecord counters remain the unit of
// analysis for per-batch work; the registry is their cross-layer
// aggregation — tests/test_metrics.cpp holds the two bit-exactly equal.
//
// Determinism contract: identical runs produce identical registries, and
// serialization iterates the name-sorted maps, so snapshots are
// byte-reproducible. Like the Tracer, the registry only observes; callers
// hold a `MetricsRegistry*` that is null when metrics are off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"

namespace uvmsim {

class MetricsRegistry {
 public:
  /// Add `delta` to the named monotonic counter (created at 0 on first
  /// touch).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Set the named gauge to `value` (last writer wins).
  void set_gauge(std::string_view name, std::int64_t value);

  /// Record one sample into the named log2-bucket histogram.
  void observe(std::string_view name, std::uint64_t sample);

  /// Current counter value; 0 for a name never touched.
  std::uint64_t counter(std::string_view name) const noexcept;

  /// Current gauge value; 0 for a name never set.
  std::int64_t gauge(std::string_view name) const noexcept;

  /// The named histogram, or nullptr if no sample was ever recorded.
  const Log2Histogram* histogram(std::string_view name) const noexcept;

  // Name-sorted views for serialization and tests.
  const std::map<std::string, std::uint64_t, std::less<>>& counters()
      const noexcept {
    return counters_;
  }
  const std::map<std::string, std::int64_t, std::less<>>& gauges()
      const noexcept {
    return gauges_;
  }
  const std::map<std::string, Log2Histogram, std::less<>>& histograms()
      const noexcept {
    return histograms_;
  }

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, Log2Histogram, std::less<>> histograms_;
};

}  // namespace uvmsim
