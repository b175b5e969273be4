// A snapshot of a run's accounting as named counters, gauges and log2-bucket
// histograms under stable dotted names (driver.pages_migrated,
// copy.bytes_h2d), serializable to JSON (analysis/log_io.hpp).
//
// Nothing writes a snapshot during a run. Every component keeps its own
// books (the batch log, the engines' and copy engine's counters, the DMA
// mapper's, the node's run totals), and Node::metrics() reads them once,
// after the run, into a fresh snapshot: one place decides which numbers are
// published and under what names. tests/test_metrics.cpp holds the
// snapshot's `driver.*` and `phase.*` counters equal to sums over the batch
// log.
//
// Determinism contract: identical runs produce identical snapshots, and
// serialization iterates the name-sorted maps, so snapshots are
// byte-reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace uvmsim {

struct MetricsRegistry {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, std::int64_t, std::less<>> gauges;
  std::map<std::string, Log2Histogram, std::less<>> histograms;
};

}  // namespace uvmsim
