// The nullable observability handle threaded through the stack.
//
// The System owns one Tracer and one MetricsRegistry per run-stream and
// hands every layer an `Obs` whose pointers are null for whichever sink is
// disabled. Components guard each emission site with a single pointer
// test, which is the whole disabled-path cost — no flags to consult, no
// virtual calls, no allocation.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace uvmsim {

/// What the System enables for a run-stream (SystemConfig::obs). Both
/// default off: the stock simulator does zero observability work.
struct ObsConfig {
  bool trace = false;    // record spans/instants (Chrome trace JSON export)
  bool metrics = false;  // record named counters/gauges/histograms
};

/// Borrowed sinks; either or both may be null. Copy freely.
struct Obs {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;

  bool any() const noexcept { return tracer || metrics; }
};

}  // namespace uvmsim
