// The observability switch threaded through the stack.
//
// The Node owns one Tracer per driver and hands every layer a `Tracer*`
// that is null while tracing is off. Components guard each emission site
// with a single pointer test, which is the whole disabled-path cost — no
// flags to consult, no virtual calls, no allocation. Metrics need no
// switch: Node::metrics() builds them from the components' own books after
// the run (obs/metrics.hpp).
#pragma once

#include "obs/trace.hpp"

namespace uvmsim {

/// What the System enables for a run-stream (SystemConfig::obs). Off by
/// default: the stock simulator records no trace.
struct ObsConfig {
  bool trace = false;  // record spans/instants (Chrome trace JSON export)
};

}  // namespace uvmsim
