// Batch-log serialization: the library's version of the authors' logging
// tool ("a custom logging tool that is more reliable than dmesg").
//
// One line per batch, `key=value` pairs, stable across versions as long
// as unknown keys are tolerated (the parser skips them). Detail vectors
// are encoded as comma-separated lists. Round-trips exactly.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "uvm/batch.hpp"

namespace uvmsim {

/// Write one batch as a single line (no trailing newline).
std::string serialize_batch(const BatchRecord& record);

/// Write the whole log, one line per batch.
void write_batch_log(std::ostream& out, const BatchLog& log);

/// Parse one line; returns false on malformed input (record untouched).
bool parse_batch(const std::string& line, BatchRecord& record);

/// Parse a whole stream; malformed lines are skipped and counted.
struct ParseResult {
  BatchLog log;
  std::size_t skipped_lines = 0;
};
ParseResult read_batch_log(std::istream& in);

// ---- Chrome trace-event JSON (Perfetto / chrome://tracing) --------------
//
// One event object per line inside "traceEvents": thread-name metadata
// ("M") first, then every recorded event in emission order — spans as
// complete events ("X") and instants ("i").
// Timestamps are simulated nanoseconds rendered as microseconds with
// exactly three fractional digits via integer math, so identical-seed
// runs serialize byte-identically (no floating-point formatting on the
// timeline).

/// Serialize a recorded trace. Output ends with a newline.
std::string trace_to_json(const Tracer& tracer);
void write_trace_json(std::ostream& out, const Tracer& tracer);

/// Parse JSON previously produced by trace_to_json (the emitted subset of
/// the Chrome trace-event format). On success, `events` and `track_names`
/// equal the originating tracer's state exactly.
struct TraceParseResult {
  std::vector<TraceEvent> events;
  std::map<TrackId, std::string> track_names;
};
bool read_trace_json(std::istream& in, TraceParseResult& out);

// ---- Metrics JSON -------------------------------------------------------
//
// A snapshot of the registry: {"counters": {...}, "gauges": {...},
// "histograms": {...}} with names in sorted order (the registry's own
// iteration order). Histograms report count/sum/min/max, interpolated
// p50/p95/p99, and the non-empty log2 buckets as [lo, hi, count] triples.

std::string metrics_to_json(const MetricsRegistry& registry);
void write_metrics_json(std::ostream& out, const MetricsRegistry& registry);

}  // namespace uvmsim
