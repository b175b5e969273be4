// Deterministic span/event tracer: the simulator's equivalent of the
// paper's high-resolution fault-path timers, recorded as structured data
// instead of printfs.
//
// Every layer of the stack (node event chain, UVM driver, GPU engine, host
// OS, interconnect) emits spans and instants against simulated time onto
// named tracks (one per simulated execution context: the driver worker, the
// GPU, and — under DriverConfig::parallelism — each simulated servicing
// thread). The recorded events export as Chrome trace-event JSON
// (analysis/log_io.hpp) loadable in Perfetto / chrome://tracing.
//
// Determinism contract: the tracer only OBSERVES. Emitting events never
// advances simulated time or perturbs any model decision, so a run with
// tracing enabled is bit-identical to the same run with tracing disabled,
// and two identical-seed runs produce byte-identical trace JSON. Callers
// hold a `Tracer*` that is null when tracing is off, making the disabled
// path a single pointer test.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

/// A track is one horizontal timeline in the trace viewer ("tid" in the
/// Chrome trace-event format). Fixed tracks cover the lock-step simulator
/// contexts; parallel servicing workers get kWorkerBase + k.
using TrackId = std::uint32_t;

namespace tracks {
constexpr TrackId kSim = 0;       // node event chain: interrupts, wakeups
constexpr TrackId kDriver = 1;    // driver worker serial timeline
constexpr TrackId kGpu = 2;       // GPU compute / fault generation
constexpr TrackId kCounters = 3;  // access-counter servicing passes
constexpr TrackId kRecovery = 4;  // fatal-fault recovery ladder actions
constexpr TrackId kWorkerBase = 8;  // simulated servicing thread k -> 8 + k
}  // namespace tracks

/// Small ordered key -> integer payload attached to an event (serialized
/// into the Chrome "args" object). A vector keeps insertion order so the
/// JSON is reproducible.
using TraceArgs = std::vector<std::pair<std::string, std::uint64_t>>;

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSpan,     // [begin_ns, end_ns] interval ("X" complete event)
    kInstant,  // point event at begin_ns ("i")
  };

  Kind kind = Kind::kSpan;
  std::string name;
  TrackId track = 0;
  SimTime begin_ns = 0;
  SimTime end_ns = 0;  // == begin_ns for instants
  TraceArgs args;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Tracer {
 public:
  /// Record a completed interval on `track`. Requires end >= begin (the
  /// simulator charges non-negative costs; violations throw to surface
  /// accounting bugs immediately).
  void span(TrackId track, std::string name, SimTime begin_ns, SimTime end_ns,
            TraceArgs args = {});

  /// Record a point event.
  void instant(TrackId track, std::string name, SimTime at_ns,
               TraceArgs args = {});

  /// Name a track for the viewer; idempotent (last writer wins).
  void set_track_name(TrackId track, std::string name);

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::map<TrackId, std::string>& track_names() const noexcept {
    return track_names_;
  }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

 private:
  std::vector<TraceEvent> events_;
  std::map<TrackId, std::string> track_names_;
};

}  // namespace uvmsim
