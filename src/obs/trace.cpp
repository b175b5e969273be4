#include "obs/trace.hpp"

#include <stdexcept>

namespace uvmsim {

void Tracer::span(TrackId track, std::string name, SimTime begin_ns,
                  SimTime end_ns, TraceArgs args) {
  if (end_ns < begin_ns) {
    throw std::logic_error("uvmsim: trace span '" + name +
                           "' ends before it begins");
  }
  TraceEvent e;
  e.kind = TraceEvent::Kind::kSpan;
  e.name = std::move(name);
  e.track = track;
  e.begin_ns = begin_ns;
  e.end_ns = end_ns;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::instant(TrackId track, std::string name, SimTime at_ns,
                     TraceArgs args) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kInstant;
  e.name = std::move(name);
  e.track = track;
  e.begin_ns = at_ns;
  e.end_ns = at_ns;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::set_track_name(TrackId track, std::string name) {
  track_names_[track] = std::move(name);
}

}  // namespace uvmsim
