#include "analysis/log_io.hpp"

#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

namespace uvmsim {
namespace {

// Keys of the BatchRecord members outside the field list: the header, then
// the optional per-batch detail lists.
constexpr std::string_view kId = "id";
constexpr std::string_view kStart = "start";
constexpr std::string_view kEnd = "end";
constexpr std::string_view kFaultsPerSm = "sm";
constexpr std::string_view kVaBlockFaults = "vabf";
constexpr std::string_view kVaBlockServiceNs = "vabt";
constexpr std::string_view kFirstTouch = "ft";
constexpr std::string_view kEvicted = "ev";

void append_u64(std::string& out, std::string_view key, std::uint64_t value) {
  out += ' ';
  out += key;
  out += '=';
  out += std::to_string(value);
}

template <typename T>
void append_list(std::string& out, std::string_view key,
                 const std::vector<T>& values, const auto& format) {
  if (values.empty()) return;
  out += ' ';
  out += key;
  out += '=';
  bool first = true;
  for (const auto& v : values) {
    if (!first) out += ',';
    first = false;
    out += format(v);
  }
}

bool parse_u64(std::string_view text, std::uint64_t& value) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Split "a,b,c" and invoke `sink` per element; false on any parse error.
bool parse_list(std::string_view text, const auto& sink) {
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    if (!sink(item)) return false;
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return true;
}

}  // namespace

std::string serialize_batch(const BatchRecord& record) {
  std::string out = "batch";
  append_u64(out, kId, record.id);
  append_u64(out, kStart, record.start_ns);
  append_u64(out, kEnd, record.end_ns);

  // A field outside BatchGroup::kCore is written only when nonzero.
  for_each_batch_field([&](const BatchField& field, auto get) {
    const std::uint64_t value = get(record);
    if (field.group == BatchGroup::kCore || value != 0) {
      append_u64(out, field.key, value);
    }
  });

  append_list(out, kFaultsPerSm, record.faults_per_sm,
              [](std::uint16_t v) { return std::to_string(v); });
  const auto pair = [](const auto& pr) {
    return std::to_string(pr.first) + ':' + std::to_string(pr.second);
  };
  append_list(out, kVaBlockFaults, record.vablock_faults, pair);
  append_list(out, kVaBlockServiceNs, record.vablock_service_ns, pair);
  append_list(out, kFirstTouch, record.first_touch_blocks,
              [](VaBlockId v) { return std::to_string(v); });
  append_list(out, kEvicted, record.evicted_blocks,
              [](VaBlockId v) { return std::to_string(v); });
  return out;
}

void write_batch_log(std::ostream& out, const BatchLog& log) {
  for (const auto& record : log) {
    out << serialize_batch(record) << '\n';
  }
}

bool parse_batch(const std::string& line, BatchRecord& record) {
  std::istringstream tokens(line);
  std::string tag;
  tokens >> tag;
  if (tag != "batch") return false;

  BatchRecord parsed;
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string_view key = std::string_view(token).substr(0, eq);
    const std::string_view value = std::string_view(token).substr(eq + 1);

    const auto pair_sink = [&](auto& vec) {
      return parse_list(value, [&](std::string_view item) {
        const std::size_t colon = item.find(':');
        if (colon == std::string_view::npos) return false;
        std::uint64_t a = 0, b = 0;
        if (!parse_u64(item.substr(0, colon), a) ||
            !parse_u64(item.substr(colon + 1), b)) {
          return false;
        }
        vec.emplace_back(a, static_cast<typename std::decay_t<
                                decltype(vec)>::value_type::second_type>(b));
        return true;
      });
    };

    std::uint64_t u = 0;
    bool ok = true;
    if (key == kFaultsPerSm) {
      ok = parse_list(value, [&](std::string_view item) {
        std::uint64_t v = 0;
        if (!parse_u64(item, v)) return false;
        parsed.faults_per_sm.push_back(static_cast<std::uint16_t>(v));
        return true;
      });
    } else if (key == kVaBlockFaults) {
      ok = pair_sink(parsed.vablock_faults);
    } else if (key == kVaBlockServiceNs) {
      ok = pair_sink(parsed.vablock_service_ns);
    } else if (key == kFirstTouch || key == kEvicted) {
      auto& vec = key == kFirstTouch ? parsed.first_touch_blocks
                                     : parsed.evicted_blocks;
      ok = parse_list(value, [&](std::string_view item) {
        std::uint64_t v = 0;
        if (!parse_u64(item, v)) return false;
        vec.push_back(v);
        return true;
      });
    } else if (parse_u64(value, u)) {
      if (key == kId) parsed.id = static_cast<std::uint32_t>(u);
      else if (key == kStart) parsed.start_ns = u;
      else if (key == kEnd) parsed.end_ns = u;
      else for_each_batch_field([&](const BatchField& field, auto get) {
        if (key != field.key) return;
        auto& member = get(parsed);
        member = static_cast<std::remove_reference_t<decltype(member)>>(u);
      });
      // Unknown numeric keys are tolerated for forward compatibility.
    } else {
      return false;
    }
    if (!ok) return false;
  }
  record = std::move(parsed);
  return true;
}

ParseResult read_batch_log(std::istream& in) {
  ParseResult result;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    BatchRecord record;
    if (parse_batch(line, record)) {
      result.log.push_back(std::move(record));
    } else {
      ++result.skipped_lines;
    }
  }
  return result;
}

// ---- Chrome trace-event JSON --------------------------------------------

namespace {

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(ch >> 4) & 0xF];
          out += kHex[ch & 0xF];
        } else {
          out += ch;
        }
    }
  }
}

/// Simulated ns rendered as Chrome-trace microseconds with exactly three
/// fractional digits — pure integer math, so the text is reproducible.
void append_us(std::string& out, SimTime ns) {
  out += std::to_string(ns / 1000);
  out += '.';
  const SimTime frac = ns % 1000;
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + frac / 10 % 10);
  out += static_cast<char>('0' + frac % 10);
}

void append_trace_args(std::string& out, const TraceArgs& args) {
  out += ", \"args\": {";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    append_json_escaped(out, key);
    out += "\": ";
    out += std::to_string(value);
  }
  out += '}';
}

/// Minimal scanner for one serialized trace-event object (the subset
/// trace_to_json emits: string/number scalars plus one flat "args"
/// object). Invokes on_scalar(key, raw, is_string) for top-level fields
/// and on_arg(key, raw, is_string) for args members; raw strings arrive
/// unescaped.
bool scan_event_object(std::string_view s, const auto& on_scalar,
                       const auto& on_arg) {
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  };
  const auto parse_string = [&](std::string& out) {
    if (pos >= s.size() || s[pos] != '"') return false;
    ++pos;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        if (++pos >= s.size()) return false;
        switch (s[pos]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (pos + 4 >= s.size()) return false;
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = s[pos + i];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else return false;
            }
            out += static_cast<char>(code);
            pos += 4;
            break;
          }
          default: return false;
        }
      } else {
        out += s[pos];
      }
      ++pos;
    }
    if (pos >= s.size()) return false;
    ++pos;  // closing quote
    return true;
  };
  const auto parse_number_raw = [&](std::string& out) {
    const std::size_t begin = pos;
    while (pos < s.size() &&
           ((s[pos] >= '0' && s[pos] <= '9') || s[pos] == '.' ||
            s[pos] == '-')) {
      ++pos;
    }
    out.assign(s.substr(begin, pos - begin));
    return pos > begin;
  };

  skip_ws();
  if (pos >= s.size() || s[pos] != '{') return false;
  ++pos;
  for (;;) {
    skip_ws();
    if (pos < s.size() && s[pos] == '}') return true;
    std::string key;
    if (!parse_string(key)) return false;
    skip_ws();
    if (pos >= s.size() || s[pos] != ':') return false;
    ++pos;
    skip_ws();
    if (pos < s.size() && s[pos] == '{') {
      // Nested object: only "args" is emitted, with flat members.
      ++pos;
      for (;;) {
        skip_ws();
        if (pos < s.size() && s[pos] == '}') { ++pos; break; }
        std::string akey, avalue;
        if (!parse_string(akey)) return false;
        skip_ws();
        if (pos >= s.size() || s[pos] != ':') return false;
        ++pos;
        skip_ws();
        bool is_string = pos < s.size() && s[pos] == '"';
        if (is_string ? !parse_string(avalue) : !parse_number_raw(avalue)) {
          return false;
        }
        on_arg(akey, avalue, is_string);
        skip_ws();
        if (pos < s.size() && s[pos] == ',') ++pos;
      }
    } else {
      std::string value;
      const bool is_string = pos < s.size() && s[pos] == '"';
      if (is_string ? !parse_string(value) : !parse_number_raw(value)) {
        return false;
      }
      on_scalar(key, value, is_string);
    }
    skip_ws();
    if (pos < s.size() && s[pos] == ',') ++pos;
  }
}

/// Parse "whole.fff" microseconds back to integer ns (exact inverse of
/// append_us; a missing fraction is tolerated as .000).
bool parse_us_to_ns(std::string_view text, SimTime& ns) {
  const std::size_t dot = text.find('.');
  std::uint64_t whole = 0, frac = 0;
  if (!parse_u64(text.substr(0, dot), whole)) return false;
  if (dot != std::string_view::npos) {
    const std::string_view frac_text = text.substr(dot + 1);
    if (frac_text.size() != 3 || !parse_u64(frac_text, frac)) return false;
  }
  ns = whole * 1000 + frac;
  return true;
}

}  // namespace

std::string trace_to_json(const Tracer& tracer) {
  std::string out = "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  bool first = true;
  const auto next_line = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  next_line();
  out +=
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
      "\"args\": {\"name\": \"uvmsim\"}}";
  for (const auto& [track, name] : tracer.track_names()) {
    next_line();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": ";
    out += std::to_string(track);
    out += ", \"args\": {\"name\": \"";
    append_json_escaped(out, name);
    out += "\"}}";
  }

  for (const TraceEvent& e : tracer.events()) {
    next_line();
    out += "{\"name\": \"";
    append_json_escaped(out, e.name);
    out += "\", \"cat\": \"uvm\", \"ph\": \"";
    switch (e.kind) {
      case TraceEvent::Kind::kSpan: out += 'X'; break;
      case TraceEvent::Kind::kInstant: out += "i\", \"s\": \"t"; break;
    }
    out += "\", \"ts\": ";
    append_us(out, e.begin_ns);
    if (e.kind == TraceEvent::Kind::kSpan) {
      out += ", \"dur\": ";
      append_us(out, e.end_ns - e.begin_ns);
    }
    out += ", \"pid\": 0, \"tid\": ";
    out += std::to_string(e.track);
    if (!e.args.empty()) append_trace_args(out, e.args);
    out += '}';
  }
  out += "\n]\n}\n";
  return out;
}

void write_trace_json(std::ostream& out, const Tracer& tracer) {
  out << trace_to_json(tracer);
}

bool read_trace_json(std::istream& in, TraceParseResult& out) {
  TraceParseResult parsed;
  std::string line;
  bool in_events = false;
  while (std::getline(in, line)) {
    if (!in_events) {
      if (line.find("\"traceEvents\"") != std::string::npos) in_events = true;
      continue;
    }
    std::string_view object = line;
    if (!object.empty() && object.back() == ',') object.remove_suffix(1);
    if (object.empty() || object.front() != '{') {
      if (!object.empty() && object.front() == ']') break;
      continue;
    }

    std::string name, ph, ts_raw, dur_raw, tid_raw, arg_name;
    TraceArgs args;
    const bool ok = scan_event_object(
        object,
        [&](const std::string& key, const std::string& value, bool) {
          if (key == "name") name = value;
          else if (key == "ph") ph = value;
          else if (key == "ts") ts_raw = value;
          else if (key == "dur") dur_raw = value;
          else if (key == "tid") tid_raw = value;
        },
        [&](const std::string& key, const std::string& value,
            bool is_string) {
          if (is_string) {
            if (key == "name") arg_name = value;
            return;
          }
          std::uint64_t v = 0;
          if (parse_u64(value, v)) args.emplace_back(key, v);
        });
    if (!ok) return false;

    std::uint64_t tid = 0;
    if (!tid_raw.empty() && !parse_u64(tid_raw, tid)) return false;

    if (ph == "M") {
      if (name == "thread_name" && !tid_raw.empty()) {
        parsed.track_names[static_cast<TrackId>(tid)] = arg_name;
      }
      continue;  // process_name and other metadata carry no event
    }

    TraceEvent event;
    event.name = std::move(name);
    event.track = static_cast<TrackId>(tid);
    if (!parse_us_to_ns(ts_raw, event.begin_ns)) return false;
    if (ph == "X") {
      event.kind = TraceEvent::Kind::kSpan;
      SimTime dur = 0;
      if (!parse_us_to_ns(dur_raw, dur)) return false;
      event.end_ns = event.begin_ns + dur;
      event.args = std::move(args);
    } else if (ph == "i") {
      event.kind = TraceEvent::Kind::kInstant;
      event.end_ns = event.begin_ns;
      event.args = std::move(args);
    } else {
      return false;  // not a kind trace_to_json emits
    }
    parsed.events.push_back(std::move(event));
  }
  if (!in_events) return false;
  out = std::move(parsed);
  return true;
}

// ---- Metrics JSON -------------------------------------------------------

namespace {

/// Percentiles serialize as fixed three-decimal text (they are bucket
/// interpolations, so sub-ns digits carry no information) — snprintf on
/// the same double is reproducible.
void append_fixed3(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  out += buffer;
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& registry) {
  std::string out = "{\n\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : registry.counters) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"";
    append_json_escaped(out, name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n},\n";

  out += "\"gauges\": {";
  first = true;
  for (const auto& [name, value] : registry.gauges) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"";
    append_json_escaped(out, name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n},\n";

  out += "\"histograms\": {";
  first = true;
  for (const auto& [name, hist] : registry.histograms) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"";
    append_json_escaped(out, name);
    out += "\": {\"count\": ";
    out += std::to_string(hist.total());
    out += ", \"sum\": ";
    out += std::to_string(hist.sum());
    out += ", \"min\": ";
    out += std::to_string(hist.min());
    out += ", \"max\": ";
    out += std::to_string(hist.max());
    out += ", \"p50\": ";
    append_fixed3(out, hist.percentile(0.50));
    out += ", \"p95\": ";
    append_fixed3(out, hist.percentile(0.95));
    out += ", \"p99\": ";
    append_fixed3(out, hist.percentile(0.99));
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < hist.used_buckets(); ++b) {
      if (hist.bucket_count(b) == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += '[';
      out += std::to_string(Log2Histogram::bucket_lo(b));
      out += ", ";
      out += std::to_string(Log2Histogram::bucket_hi(b));
      out += ", ";
      out += std::to_string(hist.bucket_count(b));
      out += ']';
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n}\n";
  out += "}\n";
  return out;
}

void write_metrics_json(std::ostream& out, const MetricsRegistry& registry) {
  out << metrics_to_json(registry);
}

}  // namespace uvmsim
