#include "obs/metrics.hpp"

namespace uvmsim {
namespace {

/// Heterogeneous find-or-insert: std::map's transparent lookup avoids a
/// std::string allocation on the hot (existing-name) path.
template <typename Map, typename Init>
auto& slot(Map& map, std::string_view name, Init init) {
  const auto it = map.find(name);
  if (it != map.end()) return it->second;
  return map.emplace(std::string(name), init()).first->second;
}

}  // namespace

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  slot(counters_, name, [] { return std::uint64_t{0}; }) += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, std::int64_t value) {
  slot(gauges_, name, [] { return std::int64_t{0}; }) = value;
}

void MetricsRegistry::observe(std::string_view name, std::uint64_t sample) {
  slot(histograms_, name, [] { return Log2Histogram{}; }).add(sample);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const noexcept {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t MetricsRegistry::gauge(std::string_view name) const noexcept {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Log2Histogram* MetricsRegistry::histogram(
    std::string_view name) const noexcept {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace uvmsim
