#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace uvmsim {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  const std::size_t n = std::min(x.size(), y.size());
  fit.n = n;
  if (n < 2) return fit;

  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);

  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;  // vertical line: no meaningful slope

  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double jains_index(const std::vector<double>& x) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  if (x.empty() || sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sum_sq);
}

void Log2Histogram::add(std::uint64_t value) noexcept {
  const auto bucket = static_cast<std::size_t>(std::bit_width(value));
  ++counts_[bucket];
  ++total_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::size_t Log2Histogram::bucket_count(std::size_t b) const noexcept {
  return b < kBuckets ? static_cast<std::size_t>(counts_[b]) : 0;
}

std::size_t Log2Histogram::used_buckets() const noexcept {
  for (std::size_t b = kBuckets; b-- > 0;) {
    if (counts_[b] != 0) return b + 1;
  }
  return 0;
}

std::uint64_t Log2Histogram::bucket_lo(std::size_t b) noexcept {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

std::uint64_t Log2Histogram::bucket_hi(std::size_t b) noexcept {
  if (b == 0) return 1;
  if (b >= kBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
  return std::uint64_t{1} << b;
}

double Log2Histogram::percentile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // `rank` indexes the sorted samples (0-based, may be fractional). Within
  // a bucket of c samples the k-th one is placed at the (k + 0.5)/c
  // fraction of the bucket's span, so a bucket holding a single sample
  // answers with its midpoint. Returning the raw bucket lower bound would
  // be wrong: every percentile landing in a one-element bucket (the common
  // case for p99 in a long tail) would collapse to the bucket edge and
  // underestimate the tail.
  const double rank = q * static_cast<double>(total_ - 1);
  double cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (c == 0) continue;
    if (rank < cumulative + c) {
      const double within = (rank - cumulative + 0.5) / c;  // (0, 1)
      const auto lo = static_cast<double>(bucket_lo(b));
      const auto hi = static_cast<double>(bucket_hi(b));
      return lo + (hi - lo) * within;
    }
    cumulative += c;
  }
  // rank beyond the last sample (q = 1 with fractional placement): the
  // top of the highest non-empty bucket's occupied range.
  const std::size_t b = used_buckets() - 1;
  const double c = static_cast<double>(counts_[b]);
  const auto lo = static_cast<double>(bucket_lo(b));
  const auto hi = static_cast<double>(bucket_hi(b));
  return lo + (hi - lo) * (c - 0.5) / c;
}

}  // namespace uvmsim
