// Streaming statistics, percentiles, histograms, and least-squares fits.
//
// All the paper's tables report (mean, stddev, min, max) over per-batch
// quantities, and Figure 6 fits batch cost against migrated bytes; this
// module provides exactly those reductions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace uvmsim {

/// Welford single-pass mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Result of an ordinary least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;       // coefficient of determination
  std::size_t n = 0;
};

/// Fit y = a*x + b over paired samples. Sizes must match; n >= 2 required
/// for a meaningful fit (degenerate inputs return a zero fit).
LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y);

/// q-th percentile (q in [0,1]) using linear interpolation between order
/// statistics. Copies and sorts internally; empty input yields 0.
double percentile(std::vector<double> values, double q);

/// Jain's fairness index (Σx)² / (n·Σx²) over nonnegative allocations.
/// 1.0 = perfectly equal, 1/n = one party holds everything. Feed it
/// weight-normalized allocations (x_i = service_i / weight_i) to measure
/// weighted fairness. Empty or all-zero input yields 1.0 (nothing was
/// allocated, so nothing was unfair).
double jains_index(const std::vector<double>& x);

/// Power-of-two-bucket histogram for nonnegative integer samples
/// (latencies in ns, byte counts, fault counts). Bucket 0 holds the value
/// 0; bucket b >= 1 holds [2^(b-1), 2^b). Compact (65 fixed buckets) and
/// cheap enough to sit on the fault path — this is the MetricsRegistry's
/// distribution primitive.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t value) noexcept;

  std::size_t bucket_count(std::size_t b) const noexcept;
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return total_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return total_ ? max_ : 0; }

  /// Index of the highest non-empty bucket + 1 (0 when empty): the loop
  /// bound serializers use so identical data always prints identically.
  std::size_t used_buckets() const noexcept;

  /// Lower/upper bound of bucket b: [0,1) for b = 0, [2^(b-1), 2^b) above.
  static std::uint64_t bucket_lo(std::size_t b) noexcept;
  static std::uint64_t bucket_hi(std::size_t b) noexcept;

  /// q-th percentile (q in [0,1]) interpolated within buckets: a
  /// single-element bucket reports its midpoint, never its lower bound.
  /// Empty yields 0.
  double percentile(double q) const noexcept;

  friend bool operator==(const Log2Histogram&, const Log2Histogram&) = default;

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace uvmsim
