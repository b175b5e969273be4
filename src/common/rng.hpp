// Deterministic pseudo-random number generation.
//
// The simulator must be a pure function of (config, workload, seed), so we
// avoid std::mt19937's unspecified-across-implementations distributions and
// ship a fixed xoshiro256** generator with explicit helpers.
#pragma once

#include <array>
#include <cstdint>

namespace uvmsim {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality, reproducible across platforms.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x5EEDDEADBEEF1234ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  std::uint64_t next() noexcept;
  result_type operator()() noexcept { return next(); }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform_real() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace uvmsim
