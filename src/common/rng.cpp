#include "common/rng.hpp"

namespace uvmsim {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::uniform(std::uint64_t bound) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  if (bound <= 1) return 0;
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) % bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Xoshiro256::uniform_real() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

}  // namespace uvmsim
