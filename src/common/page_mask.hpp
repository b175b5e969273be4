// One VABlock's 512 pages as a bit mask of eight 64-bit words.
//
// Every per-page set the driver keeps or computes — residency, host data,
// faulted pages, prefetch targets — is a PageMask, so whole-block questions
// ("which target pages are host-backed", "which resident pages go home")
// cost eight word operations instead of a 512-step loop. Page i is bit
// i % 64 of word i / 64; this type is the only code that knows that. Users
// get the subset of the bitset API the driver needs, word access, ascending
// set-bit and set-run iteration (the copy engine makes one DMA op per run),
// and the 64 KB big-page view the prefetcher works on.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace uvmsim {

class PageMask {
 public:
  static constexpr std::uint32_t kWordBits = 64;
  static constexpr std::uint32_t kWords = kPagesPerVaBlock / kWordBits;

  std::uint64_t word(std::uint32_t w) const { return words_[w]; }

  bool test(std::uint32_t page) const {
    return (words_[page / kWordBits] & bit(page)) != 0;
  }
  bool operator[](std::uint32_t page) const { return test(page); }

  PageMask& set() {
    words_.fill(~std::uint64_t{0});
    return *this;
  }
  PageMask& set(std::uint32_t page) {
    words_[page / kWordBits] |= bit(page);
    return *this;
  }
  PageMask& reset() {
    words_.fill(0);
    return *this;
  }
  PageMask& reset(std::uint32_t page) {
    words_[page / kWordBits] &= ~bit(page);
    return *this;
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }
  bool any() const {
    std::uint64_t all = 0;
    for (const std::uint64_t w : words_) all |= w;
    return all != 0;
  }
  bool none() const { return !any(); }

  /// Call `f(page)` for every set page, in ascending page order.
  template <class F>
  void for_each_set(F&& f) const {
    for (std::uint32_t w = 0; w < kWords; ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(w * kWordBits + static_cast<std::uint32_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Lowest set page; kPagesPerVaBlock when none is set.
  std::uint32_t first_set() const {
    for (std::uint32_t w = 0; w < kWords; ++w) {
      if (words_[w] != 0) {
        return w * kWordBits +
               static_cast<std::uint32_t>(std::countr_zero(words_[w]));
      }
    }
    return kPagesPerVaBlock;
  }

  /// Call `f(first, count)` for every maximal run of consecutive set pages,
  /// in ascending page order. A run may span words.
  template <class F>
  void for_each_run(F&& f) const {
    std::uint32_t start = 0;
    bool in_run = false;
    for (std::uint32_t w = 0; w < kWords; ++w) {
      // Alternately skip to the next set bit (run start) and the next clear
      // bit (run end) within this word; a run still open at the word's end
      // continues into the next one.
      for (std::uint32_t bit = 0; bit < kWordBits;) {
        const std::uint64_t rest =
            (in_run ? ~words_[w] : words_[w]) >> bit;
        if (rest == 0) break;
        bit += static_cast<std::uint32_t>(std::countr_zero(rest));
        if (in_run) {
          f(start, w * kWordBits + bit - start);
        } else {
          start = w * kWordBits + bit;
        }
        in_run = !in_run;
      }
    }
    if (in_run) f(start, kPagesPerVaBlock - start);
  }

  /// Big-page occupancy: bit b is set when any page of 64 KB big page b is.
  std::uint32_t big_pages() const {
    std::uint32_t big = 0;
    for (std::uint32_t w = 0; w < kWords; ++w) {
      for (std::uint32_t lane = 0; lane < kBigPagesPerWord; ++lane) {
        const bool any = ((words_[w] >> (lane * kPagesPerBigPage)) &
                          kBigPageBits) != 0;
        big |= static_cast<std::uint32_t>(any) << (w * kBigPagesPerWord + lane);
      }
    }
    return big;
  }

  /// Every page of each big page whose bit is set in `big`.
  static PageMask of_big_pages(std::uint32_t big) {
    PageMask m;
    for (std::uint32_t w = 0; w < kWords; ++w) {
      for (std::uint32_t lane = 0; lane < kBigPagesPerWord; ++lane) {
        const std::uint64_t on = (big >> (w * kBigPagesPerWord + lane)) & 1u;
        m.words_[w] |= (kBigPageBits * on) << (lane * kPagesPerBigPage);
      }
    }
    return m;
  }

  PageMask& operator&=(const PageMask& other) {
    for (std::uint32_t w = 0; w < kWords; ++w) words_[w] &= other.words_[w];
    return *this;
  }
  PageMask& operator|=(const PageMask& other) {
    for (std::uint32_t w = 0; w < kWords; ++w) words_[w] |= other.words_[w];
    return *this;
  }
  PageMask operator~() const {
    PageMask m;
    for (std::uint32_t w = 0; w < kWords; ++w) m.words_[w] = ~words_[w];
    return m;
  }
  friend PageMask operator&(PageMask a, const PageMask& b) { return a &= b; }
  friend PageMask operator|(PageMask a, const PageMask& b) { return a |= b; }
  friend bool operator==(const PageMask&, const PageMask&) = default;

 private:
  static constexpr std::uint32_t kBigPagesPerWord =
      kWordBits / kPagesPerBigPage;
  static constexpr std::uint64_t kBigPageBits =
      (std::uint64_t{1} << kPagesPerBigPage) - 1;
  static_assert(kPagesPerVaBlock % kWordBits == 0);
  static_assert(kWordBits % kPagesPerBigPage == 0);
  static_assert(kBigPagesPerVaBlock <= 32, "big_pages() is one 32-bit word");

  static std::uint64_t bit(std::uint32_t page) {
    return std::uint64_t{1} << (page % kWordBits);
  }

  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace uvmsim
