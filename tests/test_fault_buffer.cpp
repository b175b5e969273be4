#include "gpu/fault_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

FaultRecord fault(PageId page, SimTime timestamp = 0) {
  FaultRecord f;
  f.page = page;
  f.timestamp = timestamp;
  return f;
}

TEST(FaultBuffer, FifoOrderPreserved) {
  FaultBuffer buf(8);
  for (PageId p = 0; p < 5; ++p) EXPECT_TRUE(buf.push(fault(p)));
  const auto batch = buf.drain(5);
  ASSERT_EQ(batch.size(), 5u);
  for (PageId p = 0; p < 5; ++p) EXPECT_EQ(batch[p].page, p);
}

TEST(FaultBuffer, DrainRespectsLimit) {
  FaultBuffer buf(16);
  for (PageId p = 0; p < 10; ++p) buf.push(fault(p));
  const auto first = buf.drain(4);
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(buf.size(), 6u);
  const auto rest = buf.drain(100);
  EXPECT_EQ(rest.size(), 6u);
  EXPECT_EQ(rest.front().page, 4u);
  EXPECT_TRUE(buf.empty());
}

TEST(FaultBuffer, OverflowDropsAndCounts) {
  FaultBuffer buf(3);
  EXPECT_TRUE(buf.push(fault(0)));
  EXPECT_TRUE(buf.push(fault(1)));
  EXPECT_TRUE(buf.push(fault(2)));
  EXPECT_FALSE(buf.push(fault(3)));
  EXPECT_FALSE(buf.push(fault(4)));
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.total_dropped_full(), 2u);
  EXPECT_EQ(buf.total_pushed(), 3u);
}

TEST(FaultBuffer, FlushDiscardsEverything) {
  FaultBuffer buf(8);
  for (PageId p = 0; p < 6; ++p) buf.push(fault(p));
  EXPECT_EQ(buf.flush(), 6u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.total_flushed(), 6u);
  EXPECT_EQ(buf.flush(), 0u);
}

TEST(FaultBuffer, SpaceReusableAfterDrain) {
  FaultBuffer buf(2);
  buf.push(fault(0));
  buf.push(fault(1));
  EXPECT_FALSE(buf.push(fault(2)));
  buf.drain(1);
  EXPECT_TRUE(buf.push(fault(3)));
  const auto batch = buf.drain(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].page, 1u);
  EXPECT_EQ(batch[1].page, 3u);
}

TEST(FaultBuffer, DrainEmptyReturnsNothing) {
  FaultBuffer buf(4);
  EXPECT_TRUE(buf.drain(10).empty());
}

TEST(FaultBuffer, CapacityReported) {
  FaultBuffer buf(4096);
  EXPECT_EQ(buf.capacity(), 4096u);
}

TEST(FaultBuffer, DrainArrivedRespectsTimestamps) {
  FaultBuffer buf(8);
  buf.push(fault(0, 100));
  buf.push(fault(1, 200));
  buf.push(fault(2, 5000));
  // At t=250 only the first two have arrived (pace keeps the read clock
  // well short of 5000).
  const auto batch = buf.drain_arrived(10, 250, /*pace_ns=*/10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].page, 0u);
  EXPECT_EQ(batch[1].page, 1u);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(FaultBuffer, DrainArrivedReaderCatchesUpAtItsPace) {
  // Records arriving every 50 ns; a 100 ns/record reader keeps finding the
  // next record already arrived and fills the batch ("read until the
  // batch size limit is reached or no faults remain").
  FaultBuffer buf(64);
  for (PageId p = 0; p < 20; ++p) buf.push(fault(p, p * 50));
  const auto batch = buf.drain_arrived(20, 0, /*pace_ns=*/100);
  EXPECT_EQ(batch.size(), 20u);
}

TEST(FaultBuffer, DrainArrivedStarvesOnSlowArrivals) {
  // Records every 1000 ns; a 100 ns reader starving at the head stops.
  FaultBuffer buf(64);
  for (PageId p = 0; p < 20; ++p) buf.push(fault(p, p * 1000));
  const auto batch = buf.drain_arrived(20, 0, /*pace_ns=*/100);
  EXPECT_LT(batch.size(), 5u);
  EXPECT_GE(batch.size(), 1u);
}

TEST(FaultBuffer, NextArrival) {
  FaultBuffer buf(8);
  EXPECT_FALSE(buf.next_arrival().has_value());
  buf.push(fault(0, 777));
  ASSERT_TRUE(buf.next_arrival().has_value());
  EXPECT_EQ(*buf.next_arrival(), 777u);
}

TEST(FaultBuffer, FlushArrivedKeepsInFlightRecords) {
  FaultBuffer buf(8);
  buf.push(fault(0, 100));
  buf.push(fault(1, 200));
  buf.push(fault(2, 9000));  // still in flight at flush time
  EXPECT_EQ(buf.flush_arrived(500), 2u);
  EXPECT_EQ(buf.size(), 1u);
  ASSERT_TRUE(buf.next_arrival().has_value());
  EXPECT_EQ(*buf.next_arrival(), 9000u);
  EXPECT_EQ(buf.total_flushed(), 2u);
}

TEST(FaultBuffer, FlushArrivedOnEmptyBufferIsANoOp) {
  FaultBuffer buf(8);
  EXPECT_EQ(buf.flush_arrived(1'000'000), 0u);
  EXPECT_EQ(buf.total_flushed(), 0u);
}

TEST(FaultBuffer, FlushArrivedIncludesExactBoundaryTimestamp) {
  // A record whose arrival equals the flush time has been written by the
  // GMMU at that instant — the driver's flush discards it.
  FaultBuffer buf(8);
  buf.push(fault(0, 500));
  buf.push(fault(1, 501));
  EXPECT_EQ(buf.flush_arrived(500), 1u);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(*buf.next_arrival(), 501u);
}

TEST(FaultBuffer, FlushArrivedAllArrivedEmptiesBuffer) {
  FaultBuffer buf(8);
  for (PageId p = 0; p < 5; ++p) buf.push(fault(p, p * 10));
  EXPECT_EQ(buf.flush_arrived(1000), 5u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.total_flushed(), 5u);
}

TEST(FaultBuffer, FlushArrivedFreesSpaceForNewPushes) {
  // Overflow drops, then a flush: the freed slots accept new records and
  // the drop/flush counters stay separate.
  FaultBuffer buf(2);
  buf.push(fault(0, 10));
  buf.push(fault(1, 20));
  EXPECT_FALSE(buf.push(fault(2, 30)));
  EXPECT_EQ(buf.total_dropped_full(), 1u);
  EXPECT_EQ(buf.flush_arrived(100), 2u);
  EXPECT_TRUE(buf.push(fault(3, 40)));
  EXPECT_EQ(buf.total_dropped_full(), 1u);
  EXPECT_EQ(buf.total_flushed(), 2u);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(FaultBuffer, FlushArrivedSurvivorsKeepOrder) {
  FaultBuffer buf(8);
  buf.push(fault(0, 10));
  buf.push(fault(1, 800));
  buf.push(fault(2, 20));
  buf.push(fault(3, 900));
  buf.sort_pending();
  EXPECT_EQ(buf.flush_arrived(100), 2u);
  const auto batch = buf.drain(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].page, 1u);
  EXPECT_EQ(batch[1].page, 3u);
}

TEST(FaultBuffer, SortPendingRestoresArrivalOrder) {
  FaultBuffer buf(8);
  buf.push(fault(0, 300));
  buf.push(fault(1, 100));
  buf.push(fault(2, 200));
  buf.sort_pending();
  const auto batch = buf.drain(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].page, 1u);
  EXPECT_EQ(batch[1].page, 2u);
  EXPECT_EQ(batch[2].page, 0u);
}

TEST(FaultBuffer, SortIsStableForEqualTimestamps) {
  FaultBuffer buf(8);
  buf.push(fault(7, 100));
  buf.push(fault(8, 100));
  buf.sort_pending();
  const auto batch = buf.drain(2);
  EXPECT_EQ(batch[0].page, 7u);
  EXPECT_EQ(batch[1].page, 8u);
}

/// The std::deque buffer FaultBuffer's flat array replaced: the model its
/// drop, drain, flush, wedge and sort behaviour must match.
class DequeBuffer {
 public:
  explicit DequeBuffer(std::size_t capacity) : capacity_(capacity) {}

  bool push(const FaultRecord& f) {
    if (entries_.size() >= capacity_) {
      ++dropped_;
      return false;
    }
    entries_.push_back(f);
    return true;
  }
  std::vector<FaultRecord> drain_arrived(std::size_t max_count, SimTime now,
                                         SimTime pace_ns) {
    std::vector<FaultRecord> out;
    if (wedged_) return out;
    SimTime read_clock = now;
    while (out.size() < max_count && !entries_.empty() &&
           entries_.front().timestamp <= read_clock) {
      out.push_back(entries_.front());
      entries_.pop_front();
      read_clock += pace_ns;
    }
    return out;
  }
  std::vector<FaultRecord> drain(std::size_t max_count) {
    std::vector<FaultRecord> out;
    while (out.size() < max_count && !entries_.empty()) {
      out.push_back(entries_.front());
      entries_.pop_front();
    }
    return out;
  }
  std::size_t flush_arrived(SimTime now) {
    std::size_t n = 0;
    while (!entries_.empty() && entries_.front().timestamp <= now) {
      entries_.pop_front();
      ++n;
    }
    return n;
  }
  std::size_t flush() {
    const std::size_t n = entries_.size();
    entries_.clear();
    return n;
  }
  void sort_pending() {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const FaultRecord& a, const FaultRecord& b) {
                       return a.timestamp < b.timestamp;
                     });
  }

  std::deque<FaultRecord> entries_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  bool wedged_ = false;
};

/// Records are told apart by `block`, a unique arrival sequence number.
void expect_same_records(const std::vector<FaultRecord>& got,
                         const std::vector<FaultRecord>& want,
                         const std::string& step) {
  ASSERT_EQ(got.size(), want.size()) << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].block, want[i].block) << step << " record " << i;
    ASSERT_EQ(got[i].timestamp, want[i].timestamp) << step << " record " << i;
  }
}

TEST(FaultBuffer, MatchesDequeModelOnRandomOperationSequences) {
  // Small capacities and a narrow timestamp range make overflow drops,
  // in-flight survivors and timestamp ties common; thousands of steps per
  // sequence push the head past the capacity many times (compaction).
  Xoshiro256 rng(7);
  std::uint32_t seq = 0;
  for (const std::size_t capacity : {1u, 3u, 16u, 64u}) {
    for (int sequence = 0; sequence < 20; ++sequence) {
      FaultBuffer buf(capacity);
      DequeBuffer model(capacity);
      SimTime now = 0;
      std::uint64_t flushed = 0;
      for (int step = 0; step < 2000; ++step) {
        const std::string label = "capacity " + std::to_string(capacity) +
                                  " sequence " + std::to_string(sequence) +
                                  " step " + std::to_string(step);
        switch (rng.uniform(10)) {
          case 0: case 1: case 2: case 3: {  // a burst of pushes
            const std::uint64_t burst = 1 + rng.uniform(capacity + 4);
            for (std::uint64_t i = 0; i < burst; ++i) {
              FaultRecord f;
              f.page = rng.uniform(1024);
              f.block = seq++;
              f.timestamp = now + rng.uniform(8) * 50;
              ASSERT_EQ(buf.push(f), model.push(f)) << label;
            }
            break;
          }
          case 4: {
            const std::size_t max = 1 + rng.uniform(capacity + 2);
            const SimTime pace = rng.uniform(3) * 20;
            expect_same_records(buf.drain_arrived(max, now, pace),
                                model.drain_arrived(max, now, pace), label);
            break;
          }
          case 5: {
            const std::size_t max = rng.uniform(capacity + 2);
            expect_same_records(buf.drain(max), model.drain(max), label);
            break;
          }
          case 6: {
            const std::size_t n = model.flush_arrived(now);
            ASSERT_EQ(buf.flush_arrived(now), n) << label;
            flushed += n;
            break;
          }
          case 7:
            buf.sort_pending();
            model.sort_pending();
            break;
          case 8:
            if (rng.bernoulli(0.1)) {
              const std::size_t n = model.flush();
              ASSERT_EQ(buf.flush(), n) << label;
              flushed += n;
            } else if (rng.bernoulli(0.1)) {
              buf.set_wedged();
              model.wedged_ = true;
            } else {
              buf.clear_wedged();
              model.wedged_ = false;
            }
            break;
          default:
            now += rng.uniform(200);
            break;
        }
        ASSERT_EQ(buf.size(), model.entries_.size()) << label;
        ASSERT_EQ(buf.empty(), model.entries_.empty()) << label;
        ASSERT_EQ(buf.next_arrival().has_value(), !model.entries_.empty())
            << label;
        if (!model.entries_.empty()) {
          ASSERT_EQ(*buf.next_arrival(), model.entries_.front().timestamp)
              << label;
        }
        ASSERT_EQ(buf.total_dropped_full(), model.dropped_) << label;
        ASSERT_EQ(buf.total_flushed(), flushed) << label;
      }
      expect_same_records(buf.drain(capacity), model.drain(capacity),
                          "final drain");
    }
  }
}

TEST(FaultBuffer, EqualTimestampsKeepArrivalOrderAcrossCompaction) {
  // Drain one record at a time so the head walks past the capacity while
  // records remain; the sort after each refill must keep equal timestamps
  // in arrival order through the compaction.
  FaultBuffer buf(4);
  std::uint32_t seq = 0;
  std::vector<std::uint32_t> order;
  for (int round = 0; round < 10; ++round) {
    while (buf.size() < 4) {
      FaultRecord f;
      f.block = seq++;
      f.timestamp = 100;
      ASSERT_TRUE(buf.push(f));
    }
    buf.sort_pending();
    for (const auto& f : buf.drain(1)) order.push_back(f.block);
  }
  for (const auto& f : buf.drain(4)) order.push_back(f.block);
  ASSERT_EQ(order.size(), seq);
  for (std::uint32_t i = 0; i < seq; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace uvmsim
