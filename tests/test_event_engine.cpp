// Unit tests for the discrete-event engine (core/event_engine.hpp): queue
// ordering, (time, component, seq) tie-break determinism, idle-gap
// skipping, and chained posting.
#include "core/event_engine.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(EventEngine, ExecutesInTimeOrder) {
  EventEngine eng;
  std::vector<int> order;
  eng.post(300, components::kGpu, [&](SimTime) { order.push_back(3); });
  eng.post(100, components::kGpu, [&](SimTime) { order.push_back(1); });
  eng.post(200, components::kGpu, [&](SimTime) { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 300u);
  EXPECT_EQ(eng.stats().executed, 3u);
}

TEST(EventEngine, TieBreaksByComponentThenSequence) {
  EventEngine eng;
  std::vector<std::string> order;
  // Same timestamp, posted in an order that disagrees with component ids;
  // the key (time, component, seq) must win, not insertion order.
  eng.post(50, components::kDriver, [&](SimTime) { order.push_back("d0"); });
  eng.post(50, components::kGpu, [&](SimTime) { order.push_back("g0"); });
  eng.post(50, components::kCounters, [&](SimTime) { order.push_back("c0"); });
  eng.post(50, components::kGpu, [&](SimTime) { order.push_back("g1"); });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"g0", "g1", "d0", "c0"}));
}

TEST(EventEngine, TieBreakIsDeterministicAcrossRepeats) {
  // Same posting pattern twice -> identical execution order.
  const auto run_once = [] {
    EventEngine eng;
    std::vector<int> order;
    for (int i = 0; i < 32; ++i) {
      eng.post(10 * (i % 4), static_cast<std::uint32_t>(i % 5),
               [&order, i](SimTime) { order.push_back(i); });
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EventEngine, SkipsIdleGapsInEventMode) {
  EventEngine eng;
  eng.post(1'000'000, components::kGpu, [](SimTime) {});
  eng.run();
  EXPECT_EQ(eng.now(), 1'000'000u);
  EXPECT_EQ(eng.stats().idle_ns_skipped, 1'000'000u);
}

TEST(EventEngine, HandlerChargesAreNotIdle) {
  // The clock jump to the event is idle; the service time its handler
  // charges is not.
  EventEngine eng;
  eng.post(100, components::kDriver, [&](SimTime) { eng.advance_by(50); });
  eng.run();
  EXPECT_EQ(eng.now(), 150u);
  EXPECT_EQ(eng.stats().idle_ns_skipped, 100u);
}

TEST(EventEngine, PastTimePostFiresAtCurrentNow) {
  EventEngine eng;
  eng.post(500, components::kGpu, [](SimTime) {});
  eng.run();
  SimTime fired_at = 0;
  eng.post(100, components::kGpu, [&](SimTime t) { fired_at = t; });
  eng.run();
  EXPECT_EQ(fired_at, 500u);  // clock never moves backwards
  EXPECT_EQ(eng.now(), 500u);
}

TEST(EventEngine, HandlersCanChainFurtherEvents) {
  EventEngine eng;
  std::uint64_t hops = 0;
  std::function<void(SimTime)> hop = [&](SimTime t) {
    if (++hops < 10) eng.post(t + 5, components::kDriver, hop);
  };
  eng.post(0, components::kDriver, hop);
  eng.run();
  EXPECT_EQ(hops, 10u);
  EXPECT_EQ(eng.now(), 45u);
  EXPECT_EQ(eng.stats().posted, 10u);
}

}  // namespace
}  // namespace uvmsim
