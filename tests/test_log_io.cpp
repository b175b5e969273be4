#include "analysis/log_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/system.hpp"
#include "test_util.hpp"

namespace uvmsim {
namespace {

BatchRecord sample_record() {
  BatchRecord rec;
  rec.id = 7;
  rec.start_ns = 1000;
  rec.end_ns = 5000;
  rec.phases.fetch_ns = 100;
  rec.phases.unmap_ns = 200;
  rec.phases.transfer_ns = 300;
  rec.counters.raw_faults = 42;
  rec.counters.unique_faults = 30;
  rec.counters.dup_same_utlb = 10;
  rec.counters.dup_cross_utlb = 2;
  rec.counters.bytes_h2d = 1 << 20;
  rec.counters.radix_grew = true;
  rec.faults_per_sm = {0, 3, 0, 1};
  rec.vablock_faults = {{5, 12}, {9, 18}};
  rec.vablock_service_ns = {{5, 1500}, {9, 2500}};
  rec.first_touch_blocks = {5};
  rec.evicted_blocks = {1, 2};
  return rec;
}

void expect_equal(const BatchRecord& a, const BatchRecord& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.start_ns, b.start_ns);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.faults_per_sm, b.faults_per_sm);
  EXPECT_EQ(a.vablock_faults, b.vablock_faults);
  EXPECT_EQ(a.vablock_service_ns, b.vablock_service_ns);
  EXPECT_EQ(a.first_touch_blocks, b.first_touch_blocks);
  EXPECT_EQ(a.evicted_blocks, b.evicted_blocks);
}

TEST(LogIo, RoundTripsSingleRecord) {
  const BatchRecord original = sample_record();
  const std::string line = serialize_batch(original);
  BatchRecord parsed;
  ASSERT_TRUE(parse_batch(line, parsed));
  expect_equal(original, parsed);
}

TEST(LogIo, EveryFieldHasAPinnedKeyAndRoundTrips) {
  // Every timer and counter set to a distinct nonzero value (the 64-bit
  // byte counters beyond 32 bits): the line spells each key once, in this
  // order.
  BatchRecord rec;
  rec.id = 7;
  rec.start_ns = 1000;
  rec.end_ns = 9000;
  auto& p = rec.phases;
  p.fetch_ns = 11;
  p.dedup_ns = 12;
  p.vablock_ns = 13;
  p.eviction_ns = 14;
  p.unmap_ns = 15;
  p.populate_ns = 16;
  p.dma_map_ns = 17;
  p.prefetch_ns = 18;
  p.transfer_ns = 19;
  p.pagetable_ns = 20;
  p.replay_ns = 21;
  p.backoff_ns = 22;
  p.throttle_ns = 23;
  p.counter_ns = 24;
  p.recovery_ns = 25;
  auto& c = rec.counters;
  c.raw_faults = 31;
  c.unique_faults = 32;
  c.dup_same_utlb = 33;
  c.dup_cross_utlb = 34;
  c.read_faults = 35;
  c.write_faults = 36;
  c.prefetch_faults = 37;
  c.vablocks_touched = 38;
  c.first_touch_vablocks = 39;
  c.pages_migrated = 40;
  c.pages_populated = 41;
  c.pages_prefetched = 42;
  c.bytes_h2d = (1ULL << 33) + 43;
  c.bytes_d2h = (1ULL << 34) + 44;
  c.evictions = 45;
  c.unmap_calls = 46;
  c.pages_unmapped = 47;
  c.dma_pages_mapped = 48;
  c.radix_nodes_allocated = 49;
  c.radix_grew = true;
  c.transfer_errors = 51;
  c.transfer_retries = 52;
  c.dma_map_errors = 53;
  c.dma_map_retries = 54;
  c.service_aborts = 55;
  c.thrash_pins = 56;
  c.thrash_throttles = 57;
  c.buffer_dropped = 58;
  c.faults_cancelled = 59;
  c.pages_retired = 60;
  c.chunks_retired = 61;
  c.channel_resets = 62;
  c.gpu_resets = 63;
  c.ctr_notifications = 64;
  c.ctr_dropped = 65;
  c.ctr_pages_promoted = 66;
  c.ctr_unpins = 67;
  c.ctr_evictions = 68;
  c.peer_pages_migrated = 69;
  c.bytes_peer = (1ULL << 35) + 70;
  c.peer_maps = 71;
  c.peer_placements = 72;
  const std::string line =
      "batch id=7 start=1000 end=9000 fetch=11 dedup=12 vablock=13 "
      "eviction=14 unmap=15 populate=16 dma=17 prefetch=18 transfer=19 "
      "pagetable=20 replay=21 backoff=22 throttle=23 counter=24 "
      "recovery=25 raw=31 uniq=32 dup1=33 dup2=34 reads=35 writes=36 "
      "prefaults=37 vablocks=38 firsttouch=39 migrated=40 populated=41 "
      "prefetched=42 h2d=8589934635 d2h=17179869228 evictions=45 "
      "unmaps=46 unmapped=47 dmapages=48 radixnodes=49 radixgrew=1 "
      "xfererr=51 xferretry=52 dmaerr=53 dmaretry=54 aborts=55 pins=56 "
      "throttles=57 bufdrop=58 cancelled=59 pgretired=60 chkretired=61 "
      "ceresets=62 gpuresets=63 ctrnotif=64 ctrdrop=65 ctrpromoted=66 "
      "ctrunpin=67 ctrevict=68 peermigrated=69 peerbytes=34359738438 "
      "peermaps=71 peerplace=72";
  EXPECT_EQ(serialize_batch(rec), line);
  BatchRecord parsed;
  ASSERT_TRUE(parse_batch(line, parsed));
  expect_equal(rec, parsed);
  EXPECT_EQ(serialize_batch(parsed), line);

  // All zero: the core fields still print, every other one is omitted.
  EXPECT_EQ(serialize_batch(BatchRecord{}),
            "batch id=0 start=0 end=0 fetch=0 dedup=0 vablock=0 eviction=0 "
            "unmap=0 populate=0 dma=0 prefetch=0 transfer=0 pagetable=0 "
            "replay=0 raw=0 uniq=0 dup1=0 dup2=0 reads=0 writes=0 "
            "prefaults=0 vablocks=0 firsttouch=0 migrated=0 populated=0 "
            "prefetched=0 h2d=0 d2h=0 evictions=0 unmaps=0 unmapped=0 "
            "dmapages=0 radixnodes=0 radixgrew=0");
}

TEST(LogIo, RoundTripsEmptyRecord) {
  BatchRecord original;
  BatchRecord parsed;
  ASSERT_TRUE(parse_batch(serialize_batch(original), parsed));
  expect_equal(original, parsed);
}

TEST(LogIo, RejectsMalformedLines) {
  BatchRecord rec;
  EXPECT_FALSE(parse_batch("", rec));
  EXPECT_FALSE(parse_batch("notbatch id=1", rec));
  EXPECT_FALSE(parse_batch("batch id", rec));
  EXPECT_FALSE(parse_batch("batch id=abc", rec));
  EXPECT_FALSE(parse_batch("batch sm=1,x,3", rec));
  EXPECT_FALSE(parse_batch("batch vabf=5", rec));
}

TEST(LogIo, ParseFailureLeavesRecordUntouched) {
  BatchRecord rec = sample_record();
  EXPECT_FALSE(parse_batch("batch id=oops", rec));
  EXPECT_EQ(rec.id, 7u);  // unchanged
}

TEST(LogIo, StreamRoundTripSkipsGarbage) {
  BatchLog log{sample_record(), sample_record()};
  log[1].id = 8;
  std::ostringstream out;
  write_batch_log(out, log);

  std::istringstream in("junk line\n" + out.str() + "\nbatch id=zzz\n");
  const auto result = read_batch_log(in);
  ASSERT_EQ(result.log.size(), 2u);
  EXPECT_EQ(result.skipped_lines, 2u);
  expect_equal(log[0], result.log[0]);
  expect_equal(log[1], result.log[1]);
}

TEST(LogIo, RealRunRoundTripsExactly) {
  System system(presets::scaled_titan_v(128));
  const auto result = system.run(make_stream_triad(1 << 15));
  ASSERT_FALSE(result.log.empty());

  std::ostringstream out;
  write_batch_log(out, result.log);
  std::istringstream in(out.str());
  const auto parsed = read_batch_log(in);
  ASSERT_EQ(parsed.log.size(), result.log.size());
  EXPECT_EQ(parsed.skipped_lines, 0u);
  for (std::size_t i = 0; i < result.log.size(); ++i) {
    expect_equal(result.log[i], parsed.log[i]);
  }
}

TEST(LogIo, TraceArgNamedValueSurvivesRoundTrip) {
  // "value" is an arg name like any other: a span and an instant that
  // carry it parse back with every arg, in order.
  Tracer tracer;
  tracer.set_track_name(tracks::kDriver, "driver");
  tracer.span(tracks::kDriver, "copy", 1000, 4000,
              {{"value", 7}, {"pages", 3}});
  tracer.instant(tracks::kSim, "mark", 2500, {{"pages", 1}, {"value", 9}});
  std::istringstream in(trace_to_json(tracer));
  TraceParseResult parsed;
  ASSERT_TRUE(read_trace_json(in, parsed));
  EXPECT_EQ(parsed.events, tracer.events());
  EXPECT_EQ(parsed.track_names, tracer.track_names());
}

TEST(LogIo, TraceEventPrintsKindNameTrackTimesAndArgs) {
  // A failed comparison of event vectors prints events this way.
  Tracer tracer;
  tracer.span(tracks::kDriver, "copy", 1000, 4000,
              {{"pages", 3}, {"bytes", 8}});
  tracer.instant(tracks::kSim, "mark", 2500);
  EXPECT_EQ(testing::PrintToString(tracer.events()[0]),
            "span \"copy\" track " + std::to_string(tracks::kDriver) +
                " [1000, 4000] {pages=3, bytes=8}");
  EXPECT_EQ(testing::PrintToString(tracer.events()[1]),
            "instant \"mark\" track " + std::to_string(tracks::kSim) +
                " [2500, 2500] {}");
}

}  // namespace
}  // namespace uvmsim
