// GPU fault-generation engine.
//
// Executes a KernelDesc at page/fault granularity under the hardware
// constraints from Section 3 of the paper:
//   * warps advance through access groups in order, stalling at the
//     scoreboard until the current group's pages are all resident;
//   * a miss on a page already outstanding in the warp's µTLB may emit a
//     duplicate fault record (type-1 duplicates);
//   * a miss on a new page requires a free µTLB entry (≤ 56 outstanding)
//     and a per-SM throttle token;
//   * prefetch accesses bypass scoreboard, µTLB cap, and throttle, and are
//     fire-and-forget (dropped prefetch faults are never reissued);
//   * a fault replay clears µTLB waiting state, returns waiting accesses
//     to pending, and grants each SM a small token refill.
// An injected fault storm re-reports outstanding entries after a window's
// warp advance: it sweeps the µTLBs in index order, each in the order its
// entries were added, until the storm's budget is spent.
//
// The engine is driven by the simulator in alternation with the UVM driver
// (the paper finds the GPU effectively stalls during fault servicing, so a
// lock-step model is faithful).
//
// Host cost follows the warps that can still move. Within one generate()
// window residency is fixed, throttle tokens never rise and µTLB entries
// are never removed. Two kinds of warp are skipped, each keeping only the
// block-phase draw its visit would make, so the RNG stream is unchanged:
//   * Settled: a visit that leaves every unfinished access of the group
//     waiting, or blocked by a full µTLB, leaves nothing to unblock before
//     the next replay, and the rescans that follow mid-window block
//     retirement skip the warp.
//   * Parked: while the residency table promises `misses_fault` (below), a
//     visit that changed nothing parks the warp and links its unfinished
//     pages in a page -> parked-warp index (gpu/park_index.hpp). In later
//     passes and windows a scan skips it in O(1) while its µTLB is full,
//     or while its SM has no token and none of its accesses may reissue (a
//     waiting access becomes a reissue in the first pass after a replay,
//     and a skip makes that conversion too). A page event wakes it for a
//     normal visit at its scan position: one of its pages enters its µTLB
//     (a per-µTLB hashed screen makes most insertions one bit test), or
//     turns resident, which generate() tests page by page against each
//     window's table. A window whose table withdraws the promise unparks
//     every warp.
// A replay costs O(µTLBs + SMs): it touches no warp state. Warps and their
// access states live in an arena sized at launch for the most blocks that
// can be resident at once, so scheduling a block or loading a group
// allocates nothing.
//
// An access probe asks three questions in order, and stops at the first
// that settles it:
//   1. Is the page's bit set in the oracle's residency table? Then the
//      access is kGpuResident. The table is read once per window, since
//      residency is fixed within one and an allocation between windows may
//      move it.
//   2. Does the table promise `misses_fault`? Then the access is
//      kFaultRequired. An oracle makes that promise only while every page
//      whose bit is clear classifies as a fault; the driver does while no
//      allocation prefers the host, no page is retired and thrashing
//      detection (whose pins remote-map) is off.
//   3. Otherwise the engine calls ResidencyOracle::classify(page).
// The default table is empty and promises nothing, so an oracle that does
// not override residency_table() sees every probe through classify().
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/page_mask.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gpu/access_counters.hpp"
#include "gpu/fault_buffer.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/kernel_desc.hpp"
#include "gpu/park_index.hpp"
#include "gpu/utlb.hpp"
#include "obs/trace.hpp"

namespace uvmsim {

/// How the engine asks the memory system whether a page is GPU-resident.
class ResidencyOracle {
 public:
  /// Where an access resolves: local HBM, a remote (DMA) mapping over the
  /// interconnect (cudaMemAdvise preferred-location-host pages), or a
  /// page fault.
  enum class PageLocation : std::uint8_t {
    kGpuResident,
    kRemoteMapped,
    kFaultRequired,
  };

  /// GPU residency the engine can test in place: page p is resident when
  /// p / kPagesPerVaBlock < count and bit p % kPagesPerVaBlock of that
  /// block's mask is set. With `misses_fault`, every other page
  /// classifies kFaultRequired; without it, they go to classify().
  struct Table {
    const PageMask* blocks = nullptr;
    std::size_t count = 0;
    bool misses_fault = false;
  };

  virtual ~ResidencyOracle() = default;
  virtual bool is_resident_on_gpu(PageId page) const = 0;

  /// Default: no table, so every probe calls classify(). An override must
  /// agree with classify(): a set bit classifies kGpuResident, and
  /// `misses_fault` holds only while every clear bit classifies
  /// kFaultRequired. The table must stay valid and unchanged until the
  /// memory system next changes residency.
  virtual Table residency_table() const { return {}; }

  /// Default: resident or fault; memory managers supporting remote
  /// mappings override this.
  virtual PageLocation classify(PageId page) const {
    return is_resident_on_gpu(page) ? PageLocation::kGpuResident
                                    : PageLocation::kFaultRequired;
  }

  /// Bulk probe: true when page `base + b` classifies kGpuResident for
  /// every set bit `b` of the mask `bits` (an array of `words` 64-bit
  /// words; bit `b` lives in word `b / 64` at position `b % 64`). It
  /// loops over classify(); the engine never calls it.
  virtual bool all_gpu_resident(PageId base, const std::uint64_t* bits,
                                std::size_t words) const {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(word));
        word &= word - 1;
        if (classify(base + w * 64 + b) != PageLocation::kGpuResident) {
          return false;
        }
      }
    }
    return true;
  }
};

class GpuEngine {
 public:
  GpuEngine(const GpuConfig& config, std::uint64_t seed);

  /// Start executing `kernel`. The KernelDesc must outlive the run.
  /// `page_offset` relocates every access: workload builders number pages
  /// from 0, and the VA space places each run's allocations at the next
  /// free VABlock, so the System passes the actual base here.
  void launch(const KernelDesc& kernel, PageId page_offset = 0);

  struct GenerateResult {
    std::uint32_t faults_pushed = 0;
    std::uint32_t duplicate_pushes = 0;
    std::uint64_t remote_requests = 0;  // warp requests served over DMA
    SimTime compute_ns = 0;  // wall-clock contribution of completed groups
  };

  /// Let every runnable warp issue accesses until all are stalled on
  /// faults or retired. Fault records are timestamped starting at `now`.
  GenerateResult generate(SimTime now, const ResidencyOracle& residency);

  /// Attach the fault-injection schedule (storms). May be null; the engine
  /// does not own it.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  /// Attach the access-counter unit: every warp request served over the
  /// interconnect (µTLB resolution of a remote-mapped page) bumps its MIMC
  /// counters. May be null (counters disabled); the engine does not own it.
  void set_access_counters(AccessCounterUnit* counters) noexcept {
    counters_ = counters;
  }

  /// Attach the trace sink (fault-storm instants). May be null (tracing
  /// off); the engine does not own it.
  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Driver-issued fault replay: clear µTLB waiting state, refill SM
  /// throttle tokens. Waiting accesses return to pending (as reissues)
  /// when their warp is next visited.
  void on_replay();

  /// Throttle-timer expiry safety valve: refill all SM token buckets to
  /// capacity. Used by the simulator if fault generation wedges with an
  /// empty buffer (cannot happen with refill >= 1, but cheap insurance).
  void force_token_refill();

  /// Full GPU reset (recovery tier 4): every µTLB cleared, throttle
  /// tokens restored to capacity, the stale fault buffer flushed. Warps
  /// whose faults died with the reset re-fault their working set on the
  /// next generation window (the caller rebuilds driver state first).
  void full_reset();

  bool all_done() const noexcept;

  FaultBuffer& fault_buffer() noexcept { return buffer_; }
  const FaultBuffer& fault_buffer() const noexcept { return buffer_; }
  const GpuConfig& config() const noexcept { return config_; }

  std::uint64_t total_faults_emitted() const noexcept { return emitted_; }
  std::uint64_t total_duplicate_emissions() const noexcept { return dups_; }
  std::uint64_t remote_accesses() const noexcept { return remote_accesses_; }
  std::uint64_t blocks_retired() const noexcept { return blocks_retired_; }
  std::uint32_t active_warps() const noexcept { return active_warps_; }
  std::uint64_t replays_seen() const noexcept { return replays_; }

  /// Host-cost counters: warp visits (advance_warp calls), visits that
  /// changed nothing (each parks its warp under a promising table),
  /// residency probes (every access the engine classified), and the probes
  /// the table could not settle, which called ResidencyOracle::classify.
  /// Settled and parked warps that a scan skips count as no visit and make
  /// no probe.
  std::uint64_t warp_visits() const noexcept { return visits_; }
  std::uint64_t idle_warp_visits() const noexcept { return idle_visits_; }
  std::uint64_t residency_probes() const noexcept { return probes_; }
  std::uint64_t oracle_probes() const noexcept { return oracle_probes_; }

 private:
  // Per-access progress within the current group. kReissue marks an
  // access whose fault was issued but not serviced before the replay: its
  // µTLB retries it without consuming a new throttle token (replays are
  // not far-faults), which is why un-serviced faults dropped by the
  // pre-replay flush reappear promptly (§4.2).
  enum : std::uint8_t { kPending = 0, kWaiting = 1, kDone = 2, kReissue = 3 };

  // WarpRt::park bits. kLinked: the unfinished accesses of the current
  // group are linked in parked_. kParked: scans may skip the warp; a page
  // event clears it, kLinked stays until the warp's next visit. The other
  // two record the accesses the park left waiting or reissued.
  enum : std::uint8_t {
    kLinked = 1,
    kParked = 2,
    kParkedWaiting = 4,
    kParkedReissue = 8,
  };

  struct WarpRt {
    std::uint32_t group = 0;      // current group, kernel-wide index
    std::uint32_t group_end = 0;  // one past the warp's last group
    std::uint32_t remaining = 0;  // unfinished accesses of the group
    std::uint32_t settled_window = 0;  // window_seq_ (low bits) it settled in
    std::uint32_t utlb = 0;       // its SM's µTLB
    std::uint8_t park = 0;        // park bits, 0 when not linked

    bool finished() const noexcept { return group >= group_end; }
    void wake() noexcept { park &= static_cast<std::uint8_t>(~kParked); }
  };

  // A block's warps hold the consecutive arena slots from first_slot,
  // whether they are live or finished.
  struct BlockRt {
    std::uint32_t block_id = 0;
    std::uint32_t sm = 0;
    std::uint32_t first_slot = 0;
    std::uint32_t num_warps = 0;
    std::uint32_t live_warps = 0;
    SimTime phase = 0;               // per-window arrival phase offset
    std::uint64_t phase_window = ~0ULL;
  };

  void schedule_pending_blocks();
  std::uint8_t* states_of(std::uint32_t slot) noexcept {
    return states_.data() + (std::size_t{slot} << state_shift_);
  }
  void load_group(std::uint32_t slot);
  ResidencyOracle::PageLocation locate(PageId page,
                                       const ResidencyOracle& residency,
                                       ResidencyOracle::Table table);
  void advance_warp(BlockRt& block, std::uint32_t slot, SimTime now,
                    const ResidencyOracle& residency,
                    ResidencyOracle::Table table, bool replayed,
                    GenerateResult& result);
  bool skip_parked(const BlockRt& block, std::uint32_t slot, bool replayed);
  void park(std::uint32_t slot, std::uint8_t bits);
  void unpark(std::uint32_t slot);
  void wake_joiners(std::uint32_t utlb, PageId page);
  void wake_resident(ResidencyOracle::Table table);
  void unpark_all();
  void emit_fault(PageId page, AccessType type, std::uint32_t sm,
                  std::uint32_t block, SimTime now, SimTime phase,
                  bool duplicate, GenerateResult& result);
  SimTime block_phase(BlockRt& block);
  void emit_injected_storm(SimTime now, GenerateResult& result);

  // Per-µTLB screen over the pages its parked warps linked: a clear bit
  // means no parked warp on that µTLB waits for a page of that hash. It is
  // cleared when the µTLB's last link goes.
  struct Screen {
    static constexpr unsigned kBits = 256;
    std::uint64_t words[kBits / 64] = {};
    std::uint32_t links = 0;

    static unsigned bit_of(PageId page) noexcept {
      return static_cast<unsigned>((page * 0x9E3779B97F4A7C15ULL) >> 56);
    }
    bool may_hold(PageId page) const noexcept {
      const unsigned b = bit_of(page);
      return (words[b / 64] >> (b % 64) & 1) != 0;
    }
    void add(PageId page) noexcept {
      const unsigned b = bit_of(page);
      words[b / 64] |= std::uint64_t{1} << (b % 64);
      ++links;
    }
    void remove() noexcept {
      if (--links == 0) std::ranges::fill(words, 0);
    }
  };

  GpuConfig config_;
  Xoshiro256 rng_;
  FaultInjector* injector_ = nullptr;  // not owned; null = no injection
  AccessCounterUnit* counters_ = nullptr;  // not owned; null = disabled
  Tracer* tracer_ = nullptr;  // not owned; null = tracing off
  FaultBuffer buffer_;
  std::vector<UTlb> utlbs_;
  std::vector<Screen> screens_;  // one per µTLB
  std::vector<std::uint32_t> sm_tokens_;
  std::vector<std::uint32_t> sm_active_blocks_;

  const KernelDesc* kernel_ = nullptr;
  std::uint32_t next_block_ = 0;  // blocks before it have been scheduled
  std::vector<BlockRt> active_blocks_;

  // The warp arena, sized at launch for the most blocks that can be
  // resident at once: warp_stride_ slots per block, each a WarpRt and
  // 2^state_shift_ bytes of access states (parallel to its current
  // group's accesses). parked_'s node ids are positions in states_.
  std::vector<WarpRt> warps_;
  std::vector<std::uint8_t> states_;
  std::vector<std::uint32_t> free_blocks_;  // first slots of unused blocks
  std::uint32_t warp_stride_ = 0;
  unsigned state_shift_ = 0;
  ParkIndex parked_;

  std::uint32_t active_warps_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t dups_ = 0;
  std::uint64_t remote_accesses_ = 0;
  std::uint64_t blocks_retired_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t replays_at_window_ = 0;  // replays_ when generate() last ran
  std::uint64_t visits_ = 0;
  std::uint64_t idle_visits_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t oracle_probes_ = 0;
  std::vector<std::uint64_t> sm_arrival_cursor_;  // per-SM arrival pacing
  std::uint64_t window_seq_ = 0;      // one per generate() call
  PageId page_offset_ = 0;
};

}  // namespace uvmsim
