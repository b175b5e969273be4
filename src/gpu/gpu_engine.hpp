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
// are never removed. A visit that leaves every unfinished access of a
// warp's current group waiting, or blocked by a full µTLB, therefore
// leaves the warp *settled*: nothing can unblock it before the next
// replay, and the rescans that follow mid-window block retirement skip it
// (keeping only the block-phase draw its visit would make, so the RNG
// stream is unchanged). A warp with a throttle-blocked access stays
// eligible: a sibling SM may add that page to their shared µTLB, and the
// warp then joins the entry. A replay costs O(µTLBs + SMs): it touches no
// warp state. Every live warp is visited in the first pass of every
// window, so after a replay that pass reads the waiting accesses it meets
// as reissues.
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
#include "gpu/utlb.hpp"
#include "obs/obs.hpp"

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

  /// Attach observability sinks (fault-emission counters). May hold null
  /// members; the engine does not own them.
  void set_obs(Obs obs) noexcept { obs_ = obs; }

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
  std::uint64_t replays_seen() const noexcept { return replays_; }

  /// Host-cost counters: warp visits (advance_warp calls), visits that
  /// changed no warp state, residency probes (every access the engine
  /// classified), and the probes the table could not settle, which called
  /// ResidencyOracle::classify. Settled warps skipped by a rescan count as
  /// no visit.
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

  struct WarpRt {
    std::uint32_t group = 0;      // current group, kernel-wide index
    std::uint32_t group_end = 0;  // one past the warp's last group
    std::vector<std::uint8_t> state;  // parallel to current group's accesses
    std::uint32_t remaining = 0;
    std::uint32_t settled_window = 0;  // window_seq_ (low bits) it settled in

    bool finished() const noexcept { return group >= group_end; }
    void load_group(const KernelDesc& kernel);
  };

  struct BlockRt {
    std::uint32_t block_id = 0;
    std::uint32_t sm = 0;
    std::vector<WarpRt> warps;
    std::uint32_t live_warps = 0;
    SimTime phase = 0;               // per-window arrival phase offset
    std::uint64_t phase_window = ~0ULL;
  };

  void schedule_pending_blocks();
  ResidencyOracle::PageLocation locate(PageId page,
                                       const ResidencyOracle& residency,
                                       ResidencyOracle::Table table);
  void advance_warp(BlockRt& block, WarpRt& warp, SimTime now,
                    const ResidencyOracle& residency,
                    ResidencyOracle::Table table, bool replayed,
                    GenerateResult& result);
  void emit_fault(PageId page, AccessType type, std::uint32_t sm,
                  std::uint32_t block, SimTime now, SimTime phase,
                  bool duplicate, GenerateResult& result);
  SimTime block_phase(BlockRt& block);
  void emit_injected_storm(SimTime now, GenerateResult& result);

  GpuConfig config_;
  Xoshiro256 rng_;
  FaultInjector* injector_ = nullptr;  // not owned; null = no injection
  AccessCounterUnit* counters_ = nullptr;  // not owned; null = disabled
  Obs obs_;
  FaultBuffer buffer_;
  std::vector<UTlb> utlbs_;
  std::vector<std::uint32_t> sm_tokens_;
  std::vector<std::uint32_t> sm_active_blocks_;

  const KernelDesc* kernel_ = nullptr;
  std::uint32_t next_block_ = 0;  // blocks before it have been scheduled
  std::vector<BlockRt> active_blocks_;

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
