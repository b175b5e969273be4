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
//
// The engine is driven by the simulator in alternation with the UVM driver
// (the paper finds the GPU effectively stalls during fault servicing, so a
// lock-step model is faithful).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/fault_inject.hpp"
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

  virtual ~ResidencyOracle() = default;
  virtual bool is_resident_on_gpu(PageId page) const = 0;

  /// Default: resident or fault; memory managers supporting remote
  /// mappings override this.
  virtual PageLocation classify(PageId page) const {
    return is_resident_on_gpu(page) ? PageLocation::kGpuResident
                                    : PageLocation::kFaultRequired;
  }

  /// Bulk probe: true when page `base + b` classifies kGpuResident for
  /// every set bit `b` of the mask `bits` (an array of `words` 64-bit
  /// words; bit `b` lives in word `b / 64` at position `b % 64`). The
  /// default loops over classify(); memory managers that keep per-block
  /// residency bitmasks override it with direct mask tests.
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
    bool made_progress = false;
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
  /// throttle tokens, return waiting accesses to pending.
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
  std::uint32_t active_warps() const noexcept { return active_warps_; }
  std::uint64_t blocks_retired() const noexcept { return blocks_retired_; }
  std::uint64_t replays_seen() const noexcept { return replays_; }

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
    bool finished = false;

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
  bool advance_warp(BlockRt& block, WarpRt& warp, SimTime now,
                    const ResidencyOracle& residency, GenerateResult& result);
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
  std::vector<std::uint64_t> sm_arrival_cursor_;  // per-SM arrival pacing
  std::uint64_t window_seq_ = 0;      // one per generate() call
  PageId page_offset_ = 0;
};

}  // namespace uvmsim
