// UVM driver configuration: policies and the calibrated cost model.
//
// Cost constants are calibrated so the simulated batch-time *proportions*
// match the paper's measurements on the Titan V / Epyc testbed:
//   * data transfer stays below ~25% of batch time (Fig 7);
//   * unmap-heavy batches dominate when host init was multithreaded
//     (Fig 11); first-touch DMA/radix batches spike to ~64% setup (Fig 14);
//   * eviction adds distinct cost levels per victim (Figs 12/13).
#pragma once

#include <cstdint>

#include "common/fault_inject.hpp"
#include "common/types.hpp"
#include "hostos/dma.hpp"
#include "hostos/unmap.hpp"
#include "interconnect/topology.hpp"
#include "obs/trace.hpp"
#include "uvm/eviction.hpp"
#include "uvm/thrashing.hpp"

namespace uvmsim {

/// How the driver worker schedules one batch's independent work units
/// (paper §6: the driver is a serial bottleneck; the authors weigh
/// per-VABlock against per-SM parallelization).
enum class ServicingPolicy : std::uint8_t {
  kSerial,      // stock driver: one worker services the batch end to end
  kPerVaBlock,  // per-VABlock service costs spread over k workers
  kPerSm,       // per-SM fault shares spread over k workers (needs
                // targeted per-SM replay hardware support)
};

/// Simulated driver-parallelism knob. With a non-serial policy and
/// workers > 1, each batch's parallelizable work units are LPT-scheduled
/// onto `workers` simulated threads and the batch's serviced time becomes
/// the makespan plus the still-serial phases (fetch, dedup, replay).
/// workers <= 1 is always bit-identical to kSerial.
struct DriverParallelismConfig {
  ServicingPolicy policy = ServicingPolicy::kSerial;
  std::uint32_t workers = 1;

  bool active() const noexcept {
    return policy != ServicingPolicy::kSerial && workers > 1;
  }
};

/// Bounded retry with exponential backoff for transient failures on the
/// fault path (copy-engine transfers, DMA maps). Attempt k (0-based
/// failure count) waits min(cap, base * mult^k) before retrying; after
/// `max_attempts` total tries the operation is abandoned for this batch
/// and the affected faults are left for the replay/reissue path to
/// re-surface (no work is lost, it is just re-serviced later).
struct RetryPolicy {
  std::uint32_t max_attempts = 4;
  SimTime backoff_base_ns = 2'000;
  std::uint32_t backoff_mult = 2;
  SimTime backoff_cap_ns = 64'000;

  /// min(cap, base * mult^failures), computed with explicit overflow
  /// saturation: the repeated multiply can wrap SimTime long before the
  /// cap comparison when base/mult/cap are pathological (long storms with
  /// a large attempt budget), so each step checks headroom against the cap
  /// first and clamps there. mult <= 1 never grows the wait.
  SimTime backoff_ns(std::uint32_t failures) const noexcept {
    if (backoff_base_ns >= backoff_cap_ns) return backoff_cap_ns;
    if (backoff_mult <= 1) return backoff_base_ns;
    SimTime wait = backoff_base_ns;
    for (std::uint32_t i = 0; i < failures; ++i) {
      if (wait > backoff_cap_ns / backoff_mult) return backoff_cap_ns;
      wait *= backoff_mult;
    }
    return wait < backoff_cap_ns ? wait : backoff_cap_ns;
  }
};

/// The fatal-fault recovery ladder (uvm/recovery.hpp), modeled after
/// nvidia-uvm's fault cancellation / page retirement / channel reset / GPU
/// reset escalation. Off by default: fatal injection classes are never
/// probed and behavior is bit-identical to the pre-recovery driver.
struct RecoveryConfig {
  bool enabled = false;

  // Tier 1 — targeted fault cancellation: cost to cancel one offending
  // µTLB entry's fault (replayable-fault cancel method, per fault).
  SimTime cancel_per_fault_ns = 1'000;

  // Tier 2 — page retirement: per-page blacklist/remap bookkeeping, and
  // the retired-page pool capacity (InfoROM blacklist budget). When the
  // pool overflows the ladder escalates to a full GPU reset, which clears
  // the soft pool accounting (the physical blacklist persists).
  SimTime retire_page_ns = 2'000;
  std::uint32_t retired_page_pool = 4096;

  // Tier 3 — copy-engine/channel reset: abort in-flight transfers, reset
  // the channel, replay the affected batch.
  SimTime channel_reset_ns = 500'000;

  // Tier 4 — full GPU reset: VA-space unmap/teardown plus deterministic
  // driver-state rebuild; kernels re-fault their working set afterwards.
  SimTime gpu_reset_ns = 5'000'000;

  // Watchdog: consecutive stuck driver wakeups (interrupt fired but the
  // buffer presented nothing) before escalating batch-stuck -> channel
  // reset -> GPU reset.
  std::uint32_t watchdog_stuck_wakeups = 3;
};

/// Access-counter notification servicing (gpu/access_counters.hpp +
/// uvm/counter_servicer.hpp). Off by default: the stock fault-only driver.
/// When enabled, the driver programs the GPU's counter registers with the
/// granularity/threshold/buffer values below and, after each fault batch,
/// batch-fetches counter notifications and promotes hot remote-mapped
/// regions (thrash-pinned or advised-host) back to GPU memory through the
/// existing eviction/copy-engine machinery.
struct AccessCounterConfig {
  bool enabled = false;

  // Hardware register values programmed at init.
  std::uint32_t granularity_pages = 16;  // one 64 KB big page per region
  std::uint32_t threshold = 256;         // remote accesses before notify
  std::uint32_t buffer_entries = 256;    // notification-buffer capacity

  // Notifications fetched per servicing pass (the counter batch size).
  std::uint32_t batch_size = 32;

  // Promote advised-host (kPreferredLocationHost) regions too. Off keeps
  // explicit placement advice authoritative: only thrash-pinned blocks
  // (whose pin the servicer lifts) are promoted.
  bool migrate_advised = false;

  // Evict resident VABlocks to back a promotion when GPU memory is full.
  // Off keeps counter migration opportunistic: a hot region that finds no
  // free chunk stays remote (cleared and re-armed, any thrashing pin
  // intact) instead of stealing memory from the live working set.
  bool evict_for_promotion = false;

  // ---- Servicing costs -------------------------------------------------
  SimTime service_fixed_ns = 8000;     // pass setup/teardown
  SimTime per_notification_ns = 300;   // read + candidate decision
  SimTime clear_ns = 150;              // clear-on-service register write
};

/// Multi-GPU page placement under per-GPU oversubscription: what the
/// servicer does when the faulting GPU's memory is full, or when the
/// faulted block already lives in a peer GPU's HBM.
enum class PlacementPolicy : std::uint8_t {
  kPeerFirst,  // place/keep pages in the cheapest peer HBM over NVLink
               // (remote-map or migrate by fault pressure); evict to
               // host only when no peer has room
  kEvictHost,  // ablation baseline: ignore peer HBM, always evict to
               // host — every placement decision a lone GPU would make
};

/// Multi-GPU topology + placement knobs (interconnect/topology.hpp).
/// The driver keeps one memory context per GPU and runs one servicing
/// path for every count; the default num_gpus = 1 is the stock
/// single-GPU driver over one PCIe link, where no peer branch can fire.
struct MultiGpuConfig {
  std::uint32_t num_gpus = 1;
  TopologyKind topology = TopologyKind::kPcieOnly;
  NvlinkConfig nvlink{};
  PlacementPolicy placement = PlacementPolicy::kPeerFirst;

  // A peer-owned block with at least this many faulted pages in the batch
  // migrates to the faulting GPU; below it the block stays put and the
  // faulting GPU gets a remote NVLink mapping (cheap PTEs, no copy).
  std::uint32_t peer_migrate_threshold = 8;
};

/// UvmDriver rejects (std::invalid_argument) a batch_size of 0, adaptive
/// sizing with a zero bound, and num_gpus = 0: no run completes under them.
struct DriverConfig {
  // ---- Policies -------------------------------------------------------
  std::uint32_t batch_size = 256;     // default UVM_PERF_FAULT_BATCH_COUNT
  bool prefetch_enabled = true;       // uvm_perf_prefetch_enable
  double prefetch_threshold = 0.51;   // density needed to pull a tree node
  bool big_page_promotion = true;     // 4 KB -> 64 KB upgrade (x86 runtime)
  EvictPolicy evict_policy = EvictPolicy::kLru;
  bool flush_on_replay = true;        // drop un-fetched faults at replay

  // ---- Section 6 extensions (off by default = stock driver) -----------
  // "A simple improvement could be to tune batch size based on the number
  // of duplicate faults received": grow the effective batch size while
  // duplicates are scarce (more uniques per batch round), shrink it when
  // duplicates dominate (let the pre-replay flush filter them for free).
  bool adaptive_batch_size = false;
  std::uint32_t adaptive_min_batch = 64;
  std::uint32_t adaptive_max_batch = 2048;
  double adaptive_high_dup_rate = 0.60;  // shrink above this
  double adaptive_low_dup_rate = 0.30;   // grow below this

  // "Parallelizing the driver": live model of a multi-threaded fault
  // servicer. Default = serial stock driver; see DriverParallelismConfig.
  DriverParallelismConfig parallelism{};

  // "Performing these operations asynchronously and preemptively may be
  // preferable": move unmap_mapping_range and DMA-map/radix setup off the
  // fault path (overlapped with other work); their time is still
  // accounted in the phase timers and in UvmDriver::async_background_ns.
  bool async_host_ops = false;

  // ---- Batch-path costs ------------------------------------------------
  SimTime wakeup_ns = 3000;           // interrupt -> worker running
  SimTime batch_fixed_ns = 25000;     // batch setup/teardown
  SimTime per_fault_fetch_ns = 25;    // read one record out of the buffer
  SimTime per_fault_dedup_ns = 15;    // hash/classify one record
  SimTime per_vablock_ns = 4000;      // per-VABlock processing step (§2.2)
  SimTime per_page_populate_ns = 400; // zero-fill a fresh 4 KB page
  SimTime per_page_pte_ns = 150;      // GPU page-table update per page
  SimTime replay_ns = 5000;           // push-buffer replay method
  SimTime prefetch_compute_per_fault_ns = 60;  // tree bookkeeping

  // ---- Eviction costs --------------------------------------------------
  SimTime evict_fail_alloc_ns = 10000;  // detect full memory, pick victim
  SimTime evict_restart_ns = 15000;     // restart the block migration

  // ---- Robustness layer (all off by default = happy-path model) --------
  // Cross-layer fault injection schedule (common/fault_inject.hpp). The
  // System forks one FaultInjector from this per run-stream.
  FaultInjectConfig inject{};
  // Transient-error recovery for migrations and DMA maps.
  RetryPolicy retry{};
  // Fatal-fault containment: the cancellation/retirement/reset ladder.
  RecoveryConfig recovery{};
  // Oversubscription thrashing detection + graceful degradation
  // (uvm/thrashing.hpp; nvidia-uvm perf_thrashing equivalent).
  ThrashingConfig thrash{};
  // Access-counter notification path + counter-driven migration (the
  // second GMMU notification channel; off = fault-only stock driver).
  AccessCounterConfig access_counters{};
  // Interconnect topology + multi-GPU peer placement (num_gpus = 1 =
  // stock single-GPU driver over one PCIe link).
  MultiGpuConfig multi_gpu{};

  // ---- Host OS components ---------------------------------------------
  UnmapCostModel unmap{};
  DmaCostModel dma{};
};

/// Whether the driver's per-phase spans are valid on a timeline: each
/// charge into BatchPhaseTimes advances wall-clock only when servicing is
/// serial and host-OS ops are on the critical path. Under parallel or
/// async modes a batch's end time is not start + phases.sum(), so the
/// fault, counter and recovery paths emit only their envelope spans (the
/// batch, fetch/dedup, worker jobs, replay and counter pass).
inline bool detailed_trace(const DriverConfig& config,
                           const Tracer* tracer) noexcept {
  return tracer != nullptr && !config.parallelism.active() &&
         !config.async_host_ops;
}

}  // namespace uvmsim
