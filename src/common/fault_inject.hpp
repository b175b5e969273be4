// Deterministic cross-layer fault injection.
//
// The paper's edge regimes — fault-buffer overflow storms (§4.2), replay
// churn, and oversubscription thrashing (Figs 12–15) — only appear when
// something goes wrong. The injector makes "wrong" reproducible: every
// layer of the simulator consults it at a well-defined hook point, and all
// decisions are drawn from per-site xoshiro256** streams forked from one
// seed, so an injection schedule is a pure function of (config, seed) and
// two identical-seed runs produce bit-identical traces.
//
// Hook sites:
//   * GPU engine        — spurious fault storms that overflow the HW buffer;
//   * node event chain  — delayed and lost fault-buffer interrupts;
//   * fault servicer    — transient copy-engine (PCIe) transfer errors;
//   * fault servicer    — transient DMA-map failures (hostos/dma path).
//
// Fatal fault classes (sites 6-9; consumed by the recovery ladder in
// uvm/recovery.hpp, and only probed when DriverConfig::recovery.enabled):
//   * fault servicer    — double-bit ECC on a resident chunk (page
//                         retirement, the whole chunk is blacklisted);
//   * fault servicer    — poisoned page discovered during migration
//                         (single-page retirement);
//   * fault servicer    — permanent copy-engine channel failure after the
//                         transient-retry budget (channel reset);
//   * node event chain  — wedged fault buffer: the HW stops presenting
//                         records until a channel or full GPU reset.
//
// When `enabled` is false every probe is a constant-false branch: no RNG
// draws, no counters, no timing changes — injection off is a zero-cost
// abstraction and leaves golden traces bit-identical.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace uvmsim {

struct FaultInjectConfig {
  bool enabled = false;             // master switch; off = zero-cost
  std::uint64_t seed = 0x1F1A57;    // injection schedule seed (independent
                                    // of the workload/jitter seed)

  // Transient PCIe/copy-engine transfer errors (per copy operation).
  double transfer_error_prob = 0.0;

  // Transient DMA-map failures (per first-touch map_range call).
  double dma_map_error_prob = 0.0;

  // Delayed fault-buffer interrupts (per driver wakeup).
  double interrupt_delay_prob = 0.0;
  SimTime interrupt_delay_ns = 50'000;

  // Lost interrupts: the wakeup never arrives and the driver only notices
  // via its watchdog after `interrupt_recovery_ns`.
  double interrupt_loss_prob = 0.0;
  SimTime interrupt_recovery_ns = 200'000;

  // Fault-buffer overflow storms: per generation window, with probability
  // `storm_prob`, the GPU re-emits up to `storm_faults` spurious duplicate
  // records for outstanding µTLB entries in one burst — enough to overflow
  // the HW buffer and exercise the drop->replay->reissue path.
  double storm_prob = 0.0;
  std::uint32_t storm_faults = 4096;

  // Lost access-counter notifications (per threshold crossing): the GMMU
  // write never reaches the notification buffer. Only consulted when the
  // access-counter unit is wired up (gpu/access_counters.hpp).
  double counter_loss_prob = 0.0;

  // ---- Fatal fault classes (need DriverConfig::recovery.enabled) --------
  // Double-bit ECC error on a VABlock's resident chunk (per service of a
  // chunked block): uncorrectable — the chunk must be retired.
  double ecc_double_bit_prob = 0.0;

  // Poisoned page discovered by the copy engine during a migration (per
  // migrating block service): that one page is retired to the host.
  double poison_prob = 0.0;

  // Permanent copy-engine channel failure, probed when a transfer's
  // transient-retry budget is exhausted: the channel is reset (in-flight
  // work aborted, reset latency charged) and the copy replayed.
  double ce_permanent_prob = 0.0;

  // Wedged fault buffer (per interrupt scheduling decision): the HW stops
  // presenting records until the watchdog escalates to a channel reset —
  // or, for a fraction `wedge_gpu_reset_frac` of wedges, a full GPU reset.
  double wedge_prob = 0.0;
  double wedge_gpu_reset_frac = 0.0;

  /// True when the injector can actually fire something.
  bool active() const noexcept {
    return enabled &&
           (transfer_error_prob > 0.0 || dma_map_error_prob > 0.0 ||
            interrupt_delay_prob > 0.0 || interrupt_loss_prob > 0.0 ||
            storm_prob > 0.0 || counter_loss_prob > 0.0 || fatal_active());
  }

  /// True when any fatal class can fire (recovery ladder required).
  bool fatal_active() const noexcept {
    return enabled &&
           (ecc_double_bit_prob > 0.0 || poison_prob > 0.0 ||
            ce_permanent_prob > 0.0 || wedge_prob > 0.0);
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectConfig& config);

  const FaultInjectConfig& config() const noexcept { return config_; }
  bool active() const noexcept { return config_.active(); }

  // ---- Probes (one per hook site; each owns an independent stream) ------
  /// Should this copy-engine operation fail transiently?
  bool transfer_error();

  /// Should this DMA map_range call fail transiently?
  bool dma_map_error();

  /// Extra latency to add to this driver wakeup (0 = on time).
  SimTime interrupt_delay();

  /// Is this interrupt lost entirely (watchdog recovery required)?
  bool interrupt_loss();

  /// Number of spurious storm records the GPU should emit this generation
  /// window (0 = no storm). The engine reports what it actually emitted
  /// (it may run out of outstanding entries) via note_storm_emitted().
  std::uint32_t storm_faults();
  void note_storm_emitted(std::uint32_t n) noexcept {
    storm_faults_injected_ += n;
  }

  /// Is this access-counter notification lost on its way to the buffer?
  bool counter_notification_loss();

  // ---- Fatal probes (sites 6-9; zero draws unless the class is armed) ---
  /// Does this chunked block's service hit a double-bit ECC error?
  bool ecc_double_bit();

  /// Does this block's migration discover a poisoned page?
  bool poisoned_page();

  /// Has this copy-engine channel failed permanently (probed only after
  /// transient-retry exhaustion)?
  bool ce_permanent_failure();

  /// Does the fault buffer wedge at this interrupt scheduling decision?
  bool fault_buffer_wedge();

  /// Severity of the wedge just fired: does clearing it need a full GPU
  /// reset (true) or does a channel reset suffice (false)? Draws from the
  /// wedge stream; call exactly once per fault_buffer_wedge() == true.
  bool wedge_needs_gpu_reset();

  // ---- Accounting (what the schedule actually fired) --------------------
  std::uint64_t transfer_errors_injected() const noexcept {
    return transfer_errors_;
  }
  std::uint64_t dma_map_errors_injected() const noexcept {
    return dma_errors_;
  }
  std::uint64_t interrupts_delayed() const noexcept { return irq_delays_; }
  std::uint64_t interrupts_lost() const noexcept { return irq_losses_; }
  std::uint64_t storm_faults_injected() const noexcept {
    return storm_faults_injected_;
  }
  std::uint64_t counter_notifications_lost() const noexcept {
    return counter_losses_;
  }
  std::uint64_t ecc_faults_injected() const noexcept { return ecc_faults_; }
  std::uint64_t poison_faults_injected() const noexcept {
    return poison_faults_;
  }
  std::uint64_t ce_failures_injected() const noexcept { return ce_failures_; }
  std::uint64_t wedges_injected() const noexcept { return wedges_; }

 private:
  FaultInjectConfig config_;
  // Per-site streams: enabling one injection class never shifts the draw
  // sequence of another, so schedules compose predictably.
  Xoshiro256 transfer_rng_;
  Xoshiro256 dma_rng_;
  Xoshiro256 irq_rng_;
  Xoshiro256 storm_rng_;
  Xoshiro256 counter_rng_;
  Xoshiro256 ecc_rng_;
  Xoshiro256 poison_rng_;
  Xoshiro256 ce_rng_;
  Xoshiro256 wedge_rng_;

  std::uint64_t transfer_errors_ = 0;
  std::uint64_t dma_errors_ = 0;
  std::uint64_t irq_delays_ = 0;
  std::uint64_t irq_losses_ = 0;
  std::uint64_t storm_faults_injected_ = 0;
  std::uint64_t counter_losses_ = 0;
  std::uint64_t ecc_faults_ = 0;
  std::uint64_t poison_faults_ = 0;
  std::uint64_t ce_failures_ = 0;
  std::uint64_t wedges_ = 0;
};

}  // namespace uvmsim
