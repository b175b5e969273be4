// Fault-batch records: the instrumented driver's unit of analysis.
//
// This is the simulator's equivalent of the authors' modified nvidia-uvm
// driver: every batch logs targeted high-resolution (simulated) timers for
// each servicing phase plus event counters, exactly the metadata the paper
// analyzes in Sections 4 and 5.
//
// Each timer and counter is declared once, as one row of
// UVMSIM_BATCH_PHASES or UVMSIM_BATCH_COUNTERS:
//
//   X(type, member, log key, metric name, group)
//
// The rows generate the members of BatchPhaseTimes and BatchCounters (at
// the row's type, in row order) and of BatchTotals (at 64 bits), and,
// through for_each_batch_field and for_each_batch_phase, the batch-log
// format (analysis/log_io) and the rows of `analyze --phases`; through
// BatchTotals::for_each_field, the `driver.*` and `phase.*` counters of the
// metrics snapshot (Node::metrics).
// A new per-batch counter is one row here, plus one row in the hand-written
// oracle table of tests/test_metrics.cpp.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "gpu/fault.hpp"

namespace uvmsim {

/// The feature a field reports on. A field outside kCore stays zero while
/// its feature is off, and the batch log writes it only when nonzero, so a
/// log of a run without the feature reads as one written before it existed.
enum class BatchGroup : std::uint8_t {
  kCore,
  kRobustness,  // fault injection, retries, thrashing mitigation
  kRecovery,    // fatal-fault recovery ladder
  kCounters,    // access-counter servicing
  kPeer,        // multi-GPU placement
};

// Phase timers, in simulated ns.
#define UVMSIM_BATCH_PHASES(X)                                                \
  /* drain records from the GPU fault buffer */                               \
  X(SimTime, fetch_ns, "fetch", "phase.fetch_ns", kCore)                      \
  /* duplicate filtering/classification */                                    \
  X(SimTime, dedup_ns, "dedup", "phase.dedup_ns", kCore)                      \
  /* per-VABlock management step */                                           \
  X(SimTime, vablock_ns, "vablock", "phase.vablock_ns", kCore)                \
  /* fail-alloc + victim writeback + restart */                               \
  X(SimTime, eviction_ns, "eviction", "phase.eviction_ns", kCore)             \
  /* unmap_mapping_range() on the fault path */                               \
  X(SimTime, unmap_ns, "unmap", "phase.unmap_ns", kCore)                      \
  /* zero-fill population */                                                  \
  X(SimTime, populate_ns, "populate", "phase.populate_ns", kCore)             \
  /* DMA mappings incl. radix-tree inserts */                                 \
  X(SimTime, dma_map_ns, "dma", "phase.dma_map_ns", kCore)                    \
  /* prefetch-tree bookkeeping */                                             \
  X(SimTime, prefetch_ns, "prefetch", "phase.prefetch_ns", kCore)             \
  /* copy-engine data movement */                                             \
  X(SimTime, transfer_ns, "transfer", "phase.transfer_ns", kCore)             \
  /* GPU page-table updates */                                                \
  X(SimTime, pagetable_ns, "pagetable", "phase.pagetable_ns", kCore)          \
  /* fault replay issue */                                                    \
  X(SimTime, replay_ns, "replay", "phase.replay_ns", kCore)                   \
  /* retry backoff waits after transient errors */                            \
  X(SimTime, backoff_ns, "backoff", "phase.backoff_ns", kRobustness)          \
  /* thrashing-mitigation service delays */                                   \
  X(SimTime, throttle_ns, "throttle", "phase.throttle_ns", kRobustness)       \
  /* access-counter servicing after the batch */                              \
  X(SimTime, counter_ns, "counter", "phase.counter_ns", kCounters)            \
  /* fatal-fault recovery ladder: cancellations, retirements, resets */       \
  X(SimTime, recovery_ns, "recovery", "phase.recovery_ns", kRecovery)

// Event counters.
#define UVMSIM_BATCH_COUNTERS(X)                                              \
  X(std::uint32_t, raw_faults, "raw", "driver.raw_faults", kCore)             \
  X(std::uint32_t, unique_faults, "uniq", "driver.unique_faults", kCore)      \
  /* type (1) duplicates */                                                   \
  X(std::uint32_t, dup_same_utlb, "dup1", "driver.dup_same_utlb", kCore)      \
  /* type (2) duplicates */                                                   \
  X(std::uint32_t, dup_cross_utlb, "dup2", "driver.dup_cross_utlb", kCore)    \
  X(std::uint32_t, read_faults, "reads", "driver.read_faults", kCore)         \
  X(std::uint32_t, write_faults, "writes", "driver.write_faults", kCore)      \
  X(std::uint32_t, prefetch_faults, "prefaults",                              \
    "driver.prefetch_faults", kCore)                                          \
  X(std::uint32_t, vablocks_touched, "vablocks",                              \
    "driver.vablocks_touched", kCore)                                         \
  X(std::uint32_t, first_touch_vablocks, "firsttouch",                        \
    "driver.first_touch_vablocks", kCore)                                     \
  /* host -> device data pages */                                             \
  X(std::uint32_t, pages_migrated, "migrated",                                \
    "driver.pages_migrated", kCore)                                           \
  /* zero-filled, no transfer */                                              \
  X(std::uint32_t, pages_populated, "populated",                              \
    "driver.pages_populated", kCore)                                          \
  /* beyond the faulted set */                                                \
  X(std::uint32_t, pages_prefetched, "prefetched",                            \
    "driver.pages_prefetched", kCore)                                         \
  X(std::uint64_t, bytes_h2d, "h2d", "driver.bytes_h2d", kCore)               \
  /* eviction writeback */                                                    \
  X(std::uint64_t, bytes_d2h, "d2h", "driver.bytes_d2h", kCore)               \
  /* VABlocks evicted in this batch */                                        \
  X(std::uint32_t, evictions, "evictions", "driver.evictions", kCore)         \
  X(std::uint32_t, unmap_calls, "unmaps", "driver.unmap_calls", kCore)        \
  X(std::uint32_t, pages_unmapped, "unmapped",                                \
    "driver.pages_unmapped", kCore)                                           \
  X(std::uint32_t, dma_pages_mapped, "dmapages",                              \
    "driver.dma_pages_mapped", kCore)                                         \
  X(std::uint32_t, radix_nodes_allocated, "radixnodes",                       \
    "driver.radix_nodes_allocated", kCore)                                    \
  X(bool, radix_grew, "radixgrew", "driver.radix_growth_batches", kCore)      \
  /* injected transient copy failures */                                      \
  X(std::uint32_t, transfer_errors, "xfererr",                                \
    "driver.transfer_errors", kRobustness)                                    \
  /* re-attempts after those failures */                                      \
  X(std::uint32_t, transfer_retries, "xferretry",                             \
    "driver.transfer_retries", kRobustness)                                   \
  /* injected transient DMA-map failures */                                   \
  X(std::uint32_t, dma_map_errors, "dmaerr",                                  \
    "driver.dma_map_errors", kRobustness)                                     \
  X(std::uint32_t, dma_map_retries, "dmaretry",                               \
    "driver.dma_map_retries", kRobustness)                                    \
  /* VABlocks abandoned after retry exhaustion (re-serviced via replay) */    \
  X(std::uint32_t, service_aborts, "aborts",                                  \
    "driver.service_aborts", kRobustness)                                     \
  /* blocks pinned + remote-mapped */                                         \
  X(std::uint32_t, thrash_pins, "pins", "driver.thrash_pins", kRobustness)    \
  /* blocks throttled/shielded */                                             \
  X(std::uint32_t, thrash_throttles, "throttles",                             \
    "driver.thrash_throttles", kRobustness)                                   \
  /* HW fault-buffer overflow drops observed since the previous batch */      \
  X(std::uint32_t, buffer_dropped, "bufdrop",                                 \
    "driver.buffer_dropped", kRobustness)                                     \
  /* tier 1: offending uTLB entries cancelled instead of serviced */          \
  X(std::uint32_t, faults_cancelled, "cancelled",                             \
    "driver.faults_cancelled", kRecovery)                                     \
  /* tier 2: pages blacklisted and remapped to host frames */                 \
  X(std::uint32_t, pages_retired, "pgretired",                                \
    "driver.pages_retired", kRecovery)                                        \
  /* tier 2: GPU chunks blacklisted */                                        \
  X(std::uint32_t, chunks_retired, "chkretired",                              \
    "driver.chunks_retired", kRecovery)                                       \
  /* tier 3: CE channel resets */                                             \
  X(std::uint32_t, channel_resets, "ceresets",                                \
    "driver.channel_resets", kRecovery)                                       \
  /* tier 4: full GPU resets */                                               \
  X(std::uint32_t, gpu_resets, "gpuresets", "driver.gpu_resets", kRecovery)   \
  /* notifications serviced this pass */                                      \
  X(std::uint32_t, ctr_notifications, "ctrnotif",                             \
    "driver.ctr_notifications", kCounters)                                    \
  /* notification-buffer overflow drops observed since the previous pass */   \
  X(std::uint32_t, ctr_dropped, "ctrdrop", "driver.ctr_dropped", kCounters)   \
  /* host -> device via counter path */                                       \
  X(std::uint32_t, ctr_pages_promoted, "ctrpromoted",                         \
    "driver.ctr_pages_promoted", kCounters)                                   \
  /* thrash pins lifted by promotion */                                       \
  X(std::uint32_t, ctr_unpins, "ctrunpin", "driver.ctr_unpins", kCounters)    \
  /* victims evicted to make room for counter-driven promotions */            \
  X(std::uint32_t, ctr_evictions, "ctrevict",                                 \
    "driver.ctr_evictions", kCounters)                                        \
  /* GPU -> GPU page copies */                                                \
  X(std::uint32_t, peer_pages_migrated, "peermigrated",                       \
    "driver.peer_pages_migrated", kPeer)                                      \
  /* bytes moved GPU <-> GPU */                                               \
  X(std::uint64_t, bytes_peer, "peerbytes", "driver.bytes_peer", kPeer)       \
  /* remote NVLink mappings created */                                        \
  X(std::uint32_t, peer_maps, "peermaps", "driver.peer_maps", kPeer)          \
  /* blocks placed in peer HBM under local oversubscription */                \
  X(std::uint32_t, peer_placements, "peerplace",                              \
    "driver.peer_placements", kPeer)

#define UVMSIM_BATCH_MEMBER(type, member, key, metric, group) type member{};
#define UVMSIM_BATCH_PLUS(type, member, key, metric, group) +member

struct BatchPhaseTimes {
  UVMSIM_BATCH_PHASES(UVMSIM_BATCH_MEMBER)

  /// Straight-line: the servicer calls it several times per VABlock.
  SimTime sum() const noexcept {
    return SimTime{0} UVMSIM_BATCH_PHASES(UVMSIM_BATCH_PLUS);
  }
  bool operator==(const BatchPhaseTimes&) const = default;
};

struct BatchCounters {
  UVMSIM_BATCH_COUNTERS(UVMSIM_BATCH_MEMBER)

  bool operator==(const BatchCounters&) const = default;
};

#undef UVMSIM_BATCH_MEMBER

struct BatchRecord {
  std::uint32_t id = 0;
  SimTime start_ns = 0;
  SimTime end_ns = 0;
  BatchPhaseTimes phases;
  BatchCounters counters;

  // Optional detail (enabled by DriverConfig::record_*):
  std::vector<std::uint16_t> faults_per_sm;                  // Table 2
  std::vector<std::pair<VaBlockId, std::uint16_t>> vablock_faults;  // Table 3
  std::vector<std::pair<VaBlockId, SimTime>> vablock_service_ns;  // §6 what-if
  std::vector<VaBlockId> first_touch_blocks;                 // case studies
  std::vector<VaBlockId> evicted_blocks;                     // case studies

  SimTime duration_ns() const noexcept { return end_ns - start_ns; }
  double transfer_fraction() const noexcept {
    const SimTime total = duration_ns();
    return total ? static_cast<double>(phases.transfer_ns) /
                       static_cast<double>(total)
                 : 0.0;
  }
  double unmap_fraction() const noexcept {
    const SimTime total = duration_ns();
    return total ? static_cast<double>(phases.unmap_ns) /
                       static_cast<double>(total)
                 : 0.0;
  }
  double dma_fraction() const noexcept {
    const SimTime total = duration_ns();
    return total ? static_cast<double>(phases.dma_map_ns) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

/// Append-only per-run batch log (the "system log" of the modified driver).
using BatchLog = std::vector<BatchRecord>;

/// A field's names and group, as its row declares them.
struct BatchField {
  std::string_view key;     // batch-log key
  std::string_view metric;  // metrics-snapshot counter
  BatchGroup group;
};

#define UVMSIM_BATCH_VISIT_PHASE(type, member, key, metric, group) \
  f(BatchField{key, metric, BatchGroup::group},                     \
    [](auto& rec) -> auto& { return rec.phases.member; });
#define UVMSIM_BATCH_VISIT_COUNTER(type, member, key, metric, group) \
  f(BatchField{key, metric, BatchGroup::group},                       \
    [](auto& rec) -> auto& { return rec.counters.member; });

/// Calls f(field, get) for every phase timer in row order. get(rec) is the
/// field's member of BatchRecord `rec`, as const as `rec` is.
template <typename F>
constexpr void for_each_batch_phase(F&& f) {
  UVMSIM_BATCH_PHASES(UVMSIM_BATCH_VISIT_PHASE)
}

/// for_each_batch_phase, then the same for every counter: the order of the
/// fields in a batch-log line.
template <typename F>
constexpr void for_each_batch_field(F&& f) {
  for_each_batch_phase(f);
  UVMSIM_BATCH_COUNTERS(UVMSIM_BATCH_VISIT_COUNTER)
}

#undef UVMSIM_BATCH_VISIT_PHASE
#undef UVMSIM_BATCH_VISIT_COUNTER

/// Every timer and counter summed over batches, each widened to 64 bits
/// under its BatchPhaseTimes or BatchCounters member name (radix_grew
/// counts the batches whose radix tree grew), plus the batches' durations.
struct BatchTotals {
#define UVMSIM_BATCH_TOTAL(type, member, key, metric, group) \
  std::uint64_t member = 0;
  UVMSIM_BATCH_PHASES(UVMSIM_BATCH_TOTAL)
  UVMSIM_BATCH_COUNTERS(UVMSIM_BATCH_TOTAL)
#undef UVMSIM_BATCH_TOTAL
  /// Sum of duration_ns(): the time the batches took (Table 4).
  SimTime batch_time_ns = 0;

  void add(const BatchRecord& rec) noexcept {
#define UVMSIM_BATCH_ADD_PHASE(type, member, key, metric, group) \
  member += rec.phases.member;
#define UVMSIM_BATCH_ADD_COUNTER(type, member, key, metric, group) \
  member += rec.counters.member;
    UVMSIM_BATCH_PHASES(UVMSIM_BATCH_ADD_PHASE)
    UVMSIM_BATCH_COUNTERS(UVMSIM_BATCH_ADD_COUNTER)
#undef UVMSIM_BATCH_ADD_PHASE
#undef UVMSIM_BATCH_ADD_COUNTER
    batch_time_ns += rec.duration_ns();
  }

  /// The phase totals summed: the servicing work. It equals batch_time_ns
  /// when servicing is serial and synchronous, and exceeds it once
  /// parallel workers or async host ops overlap phases.
  SimTime phase_sum() const noexcept {
    return SimTime{0} UVMSIM_BATCH_PHASES(UVMSIM_BATCH_PLUS);
  }

  /// Calls f(field, total) for every timer and counter in row order.
  template <typename F>
  constexpr void for_each_field(F&& f) const {
#define UVMSIM_BATCH_VISIT_TOTAL(type, member, key, metric, group) \
  f(BatchField{key, metric, BatchGroup::group}, member);
    UVMSIM_BATCH_PHASES(UVMSIM_BATCH_VISIT_TOTAL)
    UVMSIM_BATCH_COUNTERS(UVMSIM_BATCH_VISIT_TOTAL)
#undef UVMSIM_BATCH_VISIT_TOTAL
  }

  /// Whether any field of `group` is nonzero.
  bool any(BatchGroup group) const noexcept {
#define UVMSIM_BATCH_ANY(type, member, key, metric, g) \
  || (BatchGroup::g == group && member != 0)
    return false UVMSIM_BATCH_PHASES(UVMSIM_BATCH_ANY)
        UVMSIM_BATCH_COUNTERS(UVMSIM_BATCH_ANY);
#undef UVMSIM_BATCH_ANY
  }
};

#undef UVMSIM_BATCH_PLUS

/// Every timer and counter of `log`, summed.
inline BatchTotals totals(const BatchLog& log) {
  BatchTotals sum;
  for (const BatchRecord& rec : log) sum.add(rec);
  return sum;
}

}  // namespace uvmsim
