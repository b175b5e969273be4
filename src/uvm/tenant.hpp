// Multi-tenant servicing: per-tenant configuration and accounting.
//
// The paper's Fig 2 client-server framing scaled out: MANY software
// clients (tenants) are serviced by one host driver worker. Each tenant
// gets a weight (its fair share of driver servicing time), an optional
// oversubscription quota (a cap on GPU-resident pages, enforced through
// the normal eviction machinery), and an optional bound on how many
// batches one scheduling grant may service before the worker re-arbitrates
// (the anti-monopolization knob for drain-to-empty servicing).
//
// TenantStats is the contention ledger the fairness/isolation harness and
// `analyze --json tenant_stats` read: service time, queueing delay
// (fault-buffer arrival to service start), and the wait attributable to
// the shared driver locks being held for OTHER tenants.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace uvmsim {

/// How the shared driver worker is arbitrated across tenants.
enum class TenantSchedPolicy : std::uint8_t {
  kFcfs,              // legacy earliest-arrival arbitration (the default;
                      // bit-identical to the pre-tenant MultiClientSystem)
  kDeficitRoundRobin, // DRR: per-round deficit in fault units, weighted
  kStride,            // start-time-fair virtual time: min service_ns/weight
};

struct TenantSchedConfig {
  TenantSchedPolicy policy = TenantSchedPolicy::kFcfs;

  /// DRR refill per round, in faults, scaled by each tenant's weight.
  std::uint64_t drr_quantum_faults = 256;
};

struct TenantConfig {
  /// Relative share of driver servicing time (> 0). Uniform weights with
  /// quotas off reproduce the unweighted system exactly.
  double weight = 1.0;

  /// Oversubscription quota: cap on this tenant's GPU-resident pages.
  /// 0 = off (the tenant may fill its device memory). A non-zero quota is
  /// rounded up to whole 2 MB chunks, minimum two chunks, so the eviction
  /// machinery always has a victim and a destination.
  std::uint64_t quota_pages = 0;

  /// Max batches one scheduling grant may service before the worker
  /// re-arbitrates (bounds the drain-to-empty monopoly of a fault-dense
  /// tenant). 0 = unlimited (legacy behavior).
  std::uint32_t max_batches_per_grant = 0;

  /// Display label; empty = "tenant<i>".
  std::string name;
};

/// Per-tenant contention ledger, filled by Node::run (core/node).
struct TenantStats {
  double weight = 1.0;               // config echo (report convenience)
  std::uint64_t quota_pages = 0;     // effective (post-rounding) quota

  std::uint64_t batches = 0;         // serviced fault batches
  std::uint64_t faults = 0;          // raw fault records serviced
  std::uint64_t grants = 0;          // scheduling grants (worker-lock
                                     // acquisitions by this tenant)
  std::uint64_t deferrals = 0;       // grants cut short by the per-grant
                                     // batch cap with work still pending
  std::uint64_t evictions = 0;       // evictions under this tenant's
                                     // memory (quota pressure included)

  SimTime service_ns = 0;            // driver worker time on this tenant
  SimTime window_service_ns = 0;     // service_ns accrued before the FIRST
                                     // tenant completed — the all-backlogged
                                     // window fairness shares are measured on
  std::uint64_t window_faults = 0;   // faults serviced within that window
                                     // (DRR's fairness currency)
  SimTime wait_ns = 0;               // sum over batches of (service start -
                                     // earliest fault arrival in the batch)
  SimTime max_wait_ns = 0;           // worst single-batch queueing delay
  SimTime lock_wait_ns = 0;          // backlogged time overlapping grants
                                     // to OTHER tenants (shared VABlock /
                                     // fault-buffer lock contention)
  SimTime max_grant_ns = 0;          // longest single grant (starvation
                                     // bound denominator)
  SimTime completion_ns = 0;         // tenant finish time (0 if unfinished)
};

}  // namespace uvmsim
