// Weighted fair arbitration of the shared driver worker across tenants.
//
// The scheduler is a pure host-side decision function: given the set of
// backlogged tenants (fault-buffer arrival <= the grant time), it picks
// who the worker services next. All state updates are driven by explicit
// charge() calls with simulated quantities (service nanoseconds, fault
// counts), so decisions depend only on deterministic simulation state —
// identical runs pick identical tenants.
//
// Two weighted disciplines are implemented:
//   * kStride — start-time-fair virtual time. Each tenant carries
//     vtime = accumulated service_ns / weight; the minimum-vtime
//     backlogged tenant wins (ties to the lowest index). A tenant
//     re-entering the backlog is lifted to the global virtual time (the
//     winner's start tag), so idle time never banks credit (SFQ).
//   * kDeficitRoundRobin — a round-robin cursor over tenants with a
//     per-tenant deficit in fault units, refilled by quantum * weight
//     when the backlogged set runs dry. Grants are charged by faults
//     serviced; a grant always services at least one batch, so DRR is
//     work-conserving even when a batch exceeds the quantum.
//
// kFcfs short-circuits to "lowest index": the node's arbiter (core/node)
// hands it only the sources tied at the earliest pending arrival, so the
// oldest fault wins and ties go to the lowest source index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "uvm/tenant.hpp"

namespace uvmsim {

class TenantScheduler {
 public:
  TenantScheduler(TenantSchedConfig config, std::vector<double> weights);

  const TenantSchedConfig& config() const noexcept { return config_; }
  std::size_t tenants() const noexcept { return weights_.size(); }

  /// Pick the next tenant to grant the worker to. `eligible` holds the
  /// backlogged tenant indices in ascending order and must be non-empty;
  /// every index must be < tenants().
  std::size_t pick(const std::vector<std::size_t>& eligible);

  /// Account one completed grant: `service_ns` of worker time and
  /// `faults` raw fault records serviced for `tenant`.
  void charge(std::size_t tenant, SimTime service_ns, std::uint64_t faults);

  /// Current DRR deficit of a tenant (test hook).
  double deficit(std::size_t tenant) const { return deficit_.at(tenant); }

 private:
  std::size_t pick_stride(const std::vector<std::size_t>& eligible);
  std::size_t pick_drr(const std::vector<std::size_t>& eligible);

  TenantSchedConfig config_;
  std::vector<double> weights_;

  // Stride state.
  std::vector<double> vtime_;
  double global_vtime_ = 0.0;

  // DRR state.
  std::vector<double> deficit_;
  std::vector<bool> eligible_mask_;  // scratch, cleared after each pick
  std::size_t cursor_ = 0;
};

}  // namespace uvmsim
