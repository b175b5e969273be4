// Multi-tenant fairness reporting: shares, Jain's index, wait latency.
//
// Consumes the TenantStats ledger MultiClientSystem::run returns and
// produces the `analyze --json tenant_stats` rows. Shares are measured
// over the all-backlogged window (service accrued before the first tenant
// completed): end-to-end totals just equal the workload sizes, so only
// the window says anything about the scheduler. Jain's index is computed
// over weight-normalized window service (x_i = window_i / weight_i):
// 1.0 means every tenant got exactly its weighted share.
//
// The log format ("#uvmsim-tenant-log v1", one key=value line per tenant)
// round-trips exactly and is what the CLI's --tenant-log emits and
// `analyze` auto-detects by the header line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "uvm/tenant.hpp"

namespace uvmsim {

/// Per-tenant fairness row derived from TenantStats.
struct TenantReportRow {
  std::size_t tenant = 0;
  double weight = 1.0;
  std::uint64_t quota_pages = 0;
  std::uint64_t grants = 0;
  std::uint64_t batches = 0;
  std::uint64_t faults = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t evictions = 0;
  SimTime service_ns = 0;
  SimTime window_service_ns = 0;
  std::uint64_t window_faults = 0;
  double window_share = 0.0;      // window_service / sum(window_service)
  double target_share = 0.0;      // weight / sum(weights)
  double share_error = 0.0;       // (window_share - target) / target
  double mean_wait_ns = 0.0;      // wait_ns / batches
  SimTime max_wait_ns = 0;
  SimTime lock_wait_ns = 0;
  SimTime max_grant_ns = 0;
  SimTime completion_ns = 0;
};

struct TenantReport {
  std::vector<TenantReportRow> rows;
  double jain_index = 1.0;        // over weight-normalized window service
  double max_abs_share_error = 0.0;
  SimTime window_ns = 0;          // sum of window service across tenants
  double mean_wait_ns = 0.0;      // batch-weighted across tenants
  double p99_wait_ns = 0.0;       // percentile over per-tenant mean waits
  SimTime max_wait_ns = 0;
};

/// Reduce the ledger into the fairness report.
TenantReport build_tenant_report(const std::vector<TenantStats>& stats);

// ---- Tenant-log serialization ------------------------------------------

inline constexpr const char* kTenantLogHeader = "#uvmsim-tenant-log v1";

/// One line per tenant after the header line; round-trips exactly.
void write_tenant_log(std::ostream& out, const std::vector<TenantStats>& stats);
std::string serialize_tenant(std::size_t index, const TenantStats& stats);

/// Parse a stream previously produced by write_tenant_log. Returns false
/// if the header is missing; malformed tenant lines are skipped and
/// counted.
struct TenantParseResult {
  std::vector<TenantStats> stats;
  std::size_t skipped_lines = 0;
};
bool read_tenant_log(std::istream& in, TenantParseResult& out);

/// True if `first_line` is a tenant-log header (the `analyze` sniffer).
bool is_tenant_log_header(const std::string& first_line);

// ---- Rendering ----------------------------------------------------------

/// Fixed-width fairness table (one row per tenant + summary lines).
std::string tenant_report_table(const TenantReport& report);

/// `analyze --json tenant_stats`: {"tenants": [...], "jain_index": ...}.
/// Deterministic field order; ends with a newline.
std::string tenant_report_json(const TenantReport& report);

}  // namespace uvmsim
