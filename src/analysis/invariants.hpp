// The run-side invariant oracle: the properties every completed run must
// hold, on every node shape and under any policy, injection or recovery
// schedule. The property tests and the chaos harness judge runs with it.
#pragma once

#include <string>
#include <vector>

#include "core/node.hpp"
#include "uvm/uvm_driver.hpp"

namespace uvmsim {

/// The invariant violations of `result`, one run serviced by `driver`; one
/// line each, empty when the run is clean:
///   - dedup classification is exact: raw = unique + both duplicate kinds;
///   - no batch lasts longer than its phase sum;
///   - no GPU context holds more resident pages or chunks than its memory;
///   - no populated page has lost both copies;
///   - no retired page is GPU-resident;
///   - the run's injected transfer and DMA errors and its buffer drops
///     balance against its batch log;
///   - the driver's recovery books and retired chunks balance against its
///     whole batch log.
std::vector<std::string> run_violations(const UvmDriver& driver,
                                        const RunResult& result);

}  // namespace uvmsim
