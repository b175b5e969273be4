#include "core/multi_gpu.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace uvmsim {

namespace {

/// GPU g of the one driver.
std::vector<NodeSource> sources_of(const SystemConfig& config) {
  std::vector<NodeSource> sources;
  for (std::uint32_t g = 0; g < config.driver.multi_gpu.num_gpus; ++g) {
    sources.push_back({0, g, config.seed + 0x9E37 * (g + 1), {}});
  }
  return sources;
}

}  // namespace

MultiGpuSystem::MultiGpuSystem(SystemConfig config)
    : node_(config, {config.gpu.memory_bytes}, sources_of(config)) {}

MultiGpuResult MultiGpuSystem::run(const MultiGpuWorkload& workload) {
  const std::size_t n = node_.num_sources();
  if (workload.kernels.size() != n) {
    throw std::invalid_argument(
        "MultiGpuSystem::run: one kernel per GPU required (got " +
        std::to_string(workload.kernels.size()) + " kernels for " +
        std::to_string(n) + " GPUs)");
  }

  // Shared VA space: allocate once, then launch every GPU's kernel at the
  // same base.
  UvmDriver& driver = node_.driver(0);
  const PageId base = driver.va_space().total_pages();
  for (const auto& alloc : workload.allocs) {
    driver.managed_alloc(alloc.bytes, alloc.name, alloc.init, alloc.advise);
  }
  std::vector<NodeLaunch> launches;
  for (const KernelDesc& kernel : workload.kernels) {
    launches.push_back({&kernel, base});
  }
  const Topology& topo = driver.topology();
  std::vector<LinkStats> links_before;
  for (std::size_t i = 0; i < topo.num_links(); ++i) {
    links_before.push_back(topo.stats(i));
  }

  NodeResult run = node_.run(launches);
  MultiGpuResult result;
  result.aggregate = std::move(run.per_driver.front());
  result.per_gpu_kernel_ns = std::move(run.kernel_ns);
  result.makespan_ns = run.makespan_ns;
  result.batches_serviced = run.batches;

  result.links.reserve(topo.num_links());
  for (std::size_t i = 0; i < topo.num_links(); ++i) {
    const LinkStats& s = topo.stats(i);
    LinkReport report;
    report.name = topo.link(i).name;
    report.kind = topo.link(i).kind;
    report.bytes = s.bytes - links_before[i].bytes;
    report.ops = s.ops - links_before[i].ops;
    report.busy_ns = s.busy_ns - links_before[i].busy_ns;
    report.utilization =
        result.makespan_ns > 0
            ? static_cast<double>(report.busy_ns) /
                  static_cast<double>(result.makespan_ns)
            : 0.0;
    result.links.push_back(std::move(report));
  }
  return result;
}

}  // namespace uvmsim
