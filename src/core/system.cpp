#include "core/system.hpp"

#include <stdexcept>
#include <utility>

namespace uvmsim {

System::System(SystemConfig config)
    : node_(config, {config.gpu.memory_bytes},
            {NodeSource{0, 0, config.seed, {}}}) {}

RunResult System::run(const WorkloadSpec& spec, RunOptions options) {
  // Managed allocations (host init included) before launch. Builders
  // number pages from 0; the VA space places this run's buffers at the
  // next free VABlock, so the kernel is launched with that base offset.
  PageId base_page;
  if (options.reuse_allocations) {
    if (!has_run_) {
      throw std::logic_error(
          "uvmsim: reuse_allocations requires a prior run");
    }
    base_page = last_base_page_;
  } else {
    base_page = driver().va_space().total_pages();
    for (const auto& alloc : spec.allocs) {
      driver().managed_alloc(alloc.bytes, alloc.name, alloc.init,
                             alloc.advise);
    }
    last_base_page_ = base_page;
    has_run_ = true;
  }
  return std::move(node_.run({{&spec.kernel, base_page}}).per_driver.front());
}

namespace presets {

SystemConfig titan_v() {
  SystemConfig config;  // defaults are the Titan V / PCIe 3.0 testbed
  return config;
}

SystemConfig scaled_titan_v(std::uint64_t gpu_memory_mb) {
  SystemConfig config;
  config.gpu.memory_bytes = gpu_memory_mb * 1024 * 1024;
  return config;
}

}  // namespace presets

}  // namespace uvmsim
