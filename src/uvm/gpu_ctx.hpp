// Per-GPU memory context: one GPU's HBM chunk pool and its eviction order.
//
// Chunk ids are scoped to one GpuMemory, and eviction order is tracked
// per GPU, so every placement decision addresses a (memory, evictor) pair
// through the context of the GPU it concerns. The driver owns one context
// per GPU (DriverConfig::multi_gpu.num_gpus; one by default), sized once
// at construction, and hands the servicers and the recovery ladder a
// reference to them.
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/gpu_memory.hpp"
#include "uvm/eviction.hpp"

namespace uvmsim {

struct GpuMemCtx {
  GpuMemCtx(std::uint64_t bytes, Evictor::Policy policy)
      : memory(bytes), evictor(policy) {}

  GpuMemory memory;
  Evictor evictor;
};

using GpuMemCtxs = std::vector<GpuMemCtx>;

}  // namespace uvmsim
