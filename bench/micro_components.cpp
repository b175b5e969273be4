// Component microbenchmarks (google-benchmark): the substrate data
// structures and models on the driver's hot path. Not a paper figure —
// supporting evidence for where per-batch time goes.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "gpu/fault_buffer.hpp"
#include "gpu/utlb.hpp"
#include "hostos/dma.hpp"
#include "hostos/radix_tree.hpp"
#include "hostos/unmap.hpp"
#include "interconnect/copy_engine.hpp"
#include "uvm/dedup.hpp"
#include "uvm/prefetcher.hpp"

namespace uvmsim {
namespace {

void BM_RadixInsertDense(benchmark::State& state) {
  for (auto _ : state) {
    RadixTree tree;
    for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(state.range(0));
         ++k) {
      benchmark::DoNotOptimize(tree.insert(k));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixInsertDense)->Arg(512)->Arg(4096)->Arg(32768);

void BM_RadixInsertSparse(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys(state.range(0));
  for (auto& k : keys) k = rng.next() >> 20;
  for (auto _ : state) {
    RadixTree tree;
    for (const auto k : keys) benchmark::DoNotOptimize(tree.insert(k));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RadixInsertSparse)->Arg(512)->Arg(4096);

void BM_RadixLookup(benchmark::State& state) {
  RadixTree tree;
  for (std::uint64_t k = 0; k < 32768; ++k) tree.insert(k * 7);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.contains((key++ % 32768) * 7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadixLookup);

void BM_FaultBufferPushDrain(benchmark::State& state) {
  FaultBuffer buffer(4096);
  FaultRecord fault;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      fault.page = static_cast<PageId>(i);
      buffer.push(fault);
    }
    benchmark::DoNotOptimize(buffer.drain(256));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FaultBufferPushDrain);

void BM_DedupBatch(benchmark::State& state) {
  Xoshiro256 rng(2);
  std::vector<FaultRecord> batch(state.range(0));
  for (auto& f : batch) {
    f.page = rng.uniform(64);  // heavy duplication, like real batches
    f.utlb = static_cast<std::uint32_t>(rng.uniform(40));
  }
  FaultDeduper deduper;  // reused across batches, as the driver does
  for (auto _ : state) {
    benchmark::DoNotOptimize(deduper.dedup(batch).unique.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DedupBatch)->Arg(256)->Arg(1024)->Arg(6144);

void BM_UTlbProbe(benchmark::State& state) {
  // A full 56-entry µTLB (the Volta cap), probed for one outstanding page
  // and one absent page per iteration.
  UTlb tlb(56);
  Xoshiro256 rng(5);
  while (!tlb.full()) {
    const PageId page = rng.uniform(1 << 20);
    if (!tlb.has_outstanding(page)) tlb.add_outstanding(page);
  }
  PageId hit = tlb.outstanding()[rng.uniform(56)];
  PageId miss = rng.uniform(1 << 20);
  while (tlb.has_outstanding(miss)) ++miss;
  for (auto _ : state) {
    // Opaque keys each iteration, so the probes cannot be hoisted.
    benchmark::DoNotOptimize(hit);
    benchmark::DoNotOptimize(tlb.has_outstanding(hit));
    benchmark::DoNotOptimize(miss);
    benchmark::DoNotOptimize(tlb.has_outstanding(miss));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_UTlbProbe);

void BM_PrefetcherCompute(benchmark::State& state) {
  TreePrefetcher prefetcher;
  TreePrefetcher::PageMask resident, faulted;
  Xoshiro256 rng(3);
  for (int i = 0; i < 64; ++i) resident.set(rng.uniform(kPagesPerVaBlock));
  for (int i = 0; i < 32; ++i) faulted.set(rng.uniform(kPagesPerVaBlock));
  for (auto _ : state) {
    benchmark::DoNotOptimize(prefetcher.compute(resident, faulted));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetcherCompute);

void BM_CopyCoalescing(benchmark::State& state) {
  Topology topo(TopologyConfig{}, PcieConfig{});
  CopyEngine copy(topo);
  Xoshiro256 rng(4);
  PageMask pages;  // up to range(0) scattered pages of one VABlock
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    pages.set(static_cast<std::uint32_t>(rng.uniform(kPagesPerVaBlock)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(copy.copy_pages(pages, kHostNode, gpu_node(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CopyCoalescing)->Arg(64)->Arg(256);

void BM_UnmapCostModel(benchmark::State& state) {
  UnmapCostModel model;
  std::uint32_t pages = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.cost(pages++ % 512, 0xFFFF));
  }
}
BENCHMARK(BM_UnmapCostModel);

void BM_DmaMapBlock(benchmark::State& state) {
  for (auto _ : state) {
    DmaMapper dma;
    benchmark::DoNotOptimize(dma.map_range(0, kPagesPerVaBlock));
  }
  state.SetItemsProcessed(state.iterations() * kPagesPerVaBlock);
}
BENCHMARK(BM_DmaMapBlock);

}  // namespace
}  // namespace uvmsim

BENCHMARK_MAIN();
