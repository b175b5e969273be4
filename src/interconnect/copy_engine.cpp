#include "interconnect/copy_engine.hpp"

namespace uvmsim {

void CopyEngine::dma(std::uint64_t count, NodeId from, NodeId to,
                     CopyResult& out) {
  const std::uint64_t bytes = count * kPageSize;
  out.time_ns += topo_.transfer_time(from, to, bytes);
  out.bytes += bytes;
  ++out.dma_ops;
  topo_.record(from, to, bytes);
  run_pages_.add(count);
}

void CopyEngine::account(NodeId from, NodeId to, const CopyResult& copy) {
  if (from == kHostNode) {
    to_device_ += copy.bytes;
  } else if (to == kHostNode) {
    to_host_ += copy.bytes;
  } else {
    peer_ += copy.bytes;
  }
}

CopyEngine::CopyResult CopyEngine::copy_pages(const PageMask& pages,
                                              NodeId from, NodeId to) {
  CopyResult out;
  if (from == to) return out;
  pages.for_each_run([&](std::uint32_t /*first*/, std::uint32_t run_pages) {
    dma(run_pages, from, to, out);
  });
  if (out.dma_ops > 0) account(from, to, out);
  return out;
}

CopyEngine::CopyResult CopyEngine::copy_range(std::uint64_t count,
                                              NodeId from, NodeId to) {
  CopyResult out;
  if (count == 0 || from == to) return out;
  dma(count, from, to, out);
  account(from, to, out);
  return out;
}

}  // namespace uvmsim
