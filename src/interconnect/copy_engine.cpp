#include "interconnect/copy_engine.hpp"

namespace uvmsim {

void CopyEngine::account(NodeId from, NodeId to, const CopyResult& copy) {
  topo_.record(from, to, copy.bytes);
  const char* metric = "copy.bytes_peer";
  if (from == kHostNode) {
    to_device_ += copy.bytes;
    metric = "copy.bytes_h2d";
  } else if (to == kHostNode) {
    to_host_ += copy.bytes;
    metric = "copy.bytes_d2h";
  } else {
    peer_ += copy.bytes;
  }
  if (obs_.metrics) {
    obs_.metrics->add(metric, copy.bytes);
    obs_.metrics->add("copy.dma_ops", copy.dma_ops);
  }
}

CopyEngine::CopyResult CopyEngine::copy_pages(const PageMask& pages,
                                              NodeId from, NodeId to) {
  CopyResult out;
  if (from == to) return out;
  pages.for_each_run([&](std::uint32_t /*first*/, std::uint32_t run_pages) {
    const std::uint64_t bytes = std::uint64_t{run_pages} * kPageSize;
    out.time_ns += topo_.transfer_time(from, to, bytes);
    out.bytes += bytes;
    ++out.dma_ops;
    if (obs_.metrics) obs_.metrics->observe("copy.run_pages", run_pages);
  });
  if (out.dma_ops > 0) account(from, to, out);
  return out;
}

CopyEngine::CopyResult CopyEngine::copy_range(std::uint64_t count,
                                              NodeId from, NodeId to) {
  CopyResult out;
  if (count == 0 || from == to) return out;
  out.bytes = count * kPageSize;
  out.time_ns = topo_.transfer_time(from, to, out.bytes);
  out.dma_ops = 1;
  if (obs_.metrics) obs_.metrics->observe("copy.run_pages", count);
  account(from, to, out);
  return out;
}

}  // namespace uvmsim
