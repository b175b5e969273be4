#include "hostos/dma.hpp"

namespace uvmsim {

DmaMapper::MapResult DmaMapper::map_range(PageId first, std::uint32_t count) {
  MapResult out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto ins = reverse_.insert(first + i);
    if (!ins.inserted) continue;
    ++out.pages_mapped;
    out.radix_nodes_allocated += ins.nodes_allocated;
    out.radix_grew = out.radix_grew || ins.grew_height;
    out.cost_ns += model_.per_page_map_ns + model_.per_radix_insert_ns +
                   model_.per_radix_node_ns * ins.nodes_allocated;
  }
  if (obs_.metrics) {
    obs_.metrics->add("dma.map_calls");
    obs_.metrics->add("dma.pages_mapped", out.pages_mapped);
    obs_.metrics->add("dma.radix_nodes", out.radix_nodes_allocated);
    if (out.radix_grew) obs_.metrics->add("dma.radix_height_growths");
    obs_.metrics->set_gauge("dma.mapped_pages", reverse_.size());
  }
  return out;
}

}  // namespace uvmsim
