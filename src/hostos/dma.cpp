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
  ++map_calls_;
  if (out.radix_grew) ++growths_;
  return out;
}

}  // namespace uvmsim
