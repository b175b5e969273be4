#include "interconnect/topology.hpp"

#include <algorithm>
#include <limits>

namespace uvmsim {

namespace {

// Reference transfer for route costs: one VABlock (2 MB), the unit the
// placement policy reasons in.
constexpr std::uint64_t kRefBytes =
    static_cast<std::uint64_t>(kPagesPerVaBlock) * kPageSize;

SimTime link_time(const LinkDesc& link, std::uint64_t bytes) {
  const SimTime wire =
      static_cast<SimTime>(static_cast<double>(bytes) / link.bytes_per_ns);
  return link.per_op_latency_ns + wire;
}

SimTime link_ref_cost(const LinkDesc& link) {
  return link_time(link, kRefBytes);
}

std::string node_name(NodeId node) {
  return node == kHostNode ? "host" : "gpu" + std::to_string(node - 1);
}

}  // namespace

Topology::Topology(const TopologyConfig& config, const PcieConfig& pcie)
    : config_(config), pcie_(pcie) {
  if (config_.num_gpus == 0) config_.num_gpus = 1;
  adjacency_.assign(num_nodes(), {});
  for (std::uint32_t g = 0; g < config_.num_gpus; ++g) {
    add_link(kHostNode, gpu_node(g), LinkKind::kPcie, pcie_.bytes_per_ns,
             pcie_.per_op_latency_ns);
  }
  const std::uint32_t n = config_.num_gpus;
  if (config_.kind == TopologyKind::kNvlinkRing && n >= 2) {
    for (std::uint32_t g = 0; g < n; ++g) {
      const std::uint32_t next = (g + 1) % n;
      if (n == 2 && g == 1) break;  // two-GPU ring is a single link
      add_link(gpu_node(std::min(g, next)), gpu_node(std::max(g, next)),
               LinkKind::kNvlink, config_.nvlink.bytes_per_ns,
               config_.nvlink.per_op_latency_ns);
    }
  } else if (config_.kind == TopologyKind::kNvlinkAll && n >= 2) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) {
        add_link(gpu_node(i), gpu_node(j), LinkKind::kNvlink,
                 config_.nvlink.bytes_per_ns,
                 config_.nvlink.per_op_latency_ns);
      }
    }
  }
  stats_.assign(links_.size(), LinkStats{});
  compute_routes();

  peer_order_.assign(config_.num_gpus, {});
  for (std::uint32_t g = 0; g < config_.num_gpus; ++g) {
    std::vector<std::uint32_t>& order = peer_order_[g];
    for (std::uint32_t p = 0; p < config_.num_gpus; ++p) {
      if (p != g) order.push_back(p);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return path_cost(gpu_node(g), gpu_node(a)) <
                              path_cost(gpu_node(g), gpu_node(b));
                     });
  }
}

void Topology::add_link(NodeId a, NodeId b, LinkKind kind,
                        double bytes_per_ns, SimTime per_op_latency_ns) {
  LinkDesc link;
  link.a = a;
  link.b = b;
  link.kind = kind;
  link.bytes_per_ns = bytes_per_ns;
  link.per_op_latency_ns = per_op_latency_ns;
  link.name = (kind == LinkKind::kPcie ? "pcie:" : "nvlink:") +
              node_name(a) + "-" + node_name(b);
  const std::uint32_t idx = static_cast<std::uint32_t>(links_.size());
  links_.push_back(std::move(link));
  adjacency_[a].push_back(idx);
  adjacency_[b].push_back(idx);
}

void Topology::compute_routes() {
  const std::uint32_t n = num_nodes();
  routes_.assign(static_cast<std::size_t>(n) * n, {});
  constexpr SimTime kInf = std::numeric_limits<SimTime>::max();

  // Dijkstra per source over a tiny graph. The route preference order is
  // total: (summed ref cost, hop count, lexicographic link indices), so
  // routing is deterministic regardless of link insertion details.
  for (NodeId src = 0; src < n; ++src) {
    std::vector<SimTime> dist(n, kInf);
    std::vector<std::vector<std::uint32_t>> path(n);
    std::vector<bool> done(n, false);
    dist[src] = 0;
    for (std::uint32_t iter = 0; iter < n; ++iter) {
      NodeId u = n;
      for (NodeId v = 0; v < n; ++v) {
        if (done[v] || dist[v] == kInf) continue;
        if (u == n || dist[v] < dist[u] ||
            (dist[v] == dist[u] &&
             (path[v].size() < path[u].size() ||
              (path[v].size() == path[u].size() && path[v] < path[u])))) {
          u = v;
        }
      }
      if (u == n) break;
      done[u] = true;
      for (std::uint32_t li : adjacency_[u]) {
        const LinkDesc& link = links_[li];
        const NodeId v = link.a == u ? link.b : link.a;
        if (done[v]) continue;
        const SimTime cand_cost = dist[u] + link_ref_cost(link);
        std::vector<std::uint32_t> cand_path = path[u];
        cand_path.push_back(li);
        const bool better =
            cand_cost < dist[v] ||
            (cand_cost == dist[v] &&
             (cand_path.size() < path[v].size() ||
              (cand_path.size() == path[v].size() && cand_path < path[v])));
        if (better) {
          dist[v] = cand_cost;
          path[v] = std::move(cand_path);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      routes_[route_index(src, dst)] = path[dst];
    }
  }
}

const std::vector<std::uint32_t>& Topology::route(NodeId from,
                                                  NodeId to) const {
  return routes_.at(route_index(from, to));
}

SimTime Topology::transfer_time(NodeId from, NodeId to,
                                std::uint64_t bytes) const {
  if (bytes == 0 || from == to) return 0;
  SimTime total = 0;
  for (std::uint32_t li : route(from, to)) {
    total += link_time(links_[li], bytes);
  }
  return total;
}

SimTime Topology::path_cost(NodeId from, NodeId to) const {
  return transfer_time(from, to, kRefBytes);
}

bool Topology::nvlink_path(std::uint32_t gpu_a, std::uint32_t gpu_b) const {
  if (gpu_a == gpu_b) return false;
  const std::vector<std::uint32_t>& links = route(gpu_node(gpu_a),
                                                  gpu_node(gpu_b));
  if (links.empty()) return false;
  for (std::uint32_t li : links) {
    if (links_[li].kind != LinkKind::kNvlink) return false;
  }
  return true;
}

const std::vector<std::uint32_t>& Topology::peers_by_cost(
    std::uint32_t gpu) const {
  return peer_order_.at(gpu);
}

void Topology::record(NodeId from, NodeId to, std::uint64_t bytes) {
  if (from == to) return;
  for (std::uint32_t li : route(from, to)) {
    LinkStats& s = stats_[li];
    s.bytes += bytes;
    ++s.ops;
    s.busy_ns += link_time(links_[li], bytes);
  }
}

}  // namespace uvmsim
