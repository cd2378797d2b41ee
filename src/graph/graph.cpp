#include "graph/graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace arbods {

Graph::Graph(NodeId n) : n_(n), offsets_(static_cast<std::size_t>(n) + 1, 0) {}

Graph Graph::from_edges(NodeId n, const std::vector<Edge>& edges) {
  GraphBuilder b(n);
  for (const Edge& e : edges) b.add_edge(e.u, e.v);
  return std::move(b).build();
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  ARBODS_DCHECK(v < n_);
  return {adj_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

NodeId Graph::degree(NodeId v) const {
  ARBODS_DCHECK(v < n_);
  return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  ARBODS_DCHECK(u < n_ && v < n_);
  auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (NodeId u = 0; u < n_; ++u)
    for (NodeId v : neighbors(u))
      if (u < v) out.push_back({u, v});
  return out;
}

}  // namespace arbods
