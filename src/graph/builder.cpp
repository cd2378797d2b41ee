#include "graph/builder.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace arbods {

GraphBuilder::GraphBuilder(NodeId n) : n_(n) {}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  ARBODS_CHECK_MSG(u < n_ && v < n_,
                   "edge (" << u << "," << v << ") out of range n=" << n_);
  ARBODS_CHECK_MSG(u != v, "self-loop at node " << u);
  edges_.push_back({u, v});
}

NodeId GraphBuilder::add_node() { return n_++; }

Graph GraphBuilder::build() && {
  Graph g(n_);
  // Count directed arcs (both orientations), then fill and sort each list.
  std::vector<std::size_t> counts(static_cast<std::size_t>(n_) + 1, 0);
  for (const Edge& e : edges_) {
    ++counts[e.u + 1];
    ++counts[e.v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) counts[i] += counts[i - 1];
  g.offsets_ = counts;  // copy of the prefix sums; counts reused as cursors
  g.adj_.resize(edges_.size() * 2);
  for (const Edge& e : edges_) {
    g.adj_[counts[e.u]++] = e.v;
    g.adj_[counts[e.v]++] = e.u;
  }
  // Sort and dedup each adjacency list, then recompact.
  std::vector<NodeId> compact;
  compact.reserve(g.adj_.size());
  std::vector<std::size_t> new_offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (NodeId v = 0; v < n_; ++v) {
    auto first = g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]);
    auto last = g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(first, last);
    auto unique_end = std::unique(first, last);
    new_offsets[v] = compact.size();
    compact.insert(compact.end(), first, unique_end);
    g.max_degree_ = std::max(
        g.max_degree_, static_cast<NodeId>(unique_end - first));
  }
  new_offsets[n_] = compact.size();
  g.offsets_ = std::move(new_offsets);
  g.adj_ = std::move(compact);
  return g;
}

}  // namespace arbods
