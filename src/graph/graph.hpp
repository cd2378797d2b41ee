// Immutable undirected simple graph in CSR (compressed sparse row) form.
//
// Nodes are dense ids in [0, n). Adjacency lists are sorted, enabling
// O(log d) membership tests and cache-friendly scans. Self-loops are
// rejected; parallel edges are collapsed by the builder.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace arbods {

class Graph {
 public:
  /// Empty graph with n isolated nodes.
  explicit Graph(NodeId n = 0);

  /// Builds from an edge list. Self-loops are a contract violation
  /// (CheckError); duplicate edges (in either orientation) are collapsed.
  static Graph from_edges(NodeId n, const std::vector<Edge>& edges);

  NodeId num_nodes() const { return n_; }
  std::size_t num_edges() const { return adj_.size() / 2; }

  /// Sorted open neighborhood of v.
  std::span<const NodeId> neighbors(NodeId v) const;

  NodeId degree(NodeId v) const;

  /// CSR offsets (size n+1): v's incident arcs are the positions
  /// [arc_offsets()[v], arc_offsets()[v+1]) of the adjacency array.
  std::span<const std::size_t> arc_offsets() const { return offsets_; }

  /// Maximum degree Delta (0 for the empty graph); computed once when the
  /// graph is built, so O(1).
  NodeId max_degree() const { return max_degree_; }

  /// O(log degree(u)) membership test.
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges, each once, with u < v, sorted lexicographically.
  std::vector<Edge> edges() const;

  /// True if v has no neighbors.
  bool is_isolated(NodeId v) const { return degree(v) == 0; }

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  friend class GraphBuilder;
  NodeId n_ = 0;
  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<NodeId> adj_;           // size 2m, sorted per node
  NodeId max_degree_ = 0;
};

}  // namespace arbods
