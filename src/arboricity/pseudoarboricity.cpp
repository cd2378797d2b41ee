#include "arboricity/pseudoarboricity.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "arboricity/core_decomposition.hpp"
#include "common/check.hpp"

namespace arbods {

namespace {

constexpr NodeId kUnreached = kInvalidNode;

// An orientation on g's own CSR adjacency (slot i of v: does {v, head_[i]}
// point away from v?). Reversing a directed path from an over-full to an
// under-full node moves one unit of out-degree; the orientation is its own
// residual graph, so Dinic-style phases need no flow network.
class ExcessRouter {
 public:
  // Orients every edge toward the endpoint peeled later.
  ExcessRouter(const Graph& g, std::span<const NodeId> position) : g_(g) {
    const NodeId n = g.num_nodes();
    offset_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v) offset_[v + 1] = offset_[v] + g.degree(v);
    head_.resize(offset_[n]);
    mirror_.resize(offset_[n]);
    out_.resize(offset_[n]);
    out_degree_.assign(n, 0);
    level_.resize(n);
    // v's sorted list starts with its lower neighbors, met in that order as
    // u ascends: cur_ is the fill cursor pairing slot (u, v) with (v, u).
    cur_.assign(offset_.begin(), offset_.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      std::size_t i = offset_[u];
      for (NodeId v : g.neighbors(u)) {
        head_[i] = v;
        if (u < v) {
          mirror_[i] = cur_[v]++;
          mirror_[mirror_[i]] = i;
        }
        out_[i] = position[u] < position[v];
        out_degree_[u] += out_[i++];
      }
    }
  }

  /// Lowers the max out-degree toward `floor`; returns max(p, floor) for
  /// the pseudoarboricity p (a failed step checked its dense-set witness).
  NodeId descend(NodeId floor) {
    NodeId d = 0;
    for (NodeId k : out_degree_) d = std::max(d, k);
    while (d > floor && route(d - 1)) --d;
    return d;
  }

  /// Upper certificate: every edge oriented once, no node above d out-arcs.
  void check_orientation(NodeId d) const {
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      NodeId outs = 0;
      for (std::size_t i = offset_[v]; i < offset_[v + 1]; ++i) {
        ARBODS_CHECK(head_[mirror_[i]] == v && out_[i] != out_[mirror_[i]]);
        outs += out_[i];
      }
      ARBODS_CHECK_MSG(outs <= d, "node " << v << " has " << outs
                                          << " out-arcs > " << d);
    }
  }

  Orientation orientation() const {
    std::vector<std::vector<NodeId>> out(g_.num_nodes());
    for (NodeId v = 0; v < g_.num_nodes(); ++v)
      for (std::size_t i = offset_[v]; i < offset_[v + 1]; ++i)
        if (out_[i]) out[v].push_back(head_[i]);
    return Orientation(g_, std::move(out));
  }

 private:
  // Makes every out-degree <= d, or returns false once the over-full nodes
  // reach no node below d. Each phase augments (a BFS path is a DFS path).
  bool route(NodeId d) {
    while (true) {
      queue_.clear();
      for (NodeId v = 0; v < g_.num_nodes(); ++v)
        if (out_degree_[v] > d) queue_.push_back(v);
      if (queue_.empty()) return true;
      const std::size_t sources = queue_.size();
      if (!build_levels(d)) {
        check_dense_witness(d);
        return false;
      }
      for (std::size_t k = 0; k < sources; ++k)
        while (out_degree_[queue_[k]] > d && augment(queue_[k], d)) {
        }
    }
  }

  // Multi-source BFS over out-arcs from the sources in queue_, which ends
  // up holding every node reached. Returns whether one is below d.
  bool build_levels(NodeId d) {
    std::fill(level_.begin(), level_.end(), kUnreached);
    for (NodeId s : queue_) level_[s] = 0;
    bool sink_reached = false;
    for (std::size_t k = 0; k < queue_.size(); ++k) {
      const NodeId v = queue_[k];
      cur_[v] = offset_[v];
      for (std::size_t i = offset_[v]; i < offset_[v + 1]; ++i) {
        const NodeId w = head_[i];
        if (!out_[i] || level_[w] != kUnreached) continue;
        level_[w] = level_[v] + 1;
        sink_reached |= out_degree_[w] < d;
        queue_.push_back(w);
      }
    }
    return sink_reached;
  }

  // Iterative DFS with current-arc pointers along level-increasing out-arcs
  // from s to a node below d; reversing the path sends its arcs down a
  // level, out of the phase, as dead ends are (level_ = kUnreached).
  bool augment(NodeId s, NodeId d) {
    path_.assign(1, s);
    while (!path_.empty()) {
      const NodeId v = path_.back();
      if (out_degree_[v] < d) {
        for (std::size_t k = 0; k + 1 < path_.size(); ++k) {
          out_[cur_[path_[k]]] = 0;
          out_[mirror_[cur_[path_[k]]]] = 1;
        }
        --out_degree_[s];
        ++out_degree_[v];
        return true;
      }
      std::size_t& i = cur_[v];
      while (i < offset_[v + 1] &&
             !(out_[i] && level_[head_[i]] == level_[v] + 1))
        ++i;
      if (i < offset_[v + 1]) {
        path_.push_back(head_[i]);
      } else {
        level_[v] = kUnreached;
        path_.pop_back();
      }
    }
    return false;
  }

  // Lower certificate: queue_ = S is closed under out-arcs, all out-degrees
  // >= d and some > d, so |E(S)| = their sum > d|S| and d is infeasible.
  // |E(S)| is recounted on g itself, not on the router's state.
  void check_dense_witness(NodeId d) const {
    std::uint64_t twice_edges = 0;
    for (NodeId v : queue_)
      for (NodeId w : g_.neighbors(v)) twice_edges += level_[w] != kUnreached;
    ARBODS_CHECK_MSG(twice_edges / 2 > std::uint64_t{d} * queue_.size(),
                     "dense-set witness failed: " << twice_edges / 2
                         << " edges on " << queue_.size()
                         << " nodes fit out-degree " << d);
  }

  const Graph& g_;
  std::vector<std::size_t> offset_;  // CSR offsets, size n + 1
  std::vector<NodeId> head_;         // per slot: the neighbor
  std::vector<std::size_t> mirror_;  // per slot: the edge's other slot
  std::vector<std::uint8_t> out_;    // per slot: arc points away from owner
  std::vector<NodeId> out_degree_;
  std::vector<NodeId> level_;       // BFS level; kUnreached = not in phase
  std::vector<std::size_t> cur_;    // current-arc pointer per node
  std::vector<NodeId> queue_;       // BFS order, sources first
  std::vector<NodeId> path_;
};

}  // namespace

bool orientable_with_out_degree(const Graph& g, NodeId d) {
  return pseudoarboricity(g) <= d;
}

NodeId pseudoarboricity(const Graph& g) {
  if (g.num_edges() == 0) return 0;
  // p lies in [ceil(m/n) (the whole graph's density), degeneracy].
  const auto floor = static_cast<NodeId>(
      (g.num_edges() + g.num_nodes() - 1) / g.num_nodes());
  const auto cores = core_decomposition(g);
  if (cores.degeneracy <= floor) return floor;
  ExcessRouter router(g, cores.position);
  const NodeId p = router.descend(floor);
  router.check_orientation(p);
  return p;
}

Orientation min_out_degree_orientation(const Graph& g, NodeId d) {
  ExcessRouter router(g, core_decomposition(g).position);
  ARBODS_CHECK_MSG(router.descend(d) <= d,
                   "graph not orientable with out-degree " << d);
  Orientation o = router.orientation();
  o.validate();
  return o;
}

Orientation optimal_orientation(const Graph& g) {
  return min_out_degree_orientation(g, pseudoarboricity(g));
}

}  // namespace arbods
