#include "arboricity/barenboim_elkin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace arbods {

namespace {

// The orientation rule: u -> v iff (level[u], u) < (level[v], v).
bool points_to(const std::vector<std::int64_t>& level, NodeId u, NodeId v) {
  return level[u] < level[v] || (level[u] == level[v] && u < v);
}

}  // namespace

BarenboimElkinOrientation::BarenboimElkinOrientation(NodeId alpha, double eps)
    : alpha_(alpha), eps_(eps), alpha_known_(true), guess_(alpha) {
  ARBODS_CHECK(alpha >= 1);
  ARBODS_CHECK(eps > 0.0 && eps <= 2.0);
  set_threshold_from_guess();
}

BarenboimElkinOrientation BarenboimElkinOrientation::with_unknown_alpha(
    double eps) {
  BarenboimElkinOrientation algo(1, eps);
  algo.alpha_ = 0;
  algo.alpha_known_ = false;
  algo.guess_ = 1;
  algo.set_threshold_from_guess();
  return algo;
}

void BarenboimElkinOrientation::set_threshold_from_guess() {
  threshold_ = static_cast<NodeId>(std::floor((2.0 + eps_) * guess_));
}

void BarenboimElkinOrientation::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  active_.assign(n, true);
  active_degree_.resize(n);
  level_.assign(n, -1);
  num_active_ = n;
  for (NodeId v = 0; v < n; ++v) active_degree_[v] = net.degree(v);
  // Phases needed once the guess reaches the true arboricity: the active
  // set shrinks by the factor 2/(2+eps) per phase.
  budget_per_guess_ =
      1 + static_cast<std::int64_t>(std::ceil(
              std::log(static_cast<double>(n) + 1.0) /
              std::log((2.0 + eps_) / 2.0)));
  phase_budget_ = alpha_known_ ? std::numeric_limits<std::int64_t>::max()
                               : budget_per_guess_;
}

void BarenboimElkinOrientation::process_round(Network& net) {
  const NodeId n = net.num_nodes();
  const std::int64_t phase = net.current_round();
  // First absorb last round's retirement announcements, then decide from
  // the updated local active degree, then broadcast one 1-bit flag. The
  // announcements land on the active set (the retirees' neighbours), so
  // only it is read, on the worker pool; the decide loop is serial.
  net.for_active_nodes([&](NodeId v) {
    for (const MessageView m : net.inbox(v)) {
      if (m.tag() == 0 && m.flag_at(1)) {
        ARBODS_CHECK(active_degree_[v] > 0);
        --active_degree_[v];
      }
    }
  });
  for (NodeId v = 0; v < n; ++v) {
    if (active_[v] && active_degree_[v] <= threshold_) {
      active_[v] = false;
      level_[v] = phase;
      --num_active_;
      net.broadcast(v, Message::tagged(0).add_flag(true));
    }
  }
  // Unknown alpha: when a guess exhausts its phase budget without emptying
  // the graph, the guess was too small — double it. (Every node detects
  // this locally from the globally known n and phase counter.)
  if (!alpha_known_ && num_active_ > 0 && --phase_budget_ <= 0) {
    guess_ *= 2;
    set_threshold_from_guess();
    phase_budget_ = budget_per_guess_;
  }
}

bool BarenboimElkinOrientation::finished(const Network& net) const {
  (void)net;
  return num_active_ == 0;
}

Orientation BarenboimElkinOrientation::extract_orientation(
    const Graph& g) const {
  ARBODS_CHECK(level_.size() == g.num_nodes());
  std::vector<std::vector<NodeId>> out(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u))
      if (points_to(level_, u, v)) out[u].push_back(v);
  }
  return Orientation(g, std::move(out));
}

std::vector<NodeId> BarenboimElkinOrientation::out_degrees(
    const Graph& g) const {
  ARBODS_CHECK(level_.size() == g.num_nodes());
  std::vector<NodeId> out(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u))
      if (points_to(level_, u, v)) ++out[u];
  }
  return out;
}

BeOrientationResult barenboim_elkin_orient(const Graph& g, NodeId alpha,
                                           double eps) {
  WeightedGraph wg = WeightedGraph::uniform(Graph(g));
  Network net(wg);
  BarenboimElkinOrientation algo(alpha, eps);
  RunStats stats = net.run(algo, 10 * static_cast<std::int64_t>(g.num_nodes()) + 64);
  ARBODS_CHECK_MSG(!stats.hit_round_limit,
                   "Barenboim-Elkin did not converge; alpha promise too low?");
  // Build the orientation against the caller's graph (not the local copy
  // the simulation ran on) so the returned view outlives this function.
  Orientation o = algo.extract_orientation(g);
  return {std::move(o), stats.rounds, algo.levels()};
}

}  // namespace arbods
