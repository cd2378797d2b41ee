// Distributed (2+eps)*alpha orientation (Barenboim & Elkin, "Sublogarithmic
// distributed MIS algorithm for sparse graphs using Nash-Williams
// decomposition", Distributed Computing 2010).
//
// H-partition: in each phase, every still-active node whose active degree
// is at most (2+eps)*alpha retires into the current level; by Nash-Williams
// at least an eps/(2+eps) fraction retires per phase, so O(log n / eps)
// phases empty the graph. Orienting every edge from lower to higher level
// (ties broken by id) bounds the out-degree by floor((2+eps)*alpha).
//
// This is the orientation prologue of Remark 4.5 (MDS with unknown alpha).
// It runs as a genuine CONGEST algorithm on the simulator: one broadcast
// of a 1-bit "retired" flag per phase. The adaptive MDS phase holds a
// reference to it and, once it has run, reads each node's out-degree
// under the orientation through out_degrees().
#pragma once

#include <vector>

#include "arboricity/orientation.hpp"
#include "common/types.hpp"
#include "congest/network.hpp"

namespace arbods {

class BarenboimElkinOrientation final : public DistributedAlgorithm {
 public:
  /// alpha: the promise on the arboricity (or an upper bound guess).
  /// eps in (0, 2].
  BarenboimElkinOrientation(NodeId alpha, double eps);

  /// Unknown-alpha variant: sequential doubling of the guess, each guess
  /// granted the O(log n / eps) phase budget that suffices once the guess
  /// reaches the true arboricity. Final guess <= 2*alpha, so the
  /// orientation out-degree is <= (2+eps)*2*alpha; rounds grow by a
  /// log(alpha) factor relative to the known-alpha run (documented
  /// substitution for Remark 4.5 — see DESIGN.md).
  static BarenboimElkinOrientation with_unknown_alpha(double eps);

  std::string_view name() const override { return "be_orientation"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;

  /// Level (phase index at retirement) per node; valid once finished.
  const std::vector<std::int64_t>& levels() const { return level_; }

  /// The low-to-high-level orientation; valid once finished.
  Orientation extract_orientation(const Graph& g) const;

  /// Each node's out-degree under extract_orientation(g) — the
  /// neighbours with a larger (level, id) — counted from the levels
  /// without building the orientation; valid once finished.
  std::vector<NodeId> out_degrees(const Graph& g) const;

  NodeId threshold() const { return threshold_; }

  /// Final guess used (== alpha when alpha was known).
  NodeId final_guess() const { return guess_; }

 private:
  void set_threshold_from_guess();

  NodeId alpha_;  // 0 when unknown
  double eps_;
  bool alpha_known_ = true;
  NodeId guess_ = 1;
  NodeId threshold_ = 0;
  std::int64_t phase_budget_ = 0;   // phases remaining for current guess
  std::int64_t budget_per_guess_ = 0;
  NodeFlags active_;
  std::vector<NodeId> active_degree_;
  std::vector<std::int64_t> level_;
  NodeId num_active_ = 0;
};

/// Convenience wrapper: runs the algorithm on `g` (unit weights), returns
/// the orientation and reports the number of CONGEST rounds used.
struct BeOrientationResult {
  Orientation orientation;
  std::int64_t rounds = 0;
  std::vector<std::int64_t> levels;
};
BeOrientationResult barenboim_elkin_orient(const Graph& g, NodeId alpha,
                                           double eps);

}  // namespace arbods
