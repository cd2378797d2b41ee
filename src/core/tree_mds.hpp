// Observation A.1: on forests (arboricity 1), taking every internal node
// is a single-round 3-approximation of the unweighted MDS.
//
// Corner cases the one-line recipe misses, handled with the same single
// degree-exchange round: isolated nodes must join, and in a K2 component
// (two mutual leaves) the lower-id endpoint joins.
#pragma once

#include <vector>

#include "core/mds_result.hpp"

namespace arbods {

class TreeMds final : public DistributedAlgorithm {
 public:
  TreeMds() = default;

  std::string_view name() const override { return "tree_mds"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;

  MdsResult result(const Network& net) const;

  static constexpr int kTagDegree = 1;

 private:
  enum class Stage { kAwaitDegrees, kDone };
  Stage stage_ = Stage::kAwaitDegrees;
  // Byte flags, not std::vector<bool>: process_round writes in_set_[v] from
  // parallel workers, and packed bits would race across neighbouring nodes.
  NodeFlags in_set_;
};

}  // namespace arbods
