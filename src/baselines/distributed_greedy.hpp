// Distributed greedy baselines in the style of Lenzen & Wattenhofer
// (DISC 2010), the algorithms our paper improves on.
//
// ThresholdGreedyMds (deterministic, unweighted): phases i = 0,1,...,
// threshold theta_i = (Delta+1)/2^i; every node whose uncovered closed
// degree reaches theta_i joins. The max uncovered degree halves per phase,
// so O(log Delta) phases suffice; on arboricity-alpha graphs the weight
// added per phase is O(alpha * OPT), giving the O(alpha log Delta)
// approximation shape of LW10's deterministic algorithm.
//
// ElectionGreedyMds (deterministic, unweighted): each uncovered node
// nominates the member of its closed neighborhood with the largest
// uncovered degree (ties by id); nominated nodes join. Every uncovered
// node is adjacent to its nominee, so one 4-round phase completes the
// set — the classical "vote for your best neighbor" O(1)-round heuristic.
// No worst-case approximation guarantee; measured empirically as a
// quality/latency contrast point in the baseline table.
#pragma once

#include <vector>

#include "core/mds_result.hpp"

namespace arbods::baselines {

class ThresholdGreedyMds final : public DistributedAlgorithm {
 public:
  ThresholdGreedyMds() = default;

  std::string_view name() const override { return "greedy_threshold"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;
  MdsResult result(const Network& net) const;

  static constexpr int kTagJoin = 1;
  static constexpr int kTagCovered = 2;

 private:
  enum class Stage { kJoin, kCoverUpdate, kDone };

  void reduce_covered();
  std::int64_t join_round_for(NodeId ucd) const;

  Stage stage_ = Stage::kJoin;
  std::int64_t phase_ = 0;
  std::int64_t max_phase_ = 0;
  NodeId delta_plus_1_ = 1;
  NodeFlags in_set_;
  NodeFlags covered_;
  std::vector<NodeId> uncovered_degree_;  // |N+(v) ∩ uncovered|
  std::vector<WorkerCounter> covered_delta_;  // per-worker cover events
  NodeId num_uncovered_ = 0;
};

class ElectionGreedyMds final : public DistributedAlgorithm {
 public:
  ElectionGreedyMds() = default;

  std::string_view name() const override { return "greedy_election"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;
  MdsResult result(const Network& net) const;

  static constexpr int kTagUncov = 1;
  static constexpr int kTagCount = 2;
  static constexpr int kTagNominate = 3;
  static constexpr int kTagJoin = 4;

 private:
  enum class Stage { kUncov, kCount, kNominate, kJoin, kDone };

  void reduce_covered();

  Stage stage_ = Stage::kUncov;
  NodeFlags in_set_;
  NodeFlags covered_;
  NodeFlags self_nominated_;
  std::vector<NodeId> uncovered_degree_;
  std::vector<WorkerCounter> covered_delta_;  // per-worker cover events
  NodeId num_uncovered_ = 0;
};

}  // namespace arbods::baselines
