// Lemma 4.1: the primal-dual partial dominating set (the paper's engine).
//
// Given eps in (0,1) and 0 < lambda < 1/((alpha+1)(1+eps)), computes a set
// S and packing values {x_v} with
//   (a) w_S <= alpha * (1/(1+eps) - lambda*(alpha+1))^{-1} * sum_{v in N+(S)} x_v
//   (b) x_v >= lambda * tau_v for every undominated v,
// in O(log(Delta * lambda) / eps) CONGEST rounds, where
// tau_v = min weight in the closed neighborhood of v.
//
// Communication schedule (2 rounds per paper-iteration):
//   round 0 (init)   every node broadcasts its weight        -> tau_v
//   value round      absorb joins, bump x if undominated, broadcast x_v
//   join round       sum neighbor values into X_u; join S if
//                    X_u >= w_u/(1+eps); broadcast the join flag
// After the final join round one trailing value round applies the last
// multiplication to still-undominated nodes (their r-th bump).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "congest/network.hpp"

namespace arbods {

struct PartialDsParams {
  double eps = 0.5;     // (0,1)
  double lambda = 0.0;  // must satisfy 0 < lambda < 1/((alpha+1)(1+eps))
  NodeId alpha = 1;     // arboricity promise (used only for validation)
};

/// The successors of Lemma 4.1 (the completion phase of Theorem 1.1/3.1,
/// the randomized extension of Theorem 1.2) hold a reference to this
/// phase and read its results below once it has run.
class PartialDominatingSet final : public DistributedAlgorithm {
 public:
  explicit PartialDominatingSet(PartialDsParams params);

  std::string_view name() const override { return "partial_ds"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;

  // --- results (valid once finished) ---
  const NodeFlags& in_partial_set() const { return in_s_; }
  const NodeFlags& dominated() const { return dominated_; }
  const std::vector<double>& packing() const { return x_; }
  const std::vector<Weight>& tau() const { return tau_; }
  /// Per-node minimum-weight closed neighbor (carrier of tau_v).
  const std::vector<NodeId>& tau_witness() const { return tau_witness_; }
  std::int64_t iterations() const { return r_; }
  NodeSet partial_set() const;

  static constexpr int kTagWeight = 1;
  static constexpr int kTagValue = 2;
  static constexpr int kTagJoin = 3;

 private:
  enum class Stage { kAwaitWeights, kValueRound, kJoinRound, kDone };

  void absorb_joins(Network& net, NodeId v);

  PartialDsParams params_;
  std::int64_t r_ = 0;          // number of paper iterations
  std::int64_t iter_done_ = 0;  // completed join rounds
  Stage stage_ = Stage::kAwaitWeights;

  std::vector<double> x_;
  std::vector<Weight> tau_;
  std::vector<NodeId> tau_witness_;
  NodeFlags in_s_;
  NodeFlags dominated_;
};

/// r from the proof of Lemma 4.1: the integer >= 1 with
/// (1+eps)^{r-1}/(Delta+1) <= lambda < (1+eps)^r/(Delta+1),
/// or 0 when lambda < 1/(Delta+1) (the loop is skipped, S stays empty).
std::int64_t partial_ds_iterations(double eps, double lambda, NodeId delta);

}  // namespace arbods
