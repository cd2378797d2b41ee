// Remarks 4.4 and 4.5: the algorithm when Delta or alpha is unknown.
//
// Both variants share one loop (the paper presents 4.5 as "similar to 4.4
// with an extra step"): Lemma 4.1 iterations augmented with a per-iteration
// self-completion step — any undominated node whose packing value has
// crossed lambda_v * tau_v immediately pulls its tau-witness into the final
// set instead of waiting for a global phase boundary it cannot detect.
//
//   kUnknownDelta (Remark 4.4): x_v starts at tau_v / max_{u in N+(v)}|N+(u)|
//     (one degree exchange), lambda_v = 1/((2*alpha+1)(1+eps)); terminates
//     after O(log(Delta)/eps) iterations with the Theorem 1.1 guarantee.
//
//   kUnknownAlpha (Remark 4.5): composed as a two-phase pipeline — a
//     BarenboimElkinOrientation prologue phase runs first, and this phase
//     holds a reference to it and reads each node's out-degree under its
//     orientation at initialize; hat_alpha_v = max out-degree over N+(v)
//     gives the per-node lambda_v = 1/((2*hat_alpha_v+1)(1+eps)); x_v
//     starts at tau_v/(n+1). O(log n / eps) iterations; approximation
//     (2*alpha+1)(2+O(eps)).
#pragma once

#include <vector>

#include "arboricity/barenboim_elkin.hpp"
#include "core/mds_result.hpp"

namespace arbods {

enum class AdaptiveMode {
  kUnknownDelta,  // Remark 4.4
  kUnknownAlpha,  // Remark 4.5 (requires an orientation prologue phase)
};

struct AdaptiveMdsParams {
  AdaptiveMode mode = AdaptiveMode::kUnknownDelta;
  double eps = 0.5;
  /// Required (and used) only for kUnknownDelta.
  NodeId alpha = 1;
};

class AdaptiveMds final : public DistributedAlgorithm {
 public:
  /// kUnknownDelta.
  explicit AdaptiveMds(AdaptiveMdsParams params);
  /// kUnknownAlpha: `orientation` is the prologue phase; it must have run
  /// on the same graph before initialize (checked).
  AdaptiveMds(AdaptiveMdsParams params,
              const BarenboimElkinOrientation& orientation);

  std::string_view name() const override { return "adaptive_mds"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;

  MdsResult result(const Network& net) const;

  std::int64_t iterations() const { return iterations_; }
  const std::vector<double>& lambda_per_node() const { return lambda_; }

  static constexpr int kTagInfo = 1;     // weight + degree/out-degree
  static constexpr int kTagValue = 2;    // packing value
  static constexpr int kTagJoin = 3;     // joined the set (S or S')
  static constexpr int kTagRequest = 4;  // "please join, you carry tau_v"

 private:
  enum class Stage { kInfoExchange, kValueRound, kJoinRound, kDone };

  AdaptiveMdsParams params_;
  const BarenboimElkinOrientation* orientation_ = nullptr;
  std::vector<NodeId> out_degree_;  // kUnknownAlpha: under the orientation
  Stage stage_ = Stage::kInfoExchange;
  std::int64_t iterations_ = 0;
  bool first_value_round_ = true;

  std::vector<double> x_;
  std::vector<double> lambda_;
  std::vector<Weight> tau_;
  std::vector<NodeId> tau_witness_;
  NodeFlags in_final_;              // S union S'
  NodeFlags dominated_;             // includes "pending" requesters
  /// Self-witness joins decided in a value round announce in the next join
  /// round (join announcements are only absorbed in value rounds, so
  /// broadcasting them from a value round would be lost).
  NodeFlags pending_join_announce_;
  std::vector<WorkerCounter> dominated_delta_;  // per-worker events
  NodeId num_undominated_ = 0;

  void reduce_dominated();
};

}  // namespace arbods
