// Lemma 4.6: the randomized set-extension algorithm, plus its two
// instantiations:
//   * Theorem 1.2 — (alpha + O(alpha/t))-approximation in O(t log Delta)
//     rounds: Lemma 4.1 with eps = 1/(4t), lambda = eps/(alpha+1), then
//     Lemma 4.6 with gamma = max(2, alpha^{1/(2t)}).
//   * Theorem 1.3 — O(k * Delta^{2/k})-approximation on general graphs in
//     O(k^2) rounds: Lemma 4.6 alone with S = empty, lambda = 1/(Delta+1),
//     gamma = Delta^{1/k}.
//
// Communication schedule per phase (t = ceil(log_gamma 1/lambda) phases):
//   round P   undominated nodes bump x by gamma (not in phase 1) and
//             broadcast it; receivers will rebuild X_u from scratch
//   then r = ceil(log_gamma(Delta+1)) + 1 iterations of
//     round S   refresh X_u (V/D messages), recompute Gamma membership
//               (u not in S∪S' and X_u >= w_u/gamma), sample with
//               probability p, sampled nodes join S' and announce (J
//               message carrying their x and an "I was undominated" flag);
//               p <- min(gamma*p, 1)
//     round D   nodes newly dominated by a J announce (D message carrying
//               their x) so neighbors can deduct them from X_u
//
// Termination is deterministic (the last iteration of every phase samples
// with p = 1); a defensive fallback completes any leftover node and sets
// used_fallback — the test suite asserts it never fires.
#pragma once

#include <vector>

#include "core/mds_result.hpp"
#include "core/partial_ds.hpp"

namespace arbods {

struct RandomizedExtensionParams {
  double lambda = 0.0;  // property (b) promise on the initial packing
  double gamma = 2.0;   // > 1
};

class RandomizedExtension final : public DistributedAlgorithm {
 public:
  /// With a `seed`, initialize starts from its S, N+(S) and packing x
  /// (Theorem 1.2's composition); the seed must have run on the same
  /// graph first (checked). With nullptr the phase runs unseeded
  /// (Theorem 1.3): S is empty and x_v = tau_v/(Delta+1) after its own
  /// weight round.
  RandomizedExtension(RandomizedExtensionParams params,
                      const PartialDominatingSet* seed);

  std::string_view name() const override { return "extension"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;

  MdsResult result(const Network& net) const;

  std::int64_t phases() const { return t_; }
  std::int64_t iterations_per_phase() const { return r_; }
  bool used_fallback() const { return used_fallback_; }

  static constexpr int kTagWeight = 1;
  static constexpr int kTagValue = 2;     // V: phase-start packing value
  static constexpr int kTagJoin = 3;      // J: joined S' (x, was_undominated)
  static constexpr int kTagDominated = 4; // D: became dominated (x)

 private:
  enum class Stage { kAwaitWeights, kSample, kDominate, kFallback, kDone };

  void start_phase(Network& net);
  void reduce_dominated();

  RandomizedExtensionParams params_;
  const PartialDominatingSet* seed_;
  Stage stage_ = Stage::kAwaitWeights;
  std::int64_t t_ = 0;  // total phases
  std::int64_t r_ = 0;  // iterations per phase
  std::int64_t phase_ = 0;
  std::int64_t iter_ = 0;
  double p_ = 0.0;
  bool used_fallback_ = false;

  std::vector<double> x_;
  /// Snapshot of x before any phase multiplication: stays feasible for the
  /// global packing LP (the working x_ is only feasible for the residual
  /// subproblem after each gamma-scaling), so this is what the returned
  /// certificate uses.
  std::vector<double> initial_x_;
  std::vector<double> big_x_;  // X_u over undominated closed neighbors
  NodeFlags in_set_;   // S union S'
  NodeFlags dominated_;
  std::vector<WorkerCounter> dominated_delta_;  // per-worker events
  NodeId num_undominated_ = 0;
};

}  // namespace arbods
