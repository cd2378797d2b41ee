// Theorem 1.1 (weighted) and Theorem 3.1 (unweighted):
// (2alpha+1)(1+eps)-approximate MDS in O(log(Delta/alpha)/eps) CONGEST
// rounds, deterministic.
//
// Structure (a two-phase run_protocol pipeline): run Lemma 4.1
// (core/partial_ds.hpp) with lambda = 1/((2alpha+1)(1+eps)); then the
// CompletionPhase brings one dominator per still-undominated node v into
// the set:
//   * kMinWeightNeighbor (Thm 1.1): the node of weight tau_v in N+(v)
//     (v knows it from the weight prologue; 2 completion rounds), or
//   * kSelf (Thm 3.1, unweighted): v itself (1 completion round).
// The CompletionPhase holds a reference to the partial phase and reads
// its set, dominated flags, tau witnesses and packing in place;
// run_deterministic_mds composes the two on a caller-provided (reusable)
// Network.
#pragma once

#include <optional>

#include "core/mds_result.hpp"
#include "core/partial_ds.hpp"

namespace arbods {

enum class CompletionMode {
  kMinWeightNeighbor,  // Theorem 1.1
  kSelf,               // Theorem 3.1 (intended for unweighted instances)
};

struct DeterministicMdsParams {
  double eps = 0.5;
  NodeId alpha = 1;
  CompletionMode completion = CompletionMode::kMinWeightNeighbor;
  /// Override lambda; by default 1/((2*alpha+1)(1+eps)) per Theorem 1.1.
  std::optional<double> lambda;
};

/// Completion of Theorem 1.1/3.1 as a reusable phase: every node left
/// undominated by the preceding partial_ds phase pulls its tau-witness
/// (or itself) into the final set. `partial` must outlive this phase's
/// result() and must have run on the same graph before initialize
/// (checked).
class CompletionPhase final : public DistributedAlgorithm {
 public:
  CompletionPhase(CompletionMode mode, const PartialDominatingSet& partial);

  std::string_view name() const override { return "completion"; }
  void initialize(Network& net) override;
  void process_round(Network& net) override;
  bool finished(const Network& net) const override;

  /// Assembles the result (valid once finished): S union S', the packing
  /// certificate and iteration count inherited from the partial phase,
  /// and the Network's accumulated (all-phase) statistics.
  MdsResult result(const Network& net) const;

  static constexpr int kTagRequest = 4;

 private:
  enum class Stage { kRequest, kCompletionJoin, kDone };

  CompletionMode mode_;
  const PartialDominatingSet& partial_;
  Stage stage_ = Stage::kRequest;
  NodeFlags in_final_;  // S union S'
};

/// Composes partial_ds + completion on the caller's Network (constructed
/// once, reusable): the Theorem 1.1 / Theorem 3.1 pipeline, with the
/// per-phase statistics breakdown in the returned result's stats.
MdsResult run_deterministic_mds(Network& net,
                                const DeterministicMdsParams& params,
                                std::int64_t max_rounds_per_phase = 1'000'000);

/// The lambda of Theorem 1.1.
double theorem11_lambda(NodeId alpha, double eps);

}  // namespace arbods
