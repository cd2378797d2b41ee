// Public one-call drivers for every algorithm in the paper.
//
// Every solver is a phase list run by protocol::run_protocol
// (src/protocol/) on ONE Network. In the composed algorithms (Theorem
// 1.2's partial_ds + extension, Remark 4.5's be_orientation +
// adaptive_mds, Theorem 1.1/3.1's partial_ds + completion) the second
// phase is constructed with a reference to the first and reads its
// results when it starts. Both reuse the single Network — arenas, worker
// pool, and RNG streams are constructed exactly once — and the returned
// MdsResult::stats carries the per-phase breakdown (RunStats::phases)
// for free; there is no hand-rolled stats math.
//
// Each driver comes in two flavours:
//   * (const WeightedGraph&, ..., CongestConfig): constructs a Network
//     and delegates — the classic one-call form.
//   * (Network&, ...): runs on the caller's Network, which may be reused
//     across runs and solvers (run_protocol resets it first). This is
//     what the scenario batch harness pools.
//
//   solve_mds_deterministic   Theorem 1.1   (2a+1)(1+eps), O(log(Delta/a)/eps)
//   solve_mds_unweighted      Theorem 3.1   same bound, completion = self
//   solve_mds_randomized      Theorem 1.2   a + O(a/t), O(t log Delta), rand.
//   solve_mds_general         Theorem 1.3   O(k Delta^{2/k}), O(k^2), rand.
//   solve_mds_unknown_delta   Remark 4.4
//   solve_mds_unknown_alpha   Remark 4.5
//   solve_mds_tree            Observation A.1 (forests, unweighted)
#pragma once

#include "core/mds_result.hpp"
#include "graph/weighted_graph.hpp"

namespace arbods {

/// Theorem 1.1. alpha >= 1 must upper-bound the arboricity; eps in (0,1).
MdsResult solve_mds_deterministic(const WeightedGraph& wg, NodeId alpha,
                                  double eps, CongestConfig config = {});
MdsResult solve_mds_deterministic(Network& net, NodeId alpha, double eps);

/// Theorem 3.1 (intended for unit weights; the undominated nodes join
/// themselves). Same guarantee as Theorem 1.1 on unweighted instances.
MdsResult solve_mds_unweighted(const WeightedGraph& wg, NodeId alpha,
                               double eps, CongestConfig config = {});
MdsResult solve_mds_unweighted(Network& net, NodeId alpha, double eps);

/// Theorem 1.2. t in [1, alpha/log(alpha)] (clamped); randomized —
/// expected approximation alpha + O(alpha/t).
MdsResult solve_mds_randomized(const WeightedGraph& wg, NodeId alpha,
                               std::int64_t t, CongestConfig config = {});
MdsResult solve_mds_randomized(Network& net, NodeId alpha, std::int64_t t);

/// Theorem 1.3 on general graphs (no arboricity promise). k >= 1.
MdsResult solve_mds_general(const WeightedGraph& wg, int k,
                            CongestConfig config = {});
MdsResult solve_mds_general(Network& net, int k);

/// Remark 4.4 (Delta unknown; alpha known).
MdsResult solve_mds_unknown_delta(const WeightedGraph& wg, NodeId alpha,
                                  double eps, CongestConfig config = {});
MdsResult solve_mds_unknown_delta(Network& net, NodeId alpha, double eps);

/// Remark 4.5 (alpha unknown; n known). be_knows_alpha selects the
/// orientation prologue flavour: the doubling alpha-free variant (false)
/// or BE10 handed be_alpha_hint as in the remark's citation (true).
MdsResult solve_mds_unknown_alpha(const WeightedGraph& wg, double eps,
                                  CongestConfig config = {},
                                  bool be_knows_alpha = false,
                                  NodeId be_alpha_hint = 1);
MdsResult solve_mds_unknown_alpha(Network& net, double eps,
                                  bool be_knows_alpha = false,
                                  NodeId be_alpha_hint = 1);

/// Observation A.1 (forests; unweighted semantics).
MdsResult solve_mds_tree(const WeightedGraph& wg, CongestConfig config = {});
MdsResult solve_mds_tree(Network& net);

/// Lenzen–Wattenhofer-style threshold greedy baseline
/// (baselines/distributed_greedy.hpp): O(alpha log Delta) on unit
/// weights, deterministic, O(log Delta) phases.
MdsResult solve_mds_greedy_threshold(const WeightedGraph& wg,
                                     CongestConfig config = {});
MdsResult solve_mds_greedy_threshold(Network& net);

/// "Vote for your best neighbor" election greedy baseline: O(1) phases,
/// no worst-case approximation guarantee.
MdsResult solve_mds_greedy_election(const WeightedGraph& wg,
                                    CongestConfig config = {});
MdsResult solve_mds_greedy_election(Network& net);

/// The Theorem 1.2 parameter schedule (exposed for tests/benches):
struct Theorem12Params {
  double eps;
  double lambda;
  double gamma;
};
Theorem12Params theorem12_params(NodeId alpha, std::int64_t t);

}  // namespace arbods
