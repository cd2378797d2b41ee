#include "core/solvers.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/distributed_greedy.hpp"
#include "common/check.hpp"
#include "core/deterministic_mds.hpp"
#include "core/partial_ds.hpp"
#include "core/randomized.hpp"
#include "core/tree_mds.hpp"
#include "core/unknown_params.hpp"
#include "protocol/runner.hpp"

namespace arbods {

namespace {

std::int64_t round_budget(const Network& net) {
  // Generous a-priori bound per phase: every algorithm here is O(polylog)
  // rounds, but the unknown-parameter variants scale with
  // log n * log W / eps.
  return 400000 + 40 * static_cast<std::int64_t>(net.num_nodes());
}

void check_budget(const RunStats& stats) {
  ARBODS_CHECK_MSG(!stats.hit_round_limit,
                   "round budget exceeded (phase '"
                       << (stats.phases.empty() ? "?"
                                                : stats.phases.back().name)
                       << "')");
}

}  // namespace

MdsResult solve_mds_deterministic(Network& net, NodeId alpha, double eps) {
  DeterministicMdsParams params;
  params.eps = eps;
  params.alpha = alpha;
  params.completion = CompletionMode::kMinWeightNeighbor;
  return run_deterministic_mds(net, params, round_budget(net));
}

MdsResult solve_mds_deterministic(const WeightedGraph& wg, NodeId alpha,
                                  double eps, CongestConfig config) {
  Network net(wg, config);
  return solve_mds_deterministic(net, alpha, eps);
}

MdsResult solve_mds_unweighted(Network& net, NodeId alpha, double eps) {
  DeterministicMdsParams params;
  params.eps = eps;
  params.alpha = alpha;
  params.completion = CompletionMode::kSelf;
  return run_deterministic_mds(net, params, round_budget(net));
}

MdsResult solve_mds_unweighted(const WeightedGraph& wg, NodeId alpha,
                               double eps, CongestConfig config) {
  Network net(wg, config);
  return solve_mds_unweighted(net, alpha, eps);
}

Theorem12Params theorem12_params(NodeId alpha, std::int64_t t) {
  ARBODS_CHECK(alpha >= 1 && t >= 1);
  Theorem12Params p;
  p.eps = 1.0 / (4.0 * static_cast<double>(t));
  p.lambda = p.eps / (static_cast<double>(alpha) + 1.0);
  p.gamma = std::max(2.0, std::pow(static_cast<double>(alpha),
                                   1.0 / (2.0 * static_cast<double>(t))));
  return p;
}

MdsResult solve_mds_randomized(Network& net, NodeId alpha, std::int64_t t) {
  const Theorem12Params sched = theorem12_params(alpha, t);
  // Theorem 1.2: Lemma 4.6 starts from the (S, x) Lemma 4.1 computed;
  // both phases share net's arenas/pool/RNG storage.
  PartialDominatingSet partial({sched.eps, sched.lambda, alpha});
  RandomizedExtension ext({sched.lambda, sched.gamma}, &partial);
  check_budget(protocol::run_protocol(net, {&partial, &ext},
                                      round_budget(net)));
  MdsResult res = ext.result(net);
  res.iterations = partial.iterations() + ext.phases();
  return res;
}

MdsResult solve_mds_randomized(const WeightedGraph& wg, NodeId alpha,
                               std::int64_t t, CongestConfig config) {
  Network net(wg, config);
  return solve_mds_randomized(net, alpha, t);
}

MdsResult solve_mds_general(Network& net, int k) {
  ARBODS_CHECK(k >= 1);
  const double delta = static_cast<double>(net.graph().max_degree());
  RandomizedExtensionParams ep;
  ep.lambda = 1.0 / (delta + 1.0);
  ep.gamma = std::max(1.5, std::pow(delta, 1.0 / static_cast<double>(k)));
  RandomizedExtension ext(ep, nullptr);
  check_budget(protocol::run_protocol(net, {&ext}, round_budget(net)));
  return ext.result(net);
}

MdsResult solve_mds_general(const WeightedGraph& wg, int k,
                            CongestConfig config) {
  Network net(wg, config);
  return solve_mds_general(net, k);
}

MdsResult solve_mds_unknown_delta(Network& net, NodeId alpha, double eps) {
  AdaptiveMdsParams params;
  params.mode = AdaptiveMode::kUnknownDelta;
  params.alpha = alpha;
  params.eps = eps;
  AdaptiveMds algo(params);
  check_budget(protocol::run_protocol(net, {&algo}, round_budget(net)));
  return algo.result(net);
}

MdsResult solve_mds_unknown_delta(const WeightedGraph& wg, NodeId alpha,
                                  double eps, CongestConfig config) {
  Network net(wg, config);
  return solve_mds_unknown_delta(net, alpha, eps);
}

MdsResult solve_mds_unknown_alpha(Network& net, double eps,
                                  bool be_knows_alpha, NodeId be_alpha_hint) {
  // Remark 4.5: the adaptive loop derives its lambdas from the per-node
  // out-degrees of the Barenboim–Elkin orientation prologue.
  BarenboimElkinOrientation orientation =
      be_knows_alpha
          ? BarenboimElkinOrientation(std::max<NodeId>(1, be_alpha_hint), eps)
          : BarenboimElkinOrientation::with_unknown_alpha(eps);
  AdaptiveMdsParams params;
  params.mode = AdaptiveMode::kUnknownAlpha;
  params.eps = eps;
  AdaptiveMds algo(params, orientation);
  check_budget(protocol::run_protocol(net, {&orientation, &algo},
                                      round_budget(net)));
  return algo.result(net);
}

MdsResult solve_mds_unknown_alpha(const WeightedGraph& wg, double eps,
                                  CongestConfig config, bool be_knows_alpha,
                                  NodeId be_alpha_hint) {
  Network net(wg, config);
  return solve_mds_unknown_alpha(net, eps, be_knows_alpha, be_alpha_hint);
}

MdsResult solve_mds_tree(Network& net) {
  TreeMds algo;
  check_budget(protocol::run_protocol(net, {&algo}, round_budget(net)));
  return algo.result(net);
}

MdsResult solve_mds_tree(const WeightedGraph& wg, CongestConfig config) {
  Network net(wg, config);
  return solve_mds_tree(net);
}

MdsResult solve_mds_greedy_threshold(Network& net) {
  baselines::ThresholdGreedyMds algo;
  check_budget(protocol::run_protocol(net, {&algo}, round_budget(net)));
  return algo.result(net);
}

MdsResult solve_mds_greedy_threshold(const WeightedGraph& wg,
                                     CongestConfig config) {
  Network net(wg, config);
  return solve_mds_greedy_threshold(net);
}

MdsResult solve_mds_greedy_election(Network& net) {
  baselines::ElectionGreedyMds algo;
  check_budget(protocol::run_protocol(net, {&algo}, round_budget(net)));
  return algo.result(net);
}

MdsResult solve_mds_greedy_election(const WeightedGraph& wg,
                                    CongestConfig config) {
  Network net(wg, config);
  return solve_mds_greedy_election(net);
}

}  // namespace arbods
