// Tests for Remarks 4.4 (unknown Delta) and 4.5 (unknown alpha).
#include <gtest/gtest.h>

#include <cmath>

#include "core/solvers.hpp"
#include "core/unknown_params.hpp"
#include "protocol/runner.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"
#include "graph/verify.hpp"

namespace arbods {
namespace {

// --------------------------------------------------------------- remark 4.4

class UnknownDeltaTest
    : public ::testing::TestWithParam<std::pair<NodeId, double>> {};

TEST_P(UnknownDeltaTest, ValidWithTheorem11Certificate) {
  auto [alpha, eps] = GetParam();
  Rng rng(500 + alpha);
  Graph g = gen::k_tree_union(250, alpha, rng);
  auto w = gen::uniform_weights(250, 64, rng);
  WeightedGraph wg(std::move(g), std::move(w));
  MdsResult res = solve_mds_unknown_delta(wg, alpha, eps);
  res.validate(wg, 1e-5);
  // The remark keeps the (2a+1)(1+eps) guarantee; check it through the
  // certificate the algorithm itself produces.
  const double bound = (2.0 * alpha + 1.0) * (1.0 + eps);
  EXPECT_LE(res.certified_ratio(), bound * (1 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    AlphaEps, UnknownDeltaTest,
    ::testing::Values(std::pair<NodeId, double>{1, 0.2},
                      std::pair<NodeId, double>{2, 0.5},
                      std::pair<NodeId, double>{3, 0.3},
                      std::pair<NodeId, double>{4, 0.7}));

TEST(UnknownDelta, RoundsScaleWithLogDeltaOverEps) {
  // Star: Delta = n-1. Rounds should stay O(log(Delta)/eps) + O(1).
  auto wg = WeightedGraph::uniform(gen::star(1000));
  MdsResult res = solve_mds_unknown_delta(wg, 1, 0.5);
  res.validate(wg, 1e-5);
  const double bound = std::log(1000.0) / std::log1p(0.5);
  EXPECT_LE(static_cast<double>(res.iterations), bound + 3.0);
  EXPECT_LE(res.stats.rounds, 3 * res.iterations + 5);
}

TEST(UnknownDelta, IsolatedNodesSelfCompleteImmediately) {
  WeightedGraph wg(Graph(4), {2, 3, 4, 5});
  MdsResult res = solve_mds_unknown_delta(wg, 1, 0.5);
  res.validate(wg, 1e-5);
  EXPECT_EQ(res.dominating_set.size(), 4u);
  EXPECT_LE(res.iterations, 2);
}

TEST(UnknownDelta, MatchesKnownDeltaQualityApproximately) {
  Rng rng(501);
  Graph g = gen::barabasi_albert(300, 2, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  MdsResult unknown = solve_mds_unknown_delta(wg, 2, 0.3);
  MdsResult known = solve_mds_deterministic(wg, 2, 0.3);
  unknown.validate(wg, 1e-5);
  // Same guarantee: neither should be more than the bound apart.
  const double bound = 5.0 * 1.3;
  EXPECT_LE(unknown.certified_ratio(), bound * (1 + 1e-6));
  EXPECT_LE(known.certified_ratio(), bound * (1 + 1e-6));
}

// --------------------------------------------------------------- remark 4.5

TEST(UnknownAlpha, ValidWithDoublingOrientation) {
  Rng rng(502);
  Graph g = gen::k_tree_union(200, 2, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  MdsResult res = solve_mds_unknown_alpha(wg, 0.5);
  res.validate(wg, 1e-5);
  EXPECT_GT(res.packing_lower_bound, 0.0);
}

TEST(UnknownAlpha, ValidWithKnownAlphaOrientation) {
  Rng rng(503);
  Graph g = gen::k_tree_union(200, 3, rng);
  auto w = gen::uniform_weights(200, 32, rng);
  WeightedGraph wg(std::move(g), std::move(w));
  MdsResult res =
      solve_mds_unknown_alpha(wg, 0.5, {}, /*be_knows_alpha=*/true, 3);
  res.validate(wg, 1e-5);
  // Remark 4.5 bound: (2*hat_alpha+1)(1+eps) with hat_alpha <= (2+eps)*3;
  // certified ratio must respect the analytic bound with slack.
  const double hat_alpha_max = (2.0 + 0.5) * 3.0;
  EXPECT_LE(res.certified_ratio(),
            (2.0 * hat_alpha_max + 1.0) * 1.5 * (1 + 1e-6));
}

TEST(UnknownAlpha, TreeInstanceStaysCheap) {
  Rng rng(504);
  Graph g = gen::random_tree_prufer(300, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  MdsResult res = solve_mds_unknown_alpha(wg, 0.5);
  res.validate(wg, 1e-5);
  // alpha-hat <= (2+eps)*2 on trees with the doubling prologue, so the
  // certificate stays below (2*5+1)(1+eps).
  EXPECT_LE(res.certified_ratio(), 11.0 * 1.5 * (1 + 1e-6));
}

TEST(UnknownAlpha, RoundsIncludeOrientationPrologue) {
  Rng rng(505);
  Graph g = gen::k_tree_union(150, 2, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  Network net(wg);
  // Remark 4.5 as a two-phase pipeline: the adaptive loop reads the
  // per-node out-degrees of the orientation prologue it references.
  auto orientation = BarenboimElkinOrientation::with_unknown_alpha(0.5);
  AdaptiveMdsParams params;
  params.mode = AdaptiveMode::kUnknownAlpha;
  params.eps = 0.5;
  AdaptiveMds algo(params, orientation);
  RunStats stats = protocol::run_protocol(net, {&orientation, &algo});
  ASSERT_FALSE(stats.hit_round_limit);
  ASSERT_EQ(stats.phases.size(), 2u);
  EXPECT_EQ(stats.phases[0].name, "be_orientation");
  EXPECT_EQ(stats.phases[1].name, "adaptive_mds");
  EXPECT_GT(stats.phases[0].rounds, 0);  // the prologue paid real rounds
  EXPECT_EQ(stats.phases[0].rounds + stats.phases[1].rounds, stats.rounds);
  EXPECT_GT(algo.iterations(), 0);
  // Per-node lambdas were derived from local orientation estimates.
  for (NodeId v = 0; v < wg.num_nodes(); ++v)
    EXPECT_GT(algo.lambda_per_node()[v], 0.0);
}

TEST(UnknownAlpha, AdaptivePhaseWithoutPrologueIsRejected) {
  auto wg = WeightedGraph::uniform(gen::star(8));
  Network net(wg);
  AdaptiveMdsParams params;
  params.mode = AdaptiveMode::kUnknownAlpha;
  params.eps = 0.5;
  // The prologue is referenced but never run on this graph.
  auto orientation = BarenboimElkinOrientation::with_unknown_alpha(0.5);
  AdaptiveMds algo(params, orientation);
  EXPECT_THROW(net.run(algo, 100), CheckError);
}

TEST(UnknownAlpha, EmptyAndSingletonGraphs) {
  auto empty = WeightedGraph::uniform(Graph(0));
  EXPECT_TRUE(solve_mds_unknown_alpha(empty, 0.5).dominating_set.empty());
  auto single = WeightedGraph::uniform(Graph(1));
  MdsResult res = solve_mds_unknown_alpha(single, 0.5);
  EXPECT_EQ(res.dominating_set, NodeSet{0});
}

TEST(UnknownDelta, EmptyAndSingletonGraphs) {
  auto empty = WeightedGraph::uniform(Graph(0));
  EXPECT_TRUE(solve_mds_unknown_delta(empty, 1, 0.5).dominating_set.empty());
  auto single = WeightedGraph::uniform(Graph(1));
  MdsResult res = solve_mds_unknown_delta(single, 1, 0.5);
  EXPECT_EQ(res.dominating_set, NodeSet{0});
}

TEST(AdaptiveMds, RejectsBadEps) {
  AdaptiveMdsParams p;
  p.eps = 0.0;
  EXPECT_THROW(AdaptiveMds{p}, CheckError);
}

}  // namespace
}  // namespace arbods
