// Tests for the randomized algorithms: Lemma 4.6 (the extension),
// Theorem 1.2 (alpha + O(alpha/t)), and Theorem 1.3 (general graphs).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/exact.hpp"
#include "core/deterministic_mds.hpp"
#include "core/randomized.hpp"
#include "core/solvers.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"
#include "graph/verify.hpp"
#include "protocol/runner.hpp"

namespace arbods {
namespace {

CongestConfig seeded(std::uint64_t seed) {
  CongestConfig cfg;
  cfg.seed = seed;
  return cfg;
}

// ----------------------------------------------------------- theorem 1.2

class Theorem12Test
    : public ::testing::TestWithParam<std::pair<NodeId, std::int64_t>> {};

TEST_P(Theorem12Test, ValidAndNeverUsesFallback) {
  auto [alpha, t] = GetParam();
  Rng rng(100 + alpha * 10 + static_cast<unsigned>(t));
  Graph g = gen::k_tree_union(250, alpha, rng);
  auto w = gen::uniform_weights(250, 32, rng);
  WeightedGraph wg(std::move(g), std::move(w));
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    MdsResult res = solve_mds_randomized(wg, alpha, t, seeded(seed));
    res.validate(wg, 1e-5);
    EXPECT_FALSE(res.used_fallback) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaT, Theorem12Test,
    ::testing::Values(std::pair<NodeId, std::int64_t>{2, 1},
                      std::pair<NodeId, std::int64_t>{2, 2},
                      std::pair<NodeId, std::int64_t>{4, 2},
                      std::pair<NodeId, std::int64_t>{4, 4},
                      std::pair<NodeId, std::int64_t>{8, 3}));

TEST(Theorem12, ParameterScheduleMatchesPaper) {
  auto p = theorem12_params(16, 2);
  EXPECT_DOUBLE_EQ(p.eps, 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(p.lambda, p.eps / 17.0);
  EXPECT_DOUBLE_EQ(p.gamma, 2.0);  // max(2, 16^{1/4} = 2)
  auto p2 = theorem12_params(10000, 1);
  EXPECT_GT(p2.gamma, 2.0);  // 10000^{1/2} = 100
}

TEST(Theorem12, QualityWithinAnalyticBoundOnAverage) {
  // Expected ratio <= alpha + O(alpha/t); we allow the full constant from
  // Lemma 4.6 (wS <= (a + a/t) LB, E[wS'] <= gamma(gamma+1)ceil(log_g 1/l) LB)
  // and check the *certified* ratio against it, averaged over seeds.
  const NodeId alpha = 4;
  const std::int64_t t = 2;
  Rng rng(321);
  Graph g = gen::k_tree_union(300, alpha, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  const auto sched = theorem12_params(alpha, t);
  const double ws_factor =
      alpha / (1.0 / (1.0 + sched.eps) - sched.lambda * (alpha + 1.0));
  const double ext_factor =
      sched.gamma * (sched.gamma + 1.0) *
      std::ceil(std::log(1.0 / sched.lambda) / std::log(sched.gamma));
  double total_ratio = 0;
  const int kSeeds = 5;
  for (int s = 0; s < kSeeds; ++s) {
    MdsResult res = solve_mds_randomized(wg, alpha, t, seeded(1000 + s));
    res.validate(wg, 1e-5);
    total_ratio += res.certified_ratio();
  }
  EXPECT_LE(total_ratio / kSeeds, (ws_factor + ext_factor) * 1.10);
}

TEST(Theorem12, LargerTImprovesApproximationOnAverage) {
  const NodeId alpha = 8;
  Rng rng(322);
  Graph g = gen::k_tree_union(400, alpha, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  auto avg_ratio = [&](std::int64_t t) {
    double sum = 0;
    for (int s = 0; s < 4; ++s)
      sum += solve_mds_randomized(wg, alpha, t, seeded(2000 + s))
                 .certified_ratio();
    return sum / 4;
  };
  // Not strictly monotone run-to-run, but t=4 should not be noticeably
  // worse than t=1 and rounds must grow.
  const double r1 = avg_ratio(1);
  const double r4 = avg_ratio(4);
  EXPECT_LE(r4, r1 * 1.15);
  MdsResult a = solve_mds_randomized(wg, alpha, 1, seeded(1));
  MdsResult b = solve_mds_randomized(wg, alpha, 4, seeded(1));
  EXPECT_GE(b.stats.rounds, a.stats.rounds);
}

TEST(Theorem12, SeedReproducibility) {
  Rng rng(323);
  Graph g = gen::k_tree_union(150, 3, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  MdsResult a = solve_mds_randomized(wg, 3, 2, seeded(42));
  MdsResult b = solve_mds_randomized(wg, 3, 2, seeded(42));
  EXPECT_EQ(a.dominating_set, b.dominating_set);
}

// ----------------------------------------------------------- theorem 1.3

class Theorem13Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem13Test, ValidOnGeneralGraphs) {
  const int k = GetParam();
  Rng rng(400 + k);
  Graph g = gen::erdos_renyi_gnp(200, 0.05, rng);
  auto w = gen::uniform_weights(200, 16, rng);
  WeightedGraph wg(std::move(g), std::move(w));
  for (std::uint64_t seed : {7ull, 8ull}) {
    MdsResult res = solve_mds_general(wg, k, seeded(seed));
    res.validate(wg, 1e-5);
    EXPECT_FALSE(res.used_fallback);
  }
}

INSTANTIATE_TEST_SUITE_P(K, Theorem13Test, ::testing::Values(1, 2, 3, 5));

TEST(Theorem13, RoundComplexityGrowsLikeKSquared) {
  Rng rng(401);
  Graph g = gen::erdos_renyi_gnp(300, 0.04, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  MdsResult r1 = solve_mds_general(wg, 1, seeded(5));
  MdsResult r4 = solve_mds_general(wg, 4, seeded(5));
  // k=1: gamma = Delta -> t = 1 phase of few iterations. k=4 runs more
  // phases of more iterations each.
  EXPECT_GT(r4.stats.rounds, r1.stats.rounds);
}

TEST(Theorem13, QualityBoundSpotCheck) {
  // E[w] <= Delta^{1/k}(Delta^{1/k}+1)(k+1) * OPT; compare the certified
  // ratio (vs the packing bound) with margin, averaged over seeds.
  Rng rng(402);
  Graph g = gen::erdos_renyi_gnp(150, 0.08, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  const double delta = wg.graph().max_degree();
  const int k = 2;
  const double gk = std::pow(delta, 1.0 / k);
  const double bound = gk * (gk + 1.0) * (k + 1);
  double total = 0;
  for (int s = 0; s < 5; ++s)
    total += solve_mds_general(wg, k, seeded(500 + s)).certified_ratio();
  EXPECT_LE(total / 5, bound * 1.2);
}

TEST(Theorem13, WorksOnCliqueAndStar) {
  auto clique = WeightedGraph::uniform(gen::clique(40));
  auto star = WeightedGraph::uniform(gen::star(60));
  for (int k : {1, 2, 3}) {
    MdsResult rc = solve_mds_general(clique, k, seeded(9));
    rc.validate(clique, 1e-5);
    MdsResult rs = solve_mds_general(star, k, seeded(9));
    rs.validate(star, 1e-5);
  }
}

// ----------------------------------------------------------- lemma 4.6 raw

TEST(Lemma46, ExtensionRejectsBadParams) {
  EXPECT_THROW(RandomizedExtension({0.0, 2.0}, nullptr), CheckError);
  EXPECT_THROW(RandomizedExtension({0.1, 1.0}, nullptr), CheckError);
}

TEST(Lemma46, PhaseAndIterationCountsMatchFormulas) {
  Rng rng(403);
  Graph g = gen::erdos_renyi_gnp(100, 0.06, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  const double delta = wg.graph().max_degree();
  RandomizedExtensionParams p;
  p.lambda = 1.0 / (delta + 1.0);
  p.gamma = 2.0;
  Network net(wg, seeded(11));
  RandomizedExtension ext(p, nullptr);
  RunStats stats = net.run(ext, 1000000);
  ASSERT_FALSE(stats.hit_round_limit);
  EXPECT_EQ(ext.iterations_per_phase(),
            1 + static_cast<std::int64_t>(
                    std::ceil(std::log2(delta + 1.0))));
  EXPECT_LE(ext.phases(), static_cast<std::int64_t>(
                              std::ceil(std::log2(1.0 / p.lambda))) +
                              1);
  MdsResult res = ext.result(net);
  res.validate(wg, 1e-5);
  EXPECT_FALSE(res.used_fallback);
}

TEST(Lemma46, SeededWithPartialStateCompletesIt) {
  // Seed from a real Lemma 4.1 run on a star: every x_v starts at
  // 1/(Delta+1) = 1/20, so the hub's first join-round sum is 20/20 >=
  // 1/(1+eps) and S = {hub} already dominates. The extension must finish
  // with zero additional nodes.
  auto wg = WeightedGraph::uniform(gen::star(20));
  Network net(wg, seeded(3));
  PartialDominatingSet partial({0.25, theorem11_lambda(1, 0.25), 1});
  RandomizedExtension ext({0.05, 2.0}, &partial);
  const RunStats stats = protocol::run_protocol(net, {&partial, &ext}, 1000);
  ASSERT_FALSE(stats.hit_round_limit);
  ASSERT_EQ(partial.partial_set(), NodeSet{0});
  MdsResult res = ext.result(net);
  EXPECT_EQ(res.dominating_set, NodeSet{0});
}

TEST(Lemma46, EmptyGraphTerminatesImmediately) {
  auto wg = WeightedGraph::uniform(Graph(0));
  Network net(wg);
  RandomizedExtension ext({0.5, 2.0}, nullptr);
  RunStats stats = net.run(ext, 10);
  EXPECT_FALSE(stats.hit_round_limit);
}

}  // namespace
}  // namespace arbods
