// Tests for Theorem 1.1 / Theorem 3.1: validity, the (2a+1)(1+eps)
// approximation certificate, exact-ratio checks against OPT on small
// instances, and the O(log(Delta/alpha)/eps) round complexity.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "baselines/exact.hpp"
#include "core/deterministic_mds.hpp"
#include "core/partial_ds.hpp"
#include "core/solvers.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"
#include "graph/verify.hpp"

namespace arbods {
namespace {

struct Instance {
  std::string name;
  WeightedGraph wg;
  NodeId alpha;
};

std::vector<Instance> make_instances() {
  std::vector<Instance> out;
  Rng rng(77);
  out.push_back({"tree", WeightedGraph::uniform(gen::random_tree_prufer(300, rng)), 1});
  {
    Graph g = gen::random_tree_prufer(300, rng);
    auto w = gen::uniform_weights(300, 64, rng);
    out.push_back({"tree_w", WeightedGraph(std::move(g), std::move(w)), 1});
  }
  out.push_back({"forest2", WeightedGraph::uniform(gen::k_tree_union(250, 2, rng)), 2});
  {
    Graph g = gen::k_tree_union(250, 4, rng);
    auto w = gen::power_law_weights(250, 1.5, 128, rng);
    out.push_back({"forest4_w", WeightedGraph(std::move(g), std::move(w)), 4});
  }
  out.push_back({"grid", WeightedGraph::uniform(gen::grid(15, 15)), 2});
  out.push_back({"star", WeightedGraph::uniform(gen::star(400)), 1});
  {
    Graph g = gen::barabasi_albert(300, 2, rng);
    out.push_back({"ba2", WeightedGraph::uniform(std::move(g)), 2});
  }
  {
    Graph g = gen::random_maximal_outerplanar(200, rng);
    auto w = gen::degree_proportional_weights(g);
    out.push_back({"outerplanar_w", WeightedGraph(std::move(g), std::move(w)), 2});
  }
  return out;
}

struct Case {
  std::size_t instance;
  double eps;
};

class Theorem11Test : public ::testing::TestWithParam<Case> {
 protected:
  static const std::vector<Instance>& instances() {
    static const std::vector<Instance> kInstances = make_instances();
    return kInstances;
  }
};

TEST_P(Theorem11Test, ApproximationCertificateAndValidity) {
  const auto& [idx, eps] = GetParam();
  const Instance& inst = instances()[idx];
  MdsResult res = solve_mds_deterministic(inst.wg, inst.alpha, eps);

  // Independent validity + feasibility re-check.
  res.validate(inst.wg, 1e-5);

  // The proof of Theorem 1.1 shows weight <= (2a+1)(1+eps) * sum_v x_v;
  // our certificate re-derives exactly that inequality from the output.
  const double bound =
      (2.0 * static_cast<double>(inst.alpha) + 1.0) * (1.0 + eps);
  EXPECT_LE(res.certified_ratio(), bound * (1 + 1e-6))
      << inst.name << " eps=" << eps;

  // Lemma 2.1: the packing sum is a genuine lower bound (cross-check the
  // feasibility tolerance did not hide a violation).
  EXPECT_TRUE(is_feasible_packing(inst.wg, res.packing, 1e-5));
  EXPECT_GT(res.packing_lower_bound, 0.0);
}

TEST_P(Theorem11Test, RoundComplexityWithinTheoremBound) {
  const auto& [idx, eps] = GetParam();
  const Instance& inst = instances()[idx];
  MdsResult res = solve_mds_deterministic(inst.wg, inst.alpha, eps);
  const double delta = inst.wg.graph().max_degree();
  // r <= log_{1+eps}(lambda (Delta+1)) + 1 with lambda = 1/((2a+1)(1+eps));
  // simulator rounds <= 2r + 5 (weight prologue + completion).
  const double lam = theorem11_lambda(inst.alpha, eps);
  const double r_bound =
      std::max(0.0, std::log(lam * (delta + 1.0)) / std::log1p(eps)) + 1.0;
  EXPECT_LE(static_cast<double>(res.stats.rounds), 2 * r_bound + 5.0)
      << inst.name;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (std::size_t i = 0; i < make_instances().size(); ++i)
    for (double eps : {0.1, 0.5})
      cases.push_back({i, eps});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem11Test, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return "i" + std::to_string(info.param.instance) +
                                  "_eps" +
                                  std::to_string(
                                      static_cast<int>(info.param.eps * 10));
                         });

// Exact round count: the weight round, r join rounds and r value rounds
// (the last one only bumps), then the two completion rounds. Pins that no
// stage of the loop gains or loses a round.
TEST(Theorem11, RoundCountIsExactlyTwoIterationsPlusThree) {
  struct Exact {
    std::string name;
    WeightedGraph wg;
    NodeId alpha;
  };
  std::vector<Exact> instances;
  for (const NodeId delta : {15u, 255u, 4095u})
    instances.push_back({"star" + std::to_string(delta),
                         WeightedGraph::uniform(gen::star(delta + 1)), 1});
  Rng rng(777);
  instances.push_back(
      {"ba4096_3",
       WeightedGraph::uniform(gen::barabasi_albert(4096, 3, rng)), 3});
  for (const Exact& inst : instances) {
    const NodeId delta = inst.wg.graph().max_degree();
    for (const double eps : {0.1, 0.25, 0.5}) {
      const std::int64_t r = partial_ds_iterations(
          eps, theorem11_lambda(inst.alpha, eps), delta);
      const MdsResult res = solve_mds_deterministic(inst.wg, inst.alpha, eps);
      EXPECT_EQ(res.iterations, r) << inst.name << " eps=" << eps;
      EXPECT_EQ(res.stats.rounds, 2 * r + 3) << inst.name << " eps=" << eps;
      ASSERT_EQ(res.stats.phases.size(), 2u);
      EXPECT_EQ(res.stats.phases[0].rounds, 2 * r + 1)
          << inst.name << " eps=" << eps;
    }
  }
}

// ------------------------------------------------- exact-ratio spot checks

TEST(Theorem11, TrueRatioAgainstOptOnSmallWeightedForests) {
  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::random_forest(24, 3, rng);
    auto w = gen::uniform_weights(24, 20, rng);
    WeightedGraph wg(std::move(g), std::move(w));
    auto exact = baselines::exact_dominating_set(wg);
    ASSERT_TRUE(exact.has_value());
    MdsResult res = solve_mds_deterministic(wg, 1, 0.2);
    res.validate(wg, 1e-5);
    const double ratio =
        static_cast<double>(res.weight) / static_cast<double>(exact->weight);
    EXPECT_LE(ratio, 3.0 * 1.2 + 1e-9) << "trial " << trial;  // (2*1+1)(1+eps)
  }
}

TEST(Theorem11, TrueRatioAgainstOptOnSmallAlpha2) {
  Rng rng(89);
  for (int trial = 0; trial < 6; ++trial) {
    Graph g = gen::k_tree_union(20, 2, rng);
    WeightedGraph wg = WeightedGraph::uniform(std::move(g));
    auto exact = baselines::exact_dominating_set(wg);
    ASSERT_TRUE(exact.has_value());
    MdsResult res = solve_mds_deterministic(wg, 2, 0.3);
    const double ratio =
        static_cast<double>(res.weight) / static_cast<double>(exact->weight);
    EXPECT_LE(ratio, 5.0 * 1.3 + 1e-9) << "trial " << trial;
  }
}

// --------------------------------------------------------------- unweighted

TEST(Theorem31, UnweightedSelfCompletionMatchesGuarantee) {
  Rng rng(90);
  Graph g = gen::k_tree_union(300, 2, rng);
  auto wg = WeightedGraph::uniform(std::move(g));
  MdsResult res = solve_mds_unweighted(wg, 2, 0.25);
  res.validate(wg, 1e-5);
  EXPECT_LE(res.certified_ratio(), 5.0 * 1.25 * (1 + 1e-6));
}

TEST(Theorem31, SelfAndMinNeighborCompletionsBothValid) {
  Rng rng(91);
  Graph g = gen::grid(10, 10);
  auto wg = WeightedGraph::uniform(std::move(g));
  MdsResult self_res = solve_mds_unweighted(wg, 2, 0.5);
  MdsResult nbr_res = solve_mds_deterministic(wg, 2, 0.5);
  self_res.validate(wg, 1e-5);
  nbr_res.validate(wg, 1e-5);
  // Both completions start from the same partial set; min-neighbor requests
  // can coalesce on shared witnesses, so it never adds more than self-join.
  EXPECT_LE(nbr_res.weight, self_res.weight);
}

// ------------------------------------------------------------ corner cases

TEST(Theorem11, EmptyGraph) {
  auto wg = WeightedGraph::uniform(Graph(0));
  MdsResult res = solve_mds_deterministic(wg, 1, 0.5);
  EXPECT_TRUE(res.dominating_set.empty());
  EXPECT_EQ(res.weight, 0);
}

TEST(Theorem11, SingleNode) {
  auto wg = WeightedGraph::uniform(Graph(1));
  MdsResult res = solve_mds_deterministic(wg, 1, 0.5);
  EXPECT_EQ(res.dominating_set, NodeSet{0});
}

TEST(Theorem11, IsolatedNodesAllJoin) {
  WeightedGraph wg(Graph(6), {5, 4, 3, 2, 1, 9});
  MdsResult res = solve_mds_deterministic(wg, 1, 0.5);
  res.validate(wg, 1e-5);
  EXPECT_EQ(res.dominating_set.size(), 6u);
}

TEST(Theorem11, K2PicksTheCheaperEndpoint) {
  WeightedGraph wg(gen::path(2), {10, 1});
  MdsResult res = solve_mds_deterministic(wg, 1, 0.1);
  res.validate(wg, 1e-5);
  EXPECT_EQ(res.weight, 1);
  EXPECT_EQ(res.dominating_set, NodeSet{1});
}

TEST(Theorem11, ExpensiveHubAvoidedOnWeightedStar) {
  // Star whose hub is absurdly expensive: the algorithm must not pay it...
  // leaves each cost 1, so OPT = n-1 (all leaves) vs hub 10^6.
  const NodeId n = 30;
  std::vector<Weight> w(n, 1);
  w[0] = 1000000;
  WeightedGraph wg(gen::star(n), std::move(w));
  MdsResult res = solve_mds_deterministic(wg, 1, 0.2);
  res.validate(wg, 1e-5);
  EXPECT_LT(res.weight, 1000000);
}

TEST(Theorem11, CheapHubTakenOnWeightedStar) {
  // Hub costs 1, leaves cost 100: OPT = {hub}.
  const NodeId n = 30;
  std::vector<Weight> w(n, 100);
  w[0] = 1;
  WeightedGraph wg(gen::star(n), std::move(w));
  MdsResult res = solve_mds_deterministic(wg, 1, 0.2);
  res.validate(wg, 1e-5);
  EXPECT_EQ(res.weight, 1);
  EXPECT_EQ(res.dominating_set, NodeSet{0});
}

TEST(Theorem11, DeterministicAcrossRuns) {
  Rng rng(92);
  Graph g = gen::k_tree_union(100, 2, rng);
  auto wg = WeightedGraph::uniform(std::move(g));
  MdsResult a = solve_mds_deterministic(wg, 2, 0.3);
  MdsResult b = solve_mds_deterministic(wg, 2, 0.3);
  EXPECT_EQ(a.dominating_set, b.dominating_set);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(Theorem11, EpsilonTradesRoundsForQuality) {
  Rng rng(93);
  Graph g = gen::barabasi_albert(500, 2, rng);
  auto wg = WeightedGraph::uniform(std::move(g));
  MdsResult fine = solve_mds_deterministic(wg, 2, 0.05);
  MdsResult coarse = solve_mds_deterministic(wg, 2, 0.8);
  EXPECT_GT(fine.stats.rounds, coarse.stats.rounds);
}

TEST(Theorem11, LambdaOverrideIsHonored) {
  Rng rng(94);
  Graph g = gen::random_tree_prufer(100, rng);
  auto wg = WeightedGraph::uniform(std::move(g));
  DeterministicMdsParams p;
  p.eps = 0.5;
  p.alpha = 1;
  p.lambda = 1e-9;  // below 1/(Delta+1): partial phase is skipped entirely
  Network net(wg);
  MdsResult res = run_deterministic_mds(net, p);
  res.validate(wg, 1e-5);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Theorem11, ReportsPartialAndCompletionPhaseBreakdown) {
  Rng rng(95);
  Graph g = gen::k_tree_union(120, 2, rng);
  auto wg = WeightedGraph::uniform(std::move(g));
  MdsResult res = solve_mds_deterministic(wg, 2, 0.3);
  ASSERT_EQ(res.stats.phases.size(), 2u);
  EXPECT_EQ(res.stats.phases[0].name, "partial_ds");
  EXPECT_EQ(res.stats.phases[1].name, "completion");
  // Thm 1.1 completion = request round + join round.
  EXPECT_EQ(res.stats.phases[1].rounds, 2);
  EXPECT_EQ(res.stats.phases[0].rounds + res.stats.phases[1].rounds,
            res.stats.rounds);
}

}  // namespace
}  // namespace arbods
