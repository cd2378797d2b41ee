// Tests for core decomposition, orientations, pseudoarboricity (checked
// against a brute-force density oracle), and the Barenboim–Elkin
// distributed orientation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "arboricity/barenboim_elkin.hpp"
#include "arboricity/core_decomposition.hpp"
#include "arboricity/orientation.hpp"
#include "arboricity/pseudoarboricity.hpp"
#include "common/check.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "graph/stats.hpp"

namespace arbods {
namespace {

// ---------------------------------------------------------------- peeling

TEST(CoreDecomposition, KnownDegeneracies) {
  EXPECT_EQ(core_decomposition(gen::path(10)).degeneracy, 1u);
  EXPECT_EQ(core_decomposition(gen::cycle(10)).degeneracy, 2u);
  EXPECT_EQ(core_decomposition(gen::clique(7)).degeneracy, 6u);
  EXPECT_EQ(core_decomposition(gen::grid(6, 6)).degeneracy, 2u);
  EXPECT_EQ(core_decomposition(Graph(4)).degeneracy, 0u);
}

TEST(CoreDecomposition, OrderIsAPermutation) {
  Rng rng(1);
  Graph g = gen::k_tree_union(100, 2, rng);
  auto cd = core_decomposition(g);
  std::vector<bool> seen(g.num_nodes(), false);
  for (NodeId v : cd.order) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(seen[v]);
    EXPECT_EQ(cd.order[cd.position[v]], v);
  }
}

TEST(CoreDecomposition, CoreNumbersMonotoneAlongOrder) {
  Rng rng(2);
  Graph g = gen::barabasi_albert(200, 3, rng);
  auto cd = core_decomposition(g);
  for (std::size_t i = 1; i < cd.order.size(); ++i)
    EXPECT_LE(cd.core[cd.order[i - 1]], cd.core[cd.order[i]]);
}

TEST(CoreDecomposition, CliqueCoreNumbers) {
  auto cd = core_decomposition(gen::clique(5));
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(cd.core[v], 4u);
}

TEST(ArboricityBounds, BracketsTruth) {
  // Trees: exactly 1; cycles: 1 <= alpha=... cycle arboricity is 2 but
  // density bound gives ceil(n/(n-1)) = 2 only for small n; accept bracket.
  auto tb = arboricity_bounds(gen::path(50));
  EXPECT_EQ(tb.lower, 1u);
  EXPECT_EQ(tb.upper, 1u);
  auto kb = arboricity_bounds(gen::clique(8));  // arboricity = 4
  EXPECT_LE(kb.lower, 4u);
  EXPECT_GE(kb.upper, 4u);
  EXPECT_EQ(kb.lower, 4u);  // density bound is tight on cliques
}

// ------------------------------------------------------------- orientation

TEST(Orientation, DegeneracyOrientationIsValidAndBounded) {
  Rng rng(3);
  Graph g = gen::k_tree_union(150, 3, rng);
  Orientation o = degeneracy_orientation(g);
  o.validate();
  EXPECT_LE(o.max_out_degree(), core_decomposition(g).degeneracy);
}

TEST(Orientation, ValidateCatchesDoubleOrientation) {
  Graph g = gen::path(2);
  std::vector<std::vector<NodeId>> out{{1}, {0}};
  Orientation o(g, std::move(out));
  EXPECT_THROW(o.validate(), CheckError);
}

TEST(Orientation, ValidateCatchesMissingEdge) {
  Graph g = gen::path(3);
  std::vector<std::vector<NodeId>> out{{1}, {}, {}};
  Orientation o(g, std::move(out));
  EXPECT_THROW(o.validate(), CheckError);
}

TEST(Orientation, InNeighborsAreConsistent) {
  Graph g = gen::cycle(6);
  Orientation o = degeneracy_orientation(g);
  auto in = o.in_neighbors();
  std::size_t arcs = 0;
  for (NodeId v = 0; v < 6; ++v) arcs += in[v].size();
  EXPECT_EQ(arcs, g.num_edges());
}

TEST(Orientation, PseudoforestLayersPartitionEdges) {
  Rng rng(4);
  Graph g = gen::k_tree_union(80, 3, rng);
  Orientation o = optimal_orientation(g);
  auto layers = o.pseudoforest_layers();
  std::size_t total = 0;
  for (const auto& layer : layers) {
    total += layer.size();
    // Out-degree <= 1 within a layer: tails are distinct.
    std::vector<NodeId> tails;
    for (const Edge& e : layer) tails.push_back(e.u);
    std::sort(tails.begin(), tails.end());
    EXPECT_TRUE(std::adjacent_find(tails.begin(), tails.end()) == tails.end());
  }
  EXPECT_EQ(total, g.num_edges());
}

// --------------------------------------------------------- pseudoarboricity

TEST(Pseudoarboricity, KnownValues) {
  EXPECT_EQ(pseudoarboricity(gen::path(20)), 1u);
  EXPECT_EQ(pseudoarboricity(gen::cycle(20)), 1u);  // one cycle: out-deg 1
  EXPECT_EQ(pseudoarboricity(gen::grid(5, 5)), 2u);
  EXPECT_EQ(pseudoarboricity(Graph(5)), 0u);
  // K5: m/n = 10/5 = 2.
  EXPECT_EQ(pseudoarboricity(gen::clique(5)), 2u);
  // K4: ceil(6/4) = 2.
  EXPECT_EQ(pseudoarboricity(gen::clique(4)), 2u);
}

// The CheckError message with which g is refused out-degree d, "" if none.
std::string refusal(const Graph& g, NodeId d) {
  try {
    (void)min_out_degree_orientation(g, d);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Pseudoarboricity, OrientationAchievesOptimum) {
  // Both certificates at scale: a validated orientation with out-degree
  // p, and p - 1 refused only after its dense-set witness checked out.
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    for (NodeId n : {60u, 1000u, 5000u}) {
      Rng rng(seed);
      for (const Graph& g :
           {gen::k_tree_union(n, 2, rng), gen::k_tree_union(n, 3, rng),
            gen::barabasi_albert(n, 3, rng)}) {
        const NodeId p = pseudoarboricity(g);
        Orientation o = min_out_degree_orientation(g, p);
        o.validate();
        EXPECT_LE(o.max_out_degree(), p) << "seed=" << seed << " n=" << n;
        EXPECT_FALSE(orientable_with_out_degree(g, p - 1))
            << "seed=" << seed << " n=" << n;
        EXPECT_TRUE(orientable_with_out_degree(g, p));
        const std::string why = refusal(g, p - 1);
        EXPECT_NE(why.find("not orientable with out-degree"),
                  std::string::npos)
            << "seed=" << seed << " n=" << n << ": " << why;
      }
    }
  }
}

TEST(Pseudoarboricity, InfeasibleDegreeIsRejected) {
  // K5 has 10 edges on 5 nodes: out-degree 1 cannot hold them.
  EXPECT_NE(refusal(gen::clique(5), 1).find("not orientable"),
            std::string::npos);
  EXPECT_FALSE(orientable_with_out_degree(gen::clique(5), 1));
  EXPECT_TRUE(orientable_with_out_degree(Graph(3), 0));
}

// max over nonempty S of ceil(|E(S)| / |S|), enumerating every subset.
NodeId brute_force_pseudoarboricity(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> adj(n, 0);
  for (const Edge& e : g.edges()) {
    adj[e.u] |= 1u << e.v;
    adj[e.v] |= 1u << e.u;
  }
  NodeId best = 0;
  for (std::uint32_t s = 1; s < (1u << n); ++s) {
    unsigned twice_edges = 0;
    for (NodeId v = 0; v < n; ++v)
      if (s >> v & 1u) twice_edges += std::popcount(adj[v] & s);
    const unsigned size = std::popcount(s);
    best = std::max<NodeId>(best, (twice_edges / 2 + size - 1) / size);
  }
  return best;
}

TEST(Pseudoarboricity, MatchesBruteForceDensityOracle) {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    const NodeId n = 4 + static_cast<NodeId>(seed % 9);  // 4..12
    graphs.push_back(gen::erdos_renyi_gnp(n, 0.3, rng));
    graphs.push_back(gen::erdos_renyi_gnp(n, 0.7, rng));
    graphs.push_back(gen::barabasi_albert(n, 2, rng));
    graphs.push_back(gen::barabasi_albert(n, 3, rng));
    graphs.push_back(gen::k_tree_union(n, 2, rng));
    graphs.push_back(gen::k_tree_union(n, 3, rng));
    graphs.push_back(gen::k_pseudoforest_union(n, 2, rng));
    graphs.push_back(gen::random_geometric(n, 0.5, rng));
  }
  for (NodeId n = 1; n <= 12; ++n) graphs.push_back(gen::clique(n));
  for (NodeId a = 1; a <= 6; ++a)
    for (NodeId b = a; a + b <= 12; ++b)
      graphs.push_back(gen::complete_bipartite(a, b));
  for (NodeId r = 1; r <= 3; ++r)
    for (NodeId c = r; r * c <= 12; ++c) graphs.push_back(gen::king_grid(r, c));
  ASSERT_GE(graphs.size(), 300u);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(pseudoarboricity(graphs[i]),
              brute_force_pseudoarboricity(graphs[i]))
        << "graph #" << i << " n=" << graphs[i].num_nodes()
        << " m=" << graphs[i].num_edges();
}

TEST(Pseudoarboricity, MatchesDensityOnCliques) {
  for (NodeId n : {3u, 4u, 5u, 6u, 7u, 8u}) {
    const NodeId m = n * (n - 1) / 2;
    EXPECT_EQ(pseudoarboricity(gen::clique(n)), (m + n - 1) / n) << "n=" << n;
  }
}

// --------------------------------------------------------- barenboim-elkin

class BeTest : public ::testing::TestWithParam<std::pair<NodeId, double>> {};

TEST_P(BeTest, OrientationWithinBound) {
  auto [alpha, eps] = GetParam();
  Rng rng(6 + alpha);
  Graph g = gen::k_tree_union(300, alpha, rng);
  auto res = barenboim_elkin_orient(g, alpha, eps);
  res.orientation.validate();
  EXPECT_LE(res.orientation.max_out_degree(),
            static_cast<NodeId>(std::floor((2.0 + eps) * alpha)));
  // Round bound: O(log n / log((2+eps)/2)) phases.
  const double phases_bound =
      2.0 + std::log(301.0) / std::log((2.0 + eps) / 2.0);
  EXPECT_LE(static_cast<double>(res.rounds), phases_bound + 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaEps, BeTest,
    ::testing::Values(std::pair<NodeId, double>{1, 0.5},
                      std::pair<NodeId, double>{2, 0.5},
                      std::pair<NodeId, double>{3, 1.0},
                      std::pair<NodeId, double>{2, 0.25}));

TEST(BarenboimElkin, LevelsAreSet) {
  Rng rng(7);
  Graph g = gen::random_tree_prufer(50, rng);
  auto res = barenboim_elkin_orient(g, 1, 1.0);
  for (auto level : res.levels) EXPECT_GE(level, 0);
}

TEST(BarenboimElkin, UnknownAlphaDoublingConverges) {
  Rng rng(8);
  Graph g = gen::k_tree_union(200, 4, rng);
  WeightedGraph wg = WeightedGraph::uniform(Graph(g));
  Network net(wg);
  auto algo = BarenboimElkinOrientation::with_unknown_alpha(1.0);
  RunStats stats = net.run(algo, 100000);
  EXPECT_FALSE(stats.hit_round_limit);
  Orientation o = algo.extract_orientation(g);
  o.validate();
  // Final guess <= 2*alpha => out-degree <= (2+eps)*2*alpha = 24.
  EXPECT_LE(algo.final_guess(), 8u);
  EXPECT_LE(o.max_out_degree(), 24u);
}

TEST(BarenboimElkin, StarRetiresInOnePhaseWithLargePromise) {
  Graph g = gen::star(100);
  auto res = barenboim_elkin_orient(g, 50, 1.0);
  // Threshold 150 >= every degree: everyone retires in phase 1.
  EXPECT_EQ(res.rounds, 1);
}

// out_degrees counts each node's out-arcs straight from the levels; it
// must agree with the orientation it stands in for, with alpha known and
// under the doubling search.
TEST(BarenboimElkin, OutDegreesMatchTheExtractedOrientation) {
  Rng rng(9);
  const Graph graphs[] = {gen::k_tree_union(100, 2, rng),
                          gen::barabasi_albert(150, 3, rng)};
  for (const Graph& g : graphs) {
    for (const bool known : {true, false}) {
      WeightedGraph wg = WeightedGraph::uniform(Graph(g));
      Network net(wg);
      auto algo = known ? BarenboimElkinOrientation(3, 0.5)
                        : BarenboimElkinOrientation::with_unknown_alpha(0.5);
      EXPECT_FALSE(net.run(algo, 100000).hit_round_limit);
      const std::vector<NodeId> deg = algo.out_degrees(g);
      const Orientation o = algo.extract_orientation(g);
      ASSERT_EQ(deg.size(), g.num_nodes());
      for (NodeId v = 0; v < g.num_nodes(); ++v)
        EXPECT_EQ(deg[v], o.out_degree(v))
            << "node " << v << (known ? " (known alpha)" : " (doubling)");
    }
  }
}

}  // namespace
}  // namespace arbods
