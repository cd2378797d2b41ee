// Unit tests for src/graph: CSR graph, builder, verifiers, stats, I/O,
// transforms.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/random.hpp"
#include "gen/classic.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/transform.hpp"
#include "graph/verify.hpp"
#include "graph/weighted_graph.hpp"

namespace arbods {
namespace {

Graph triangle() { return Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}}); }

// ------------------------------------------------------------------- graph

TEST(Graph, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, IsolatedNodes) {
  Graph g(5);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(g.is_isolated(v));
}

TEST(Graph, BasicAdjacency) {
  Graph g = triangle();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, NeighborsAreSorted) {
  Graph g = Graph::from_edges(5, {{3, 1}, {3, 4}, {3, 0}, {3, 2}});
  auto nb = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, DuplicateEdgesCollapse) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph::from_edges(2, {{1, 1}}), CheckError);
}

TEST(Graph, OutOfRangeEdgeRejected) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), CheckError);
}

TEST(Graph, EdgesCanonicalForm) {
  Graph g = triangle();
  auto es = g.edges();
  ASSERT_EQ(es.size(), 3u);
  for (const Edge& e : es) EXPECT_LT(e.u, e.v);
}

TEST(Graph, BuilderAddNode) {
  GraphBuilder b(2);
  NodeId c = b.add_node();
  EXPECT_EQ(c, 2u);
  b.add_edge(0, c);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Graph, MaxDegreeStar) {
  Graph g = gen::star(10);
  EXPECT_EQ(g.max_degree(), 9u);
}

// ---------------------------------------------------------------- weighted

TEST(WeightedGraph, RejectsNonPositiveWeights) {
  EXPECT_THROW(WeightedGraph(Graph(2), {1, 0}), CheckError);
  EXPECT_THROW(WeightedGraph(Graph(2), {1, -5}), CheckError);
}

TEST(WeightedGraph, RejectsSizeMismatch) {
  EXPECT_THROW(WeightedGraph(Graph(3), {1, 1}), CheckError);
}

TEST(WeightedGraph, UniformIsAllOnes) {
  auto wg = WeightedGraph::uniform(gen::path(4));
  EXPECT_TRUE(wg.is_uniform());
  EXPECT_EQ(wg.max_weight(), 1);
  EXPECT_EQ(wg.weight_bits(), 1);
}

TEST(WeightedGraph, TauIsClosedNeighborhoodMin) {
  // path 0-1-2 with weights 5, 1, 9.
  WeightedGraph wg(gen::path(3), {5, 1, 9});
  EXPECT_EQ(wg.tau(0), 1);  // neighbor 1
  EXPECT_EQ(wg.tau(1), 1);  // itself
  EXPECT_EQ(wg.tau(2), 1);  // neighbor 1
  auto taus = wg.all_tau();
  EXPECT_EQ(taus, (std::vector<Weight>{1, 1, 1}));
}

TEST(WeightedGraph, TauOfIsolatedNodeIsOwnWeight) {
  WeightedGraph wg(Graph(2), {7, 3});
  EXPECT_EQ(wg.tau(0), 7);
  EXPECT_EQ(wg.tau(1), 3);
}

TEST(WeightedGraph, TotalWeight) {
  WeightedGraph wg(gen::path(3), {5, 1, 9});
  NodeSet s{0, 2};
  EXPECT_EQ(wg.total_weight(s), 14);
}

// ------------------------------------------------------------------ verify

TEST(Verify, DominatingSetOnPath) {
  Graph g = gen::path(5);
  EXPECT_TRUE(is_dominating_set(g, std::vector<NodeId>{1, 3}));
  EXPECT_FALSE(is_dominating_set(g, std::vector<NodeId>{0, 4}));
  EXPECT_FALSE(is_dominating_set(g, std::vector<NodeId>{}));
}

TEST(Verify, EmptyGraphIsDominatedByEmptySet) {
  Graph g(0);
  EXPECT_TRUE(is_dominating_set(g, std::vector<NodeId>{}));
}

TEST(Verify, UndominatedNodes) {
  Graph g = gen::path(5);
  auto un = undominated_nodes(g, std::vector<NodeId>{0});
  EXPECT_EQ(un, (std::vector<NodeId>{2, 3, 4}));
}

TEST(Verify, VertexCover) {
  Graph g = triangle();
  EXPECT_TRUE(is_vertex_cover(g, std::vector<NodeId>{0, 1}));
  EXPECT_FALSE(is_vertex_cover(g, std::vector<NodeId>{0}));
}

TEST(Verify, ValidNodeSetRejectsDuplicatesAndRange) {
  Graph g(3);
  EXPECT_TRUE(is_valid_node_set(g, std::vector<NodeId>{0, 2}));
  EXPECT_FALSE(is_valid_node_set(g, std::vector<NodeId>{0, 0}));
  EXPECT_FALSE(is_valid_node_set(g, std::vector<NodeId>{3}));
}

TEST(Verify, FeasiblePacking) {
  auto wg = WeightedGraph::uniform(gen::path(3));
  std::vector<double> ok{0.3, 0.3, 0.3};
  std::vector<double> bad{0.6, 0.6, 0.6};  // X_1 = 1.8 > 1
  EXPECT_TRUE(is_feasible_packing(wg, ok));
  EXPECT_FALSE(is_feasible_packing(wg, bad));
  EXPECT_DOUBLE_EQ(packing_lower_bound(ok), 0.9);
}

// ------------------------------------------------------------------- stats

TEST(Stats, ComponentsOfForest) {
  Graph g = Graph::from_edges(5, {{0, 1}, {2, 3}});
  NodeId count = 0;
  auto comp = connected_components(g, &count);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
}

TEST(Stats, ForestAndTreePredicates) {
  EXPECT_TRUE(is_forest(gen::path(6)));
  EXPECT_TRUE(is_tree(gen::path(6)));
  EXPECT_TRUE(is_forest(Graph(3)));
  EXPECT_FALSE(is_tree(Graph(3)));  // disconnected
  EXPECT_FALSE(is_forest(gen::cycle(4)));
  EXPECT_FALSE(is_tree(gen::cycle(4)));
}

TEST(Stats, BfsDistancesOnPath) {
  Graph g = gen::path(4);
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Stats, BfsUnreachableMarkedN) {
  Graph g(3);
  auto d = bfs_distances(g, 1);
  EXPECT_EQ(d[0], 3u);
  EXPECT_EQ(d[1], 0u);
}

TEST(Stats, DegeneracyKnownValues) {
  EXPECT_EQ(compute_stats(gen::path(10)).degeneracy, 1u);
  EXPECT_EQ(compute_stats(gen::cycle(10)).degeneracy, 2u);
  EXPECT_EQ(compute_stats(gen::clique(6)).degeneracy, 5u);
  EXPECT_EQ(compute_stats(gen::grid(5, 5)).degeneracy, 2u);
  EXPECT_EQ(compute_stats(gen::star(50)).degeneracy, 1u);
}

TEST(Stats, DegreeHistogram) {
  auto h = degree_histogram(gen::star(5));
  // 4 leaves of degree 1, one hub of degree 4.
  EXPECT_EQ(h[1], 4u);
  EXPECT_EQ(h[4], 1u);
}

TEST(Stats, FullStatsOnGrid) {
  auto s = compute_stats(gen::grid(4, 4));
  EXPECT_EQ(s.n, 16u);
  EXPECT_EQ(s.m, 24u);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.num_components, 1u);
  EXPECT_EQ(s.num_isolated, 0u);
}

// ---------------------------------------------------------------------- io

TEST(Io, GraphRoundTrip) {
  Graph g = gen::grid(3, 4);
  std::stringstream ss;
  write_graph(ss, g);
  Graph back = read_graph(ss);
  EXPECT_EQ(back, g);
}

TEST(Io, WeightedRoundTrip) {
  WeightedGraph wg(gen::path(4), {4, 3, 2, 1});
  std::stringstream ss;
  write_weighted_graph(ss, wg);
  WeightedGraph back = read_weighted_graph(ss);
  EXPECT_EQ(back.graph(), wg.graph());
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(back.weight(v), wg.weight(v));
}

TEST(Io, CommentsSkipped) {
  std::stringstream ss("# a comment\n3 1\n# another\n0 2\n");
  Graph g = read_graph(ss);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Io, TruncatedInputThrows) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(read_graph(ss), CheckError);
}

// What a malformed input's CheckError says; "" if it parsed.
std::string read_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)read_weighted_graph(ss);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Io, MalformedTokensAreNamed) {
  auto expect_error = [](const std::string& text, const char* needle) {
    const std::string what = read_error(text);
    EXPECT_NE(what.find(needle), std::string::npos)
        << "input '" << text << "' gave: " << what;
  };
  expect_error("abc 3\n",
               "line 1, token 1: node count 'abc' is not an integer");
  expect_error("3 1\n0 x1\nweights\n1 1 1\n",
               "line 2, token 4: edge endpoint 'x1' is not an integer");
  expect_error("99999999999 0\n", "'99999999999' is out of range");
  expect_error("3 1\n0 3\nweights\n1 1 1\n",
               "line 2, token 4: edge endpoint '3' is out of range n=3");
  expect_error("3 1\n# comment\n2 2\nweights\n1 1 1\n",
               "line 3, token 4: edge 0 is a self-loop at 2");
  expect_error("3 1\n0 1\nweights\n1 1\n",
               "line 5, token 8: unexpected end of input reading weight");
  expect_error("2 1\n0 1\nweights\n1 0\n", "must be >= 1");
  expect_error("3 1\n0 1\n1 1 1\n",
               "line 3, token 5: expected 'weights' marker, got '1'");
  expect_error("3 1\n0 1\nweights\n1 1 1 9 # comment\n",
               "line 4, token 9: unexpected trailing token '9'");

  // The unweighted reader rejects trailing input too: a stray token on
  // an edge line, and a weighted file's whole weights section.
  auto unweighted_error = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      (void)read_graph(ss);
    } catch (const CheckError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(unweighted_error("3 2\n0 1\n1 2 extra\n")
                .find("line 3, token 7: unexpected trailing token 'extra'"),
            std::string::npos);
  EXPECT_NE(unweighted_error("3 1\n0 1\nweights\n1 1 1\n")
                .find("line 3, token 5: unexpected trailing token 'weights'"),
            std::string::npos);
  // Comments after the last edge and duplicate edges stay accepted
  // (the builder collapses duplicates).
  EXPECT_EQ(unweighted_error("3 2\n0 1\n1 0\n# done\n"), "");
}

TEST(Io, TruncatedOrFlippedInputThrowsCheckErrorNeverCrashes) {
  // Single-byte corruption of a small file keeps every number small, so a
  // corrupt header cannot request a large allocation.
  std::vector<Weight> weights;
  for (NodeId v = 0; v < 30; ++v) weights.push_back(1 + v % 7);
  WeightedGraph wg(gen::grid(5, 6), weights);
  std::stringstream clean;
  write_weighted_graph(clean, wg);
  const std::string text = "# grid\n" + clean.str();
  const std::size_t last_token = text.find_last_not_of(" \n");
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(seed);
    std::string bad = text;
    if (seed % 2 == 0) {
      // Cut before the last token's final digit: something is missing.
      bad.resize(rng.next_below(last_token));
      EXPECT_NE(read_error(bad), "") << "truncated at " << bad.size();
    } else {
      bad[rng.next_below(bad.size())] =
          static_cast<char>(rng.next_below(256));
    }
    // Any exception other than CheckError fails the test here.
    rejected += read_error(bad).empty() ? 0 : 1;
  }
  EXPECT_GT(rejected, 200);
}

// --------------------------------------------------------------- transform

TEST(Transform, InducedSubgraph) {
  Graph g = gen::cycle(5);
  std::vector<NodeId> keep{0, 1, 2};
  auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 0-1, 1-2 survive; 0-4,2-3 cut
  EXPECT_EQ(sub.to_original, keep);
}

TEST(Transform, InducedSubgraphRejectsDuplicates) {
  Graph g = gen::path(3);
  EXPECT_THROW(induced_subgraph(g, std::vector<NodeId>{0, 0}), CheckError);
}

TEST(Transform, DisjointUnionShiftsIds) {
  Graph u = disjoint_union(gen::path(2), gen::path(3));
  EXPECT_EQ(u.num_nodes(), 5u);
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(2, 3));
  EXPECT_TRUE(u.has_edge(3, 4));
  EXPECT_FALSE(u.has_edge(1, 2));
}

TEST(Transform, DisjointCopies) {
  Graph c = disjoint_copies(gen::path(3), 4);
  EXPECT_EQ(c.num_nodes(), 12u);
  EXPECT_EQ(c.num_edges(), 8u);
  NodeId comp_count = 0;
  connected_components(c, &comp_count);
  EXPECT_EQ(comp_count, 4u);
}

TEST(Transform, SubdivideEdges) {
  Graph s = subdivide_edges(triangle());
  EXPECT_EQ(s.num_nodes(), 6u);
  EXPECT_EQ(s.num_edges(), 6u);
  // Original nodes are pairwise non-adjacent after subdivision.
  EXPECT_FALSE(s.has_edge(0, 1));
  // Middle nodes have degree exactly 2.
  for (NodeId v = 3; v < 6; ++v) EXPECT_EQ(s.degree(v), 2u);
}

TEST(Transform, SubdividedCycleIsLongerCycle) {
  Graph s = subdivide_edges(gen::cycle(4));
  EXPECT_EQ(s.num_nodes(), 8u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(s.degree(v), 2u);
  NodeId comp = 0;
  connected_components(s, &comp);
  EXPECT_EQ(comp, 1u);
}

TEST(Transform, Overlay) {
  Graph a = Graph::from_edges(3, {{0, 1}});
  Graph b = Graph::from_edges(3, {{1, 2}, {0, 1}});
  Graph o = overlay(a, b);
  EXPECT_EQ(o.num_edges(), 2u);
}

TEST(Transform, Complement) {
  Graph c = complement(gen::path(3));  // path 0-1-2 -> single edge 0-2
  EXPECT_EQ(c.num_edges(), 1u);
  EXPECT_TRUE(c.has_edge(0, 2));
}

}  // namespace
}  // namespace arbods
