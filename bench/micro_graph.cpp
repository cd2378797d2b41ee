// M2 — google-benchmark micro-benchmarks for the graph/arboricity
// substrates: peeling, orientations, exact pseudoarboricity (excess routing
// on the orientation), verifiers.
#include <benchmark/benchmark.h>

#include "arboricity/core_decomposition.hpp"
#include "arboricity/pseudoarboricity.hpp"
#include "baselines/greedy.hpp"
#include "baselines/tree_dp.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/trees.hpp"
#include "graph/verify.hpp"

namespace arbods {
namespace {

void BM_CoreDecomposition(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(10);
  Graph g = gen::k_tree_union(n, 4, rng);
  for (auto _ : state) {
    auto cd = core_decomposition(g);
    benchmark::DoNotOptimize(cd.degeneracy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_CoreDecomposition)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

void BM_DegeneracyOrientation(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(11);
  Graph g = gen::k_tree_union(n, 4, rng);
  for (auto _ : state) {
    auto o = degeneracy_orientation(g);
    benchmark::DoNotOptimize(o.max_out_degree());
  }
}
BENCHMARK(BM_DegeneracyOrientation)->Arg(1 << 12)->Arg(1 << 15);

// Arg 1 is the tree count k. k = 2 is the forest2 shape: m <= 2n - 2, so
// routing the degeneracy orientation down to out-degree 2 uses nearly all
// the slack and the augmenting paths grow long.
void BM_Pseudoarboricity(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(12);
  Graph g = gen::k_tree_union(n, static_cast<NodeId>(state.range(1)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pseudoarboricity(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_Pseudoarboricity)
    ->Args({1 << 8, 3})
    ->Args({1 << 10, 3})
    ->Args({1 << 12, 3})
    ->Args({1 << 16, 2})
    ->Args({1 << 17, 2})
    ->Unit(benchmark::kMillisecond);

void BM_GreedyDominatingSet(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(13);
  Graph g = gen::k_tree_union(n, 3, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  for (auto _ : state) {
    auto set = baselines::greedy_dominating_set(wg);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GreedyDominatingSet)->Arg(1 << 12)->Arg(1 << 15);

void BM_TreeDp(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(14);
  Graph g = gen::random_tree_prufer(n, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  for (auto _ : state) {
    auto res = baselines::tree_dominating_set(wg);
    benchmark::DoNotOptimize(res.weight);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeDp)->Arg(1 << 12)->Arg(1 << 16);

void BM_DominatingSetVerifier(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(15);
  Graph g = gen::k_tree_union(n, 3, rng);
  WeightedGraph wg = WeightedGraph::uniform(std::move(g));
  auto set = baselines::greedy_dominating_set(wg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_dominating_set(wg.graph(), set));
  }
}
BENCHMARK(BM_DominatingSetVerifier)->Arg(1 << 12)->Arg(1 << 15);

}  // namespace
}  // namespace arbods
