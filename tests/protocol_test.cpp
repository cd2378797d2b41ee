// Protocol-engine tests: run_protocol composition and the checks a
// consumer phase makes on its producer, Network reuse determinism (a run on a reset_for_reuse()
// Network is byte-identical to a run on a fresh Network, at 1 and 8
// threads; every phase draws from freshly derived RNG streams, derived on
// its first draw at any pool width), and the
// per-phase statistics breakdown (the sum over
// RunStats::phases equals the whole-run totals for every registry solver
// on the small corpus).
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/deterministic_mds.hpp"
#include "core/solvers.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "harness/corpus.hpp"
#include "harness/oracle.hpp"
#include "harness/registry.hpp"
#include "protocol/runner.hpp"

namespace arbods {
namespace {

int test_thread_width() {
  if (const char* env = std::getenv("ARBODS_TEST_THREADS")) {
    const int w = std::atoi(env);
    if (w >= 1) return w;
  }
  return 8;
}

::testing::AssertionResult results_identical(const MdsResult& a,
                                             const MdsResult& b) {
  if (a.dominating_set != b.dominating_set)
    return ::testing::AssertionFailure() << "dominating sets differ";
  if (a.weight != b.weight)
    return ::testing::AssertionFailure() << "weights differ";
  if (a.packing != b.packing)  // exact double comparison, intentionally
    return ::testing::AssertionFailure() << "packing values differ";
  if (a.iterations != b.iterations)
    return ::testing::AssertionFailure() << "iterations differ";
  if (!(a.stats == b.stats))  // includes the per-phase breakdown
    return ::testing::AssertionFailure()
           << "RunStats differ: rounds " << a.stats.rounds << "/"
           << b.stats.rounds << ", messages " << a.stats.messages << "/"
           << b.stats.messages << ", phases " << a.stats.phases.size() << "/"
           << b.stats.phases.size();
  // Catch-all via MdsResult::operator== so fields added later cannot
  // silently escape the audit.
  if (!(a == b))
    return ::testing::AssertionFailure() << "MdsResults differ";
  return ::testing::AssertionSuccess();
}

// -------------------------------------------------- composition structure

TEST(RunProtocol, ComposedSolversReportTheirPhaseLists) {
  Rng rng(31);
  auto wg = WeightedGraph::uniform(gen::k_tree_union(80, 2, rng));

  const MdsResult rand = solve_mds_randomized(wg, 2, 2);
  ASSERT_EQ(rand.stats.phases.size(), 2u);
  EXPECT_EQ(rand.stats.phases[0].name, "partial_ds");
  EXPECT_EQ(rand.stats.phases[1].name, "extension");

  const MdsResult ua = solve_mds_unknown_alpha(wg, 0.4);
  ASSERT_EQ(ua.stats.phases.size(), 2u);
  EXPECT_EQ(ua.stats.phases[0].name, "be_orientation");
  EXPECT_EQ(ua.stats.phases[1].name, "adaptive_mds");

  const MdsResult ud = solve_mds_unknown_delta(wg, 2, 0.4);
  ASSERT_EQ(ud.stats.phases.size(), 1u);
  EXPECT_EQ(ud.stats.phases[0].name, "adaptive_mds");
}

TEST(RunProtocol, PhaseRoundLimitStopsThePipeline) {
  Rng rng(32);
  auto wg = WeightedGraph::uniform(gen::k_tree_union(60, 2, rng));
  Network net(wg);
  PartialDominatingSet partial({0.25, theorem11_lambda(1, 0.25), 1});
  CompletionPhase completion(CompletionMode::kMinWeightNeighbor, partial);
  const RunStats stats =
      protocol::run_protocol(net, {&partial, &completion}, /*max=*/1);
  EXPECT_TRUE(stats.hit_round_limit);
  ASSERT_EQ(stats.phases.size(), 1u);  // the pipeline stopped at phase 1
  EXPECT_TRUE(stats.phases[0].hit_round_limit);
  EXPECT_EQ(stats.phases[0].rounds, 1);
}

TEST(RunProtocol, CompletionOnAnUnrunPartialPhaseIsRejected) {
  // The completion phase reads its producer's results at initialize; a
  // partial_ds phase that never ran on this graph has none.
  Rng rng(36);
  auto wg = WeightedGraph::uniform(gen::k_tree_union(40, 2, rng));
  Network net(wg);
  PartialDominatingSet partial({0.25, theorem11_lambda(1, 0.25), 1});
  CompletionPhase completion(CompletionMode::kMinWeightNeighbor, partial);
  EXPECT_THROW(protocol::run_protocol(net, {&completion}), CheckError);
  EXPECT_THROW(net.run(completion, 10), CheckError);
  // Having run on another graph is no better.
  auto other = WeightedGraph::uniform(gen::k_tree_union(30, 2, rng));
  Network other_net(other);
  protocol::run_protocol(other_net, {&partial});
  EXPECT_THROW(net.run(completion, 10), CheckError);
}

// ------------------------------------------------- per-phase stats sums

TEST(PhaseStats, SumOverPhasesEqualsRunTotalsForEveryRegistrySolver) {
  const auto corpus = harness::small_corpus(7);
  for (const auto& inst : corpus) {
    for (const harness::SolverInfo& info : harness::all_solvers()) {
      if (!harness::solver_applicable(info, inst)) continue;
      const harness::SolverParams params = harness::params_for(info, inst);
      const MdsResult res = harness::run_solver(info.name, inst.wg, params);
      ASSERT_FALSE(res.stats.phases.empty())
          << info.name << " on " << inst.name;
      std::int64_t rounds = 0, messages = 0, bits = 0;
      int max_bits = 0;
      for (const PhaseStats& phase : res.stats.phases) {
        EXPECT_FALSE(phase.name.empty());
        rounds += phase.rounds;
        messages += phase.messages;
        bits += phase.total_bits;
        max_bits = std::max(max_bits, phase.max_message_bits);
      }
      EXPECT_EQ(rounds, res.stats.rounds) << info.name << " on " << inst.name;
      EXPECT_EQ(messages, res.stats.messages)
          << info.name << " on " << inst.name;
      EXPECT_EQ(bits, res.stats.total_bits)
          << info.name << " on " << inst.name;
      EXPECT_EQ(max_bits, res.stats.max_message_bits)
          << info.name << " on " << inst.name;
    }
  }
}

// --------------------------------------------------- reuse determinism

// A dirty Network (arbitrary previous runs, grown scratch, advanced RNG
// streams) must reproduce a fresh Network's run bit-for-bit: set,
// certificate, iteration counts, statistics including the per-phase
// breakdown. Exercised at 1 thread and the CI width.
TEST(NetworkReuse, RunAfterReuseIsByteIdenticalToFreshNetwork) {
  Rng rng(33);
  auto wg = WeightedGraph::uniform(gen::k_tree_union(120, 2, rng));
  const char* dirtying[] = {"greedy-election", "det"};
  const char* solvers[] = {"det", "randomized", "unknown-alpha",
                           "greedy-threshold", "general"};
  for (const int threads : {1, test_thread_width()}) {
    CongestConfig cfg;
    cfg.threads = threads;
    cfg.seed = 0xfeed0001ULL;

    Network reused(wg, cfg);
    // Dirty the Network: unrelated runs grow scratch, advance RNG
    // streams, and leave per-phase stats behind.
    harness::SolverParams params;
    params.alpha = 2;
    for (const char* name : dirtying)
      harness::run_solver_on(name, reused, params);

    for (const char* name : solvers) {
      Network fresh(wg, cfg);
      const MdsResult want = harness::run_solver_on(name, fresh, params);
      const MdsResult got = harness::run_solver_on(name, reused, params);
      EXPECT_TRUE(results_identical(want, got))
          << name << " at " << threads << " threads";
    }
  }
}

TEST(NetworkReuse, ResetForReuseClearsObservableState) {
  Rng rng(34);
  auto wg = WeightedGraph::uniform(gen::k_tree_union(50, 2, rng));
  Network net(wg);
  harness::SolverParams params;
  params.alpha = 2;
  harness::run_solver_on("det", net, params);
  harness::run_solver_on("randomized", net, params);  // advances the streams
  EXPECT_GT(net.stats().rounds, 0);
  EXPECT_FALSE(net.stats().phases.empty());

  net.reset_for_reuse();
  EXPECT_EQ(net.stats(), RunStats{});
  EXPECT_EQ(net.current_round(), 0);
  EXPECT_TRUE(net.active_nodes().empty());
  const Rng base(net.config().seed);
  for (NodeId v = 0; v < wg.num_nodes(); ++v)
    EXPECT_EQ(net.rng(v).next_u64(), base.split(v).next_u64()) << v;
}

// The RNG contract: every phase (and every run) starts from freshly
// seeded per-node streams, so a composed pipeline matches the old
// one-Network-per-phase drivers and reruns are reproducible.
TEST(NetworkReuse, RerunsOfARandomizedSolverAreIdentical) {
  Rng rng(35);
  auto wg = WeightedGraph::uniform(gen::barabasi_albert(150, 2, rng));
  Network net(wg);
  const MdsResult a = solve_mds_general(net, 2);
  const MdsResult b = solve_mds_general(net, 2);
  EXPECT_TRUE(results_identical(a, b));
}

// Draws `draws` values from every node's stream at initialize and keeps
// the first; finished at once, so the phase is all draws.
class DrawPhase final : public DistributedAlgorithm {
 public:
  explicit DrawPhase(int draws) : draws_(draws) {}
  void initialize(Network& net) override {
    first_.assign(net.num_nodes(), 0);
    net.for_nodes([&](NodeId v) {
      first_[v] = net.rng(v).next_u64();
      for (int i = 1; i < draws_; ++i) net.rng(v).next_u64();
    });
  }
  void process_round(Network&) override {}
  bool finished(const Network&) const override { return true; }
  const std::vector<std::uint64_t>& first() const { return first_; }

 private:
  int draws_;
  std::vector<std::uint64_t> first_;
};

// The streams are re-derived from the seed at every phase start: a phase
// after one that advanced them draws what a fresh Network's do.
TEST(NetworkReuse, EveryPhaseDrawsFromFreshlyDerivedStreams) {
  Rng rng(37);
  auto wg = WeightedGraph::uniform(gen::barabasi_albert(200, 2, rng));
  for (const int threads : {1, test_thread_width()}) {
    CongestConfig cfg;
    cfg.threads = threads;
    cfg.seed = 0xfeed0002ULL;
    Network net(wg, cfg);
    DrawPhase first(5), second(1);
    protocol::run_protocol(net, {&first, &second});
    Network fresh(wg, cfg);
    for (NodeId v = 0; v < wg.num_nodes(); ++v) {
      const std::uint64_t want = fresh.rng(v).next_u64();
      EXPECT_EQ(first.first()[v], want) << "node " << v << " at " << threads;
      EXPECT_EQ(second.first()[v], want) << "node " << v << " at " << threads;
    }
  }
}

// Streams are derived on the first draws of a phase, shared in chunks
// among the workers that draw, while the others wait: at every width each
// node's first draw equals the pure stream Rng(seed).split(v). The path
// spans several chunks plus a partial one, so the workers share them.
TEST(NetworkReuse, StreamsDerivedInsideAParallelSectionArePure) {
  Rng rng(39);
  const WeightedGraph graphs[] = {
      WeightedGraph::uniform(gen::barabasi_albert(300, 2, rng)),
      WeightedGraph::uniform(gen::path(3 * 4096 + 5))};
  for (const WeightedGraph& wg : graphs)
    for (const int threads : {1, 2, 3, 4}) {
      CongestConfig cfg;
      cfg.threads = threads;
      cfg.seed = 0xfeed0003ULL;
      Network net(wg, cfg);
      for (int pass = 0; pass < 2; ++pass) {
        DrawPhase draw(3);
        protocol::run_protocol(net, {&draw});
        const Rng base(cfg.seed);
        for (NodeId v = 0; v < wg.num_nodes(); ++v)
          ASSERT_EQ(draw.first()[v], base.split(v).next_u64())
              << "node " << v << " of " << wg.num_nodes() << " at "
              << threads << ", pass " << pass;
      }
    }
}

// A phase that never draws leaves the streams stale, and the next drawing
// phase derives them afresh: det -> randomized -> det on one pooled
// Network equals each solver on its own fresh Network, bit for bit.
TEST(NetworkReuse, DetRandomizedDetOnOneNetworkEqualsFreshNetworks) {
  Rng rng(41);
  auto wg = WeightedGraph::uniform(gen::k_tree_union(400, 2, rng));
  for (const int threads : {1, 3, 4}) {
    CongestConfig cfg;
    cfg.threads = threads;
    const auto fresh_det = [&] {
      Network fresh(wg, cfg);
      return solve_mds_deterministic(fresh, 2, 0.3);
    };
    const auto fresh_randomized = [&] {
      Network fresh(wg, cfg);
      return solve_mds_randomized(fresh, 2, 2);
    };
    Network pooled(wg, cfg);
    EXPECT_TRUE(results_identical(solve_mds_deterministic(pooled, 2, 0.3),
                                  fresh_det()))
        << "first det at " << threads;
    EXPECT_TRUE(results_identical(solve_mds_randomized(pooled, 2, 2),
                                  fresh_randomized()))
        << "randomized at " << threads;
    EXPECT_TRUE(results_identical(solve_mds_deterministic(pooled, 2, 0.3),
                                  fresh_det()))
        << "second det at " << threads;
    EXPECT_TRUE(results_identical(solve_mds_randomized(pooled, 2, 2),
                                  fresh_randomized()))
        << "second randomized at " << threads;
  }
}

}  // namespace
}  // namespace arbods
