// The solver-registry harness: name resolution, parameter-schema
// rejection, full corpus x solver oracle sweep, and the CONGEST
// message-cap enforcement regression for every registered solver.
#include <gtest/gtest.h>

#include <set>

#include "common/check.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/trees.hpp"
#include "harness/corpus.hpp"
#include "harness/oracle.hpp"
#include "harness/registry.hpp"

namespace arbods::harness {
namespace {

WeightedGraph small_instance() {
  Rng rng(42);
  return WeightedGraph::uniform(gen::k_tree_union(24, 2, rng));
}

// ------------------------------------------------------------- resolution

TEST(Registry, EveryExpectedNameResolvesAndIsUnique) {
  const std::vector<std::string_view> expected = {
      "det",           "unweighted",    "randomized",
      "general",       "unknown-delta", "unknown-alpha",
      "tree",          "greedy-threshold", "greedy-election"};
  EXPECT_EQ(all_solvers().size(), expected.size());
  std::set<std::string_view> seen;
  for (std::string_view name : expected) {
    const SolverInfo* info = find_solver(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->theorem.empty());
    EXPECT_FALSE(info->guarantee.empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
  }
  EXPECT_EQ(solver_names().size(), expected.size());
}

TEST(Registry, UnknownNamesAreRejectedWithTheKnownList) {
  EXPECT_EQ(find_solver("nope"), nullptr);
  try {
    solver("nope");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown solver"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("det"), std::string::npos);
  }
  WeightedGraph wg = small_instance();
  EXPECT_THROW(run_solver("does-not-exist", wg), CheckError);
}

// ------------------------------------------------------------ bad params

TEST(Registry, BadParamsAreRejectedPerSchema) {
  WeightedGraph wg = small_instance();
  SolverParams p;

  p.alpha = 0;
  EXPECT_THROW(run_solver("det", wg, p), CheckError);
  p = {};
  p.eps = 0.0;
  EXPECT_THROW(run_solver("det", wg, p), CheckError);
  p.eps = 1.5;
  EXPECT_THROW(run_solver("unknown-alpha", wg, p), CheckError);
  p = {};
  p.t = 0;
  EXPECT_THROW(run_solver("randomized", wg, p), CheckError);
  p = {};
  p.k = 0;
  EXPECT_THROW(run_solver("general", wg, p), CheckError);
  p = {};
  p.threads = -2;  // threads is validated for every solver (-1 = inherit)
  EXPECT_THROW(run_solver("det", wg, p), CheckError);
  EXPECT_THROW(run_solver("greedy-election", wg, p), CheckError);
}

TEST(Registry, SchemaOnlyGuardsDeclaredFields) {
  // A solver must ignore out-of-range values of fields it does not read.
  WeightedGraph wg = small_instance();
  SolverParams p;
  p.alpha = 2;
  p.eps = -7.0;  // not in randomized's schema
  p.t = 1;
  EXPECT_NO_THROW(run_solver("randomized", wg, p));
}

TEST(Registry, TreeSolverRejectsNonForests) {
  WeightedGraph wg = small_instance();  // union of 2 trees: has cycles
  EXPECT_THROW(run_solver("tree", wg), CheckError);
}

// -------------------------------------------------- corpus x solver sweep

TEST(Harness, EveryRegisteredSolverPassesTheOracleOnTheSmallCorpus) {
  const auto corpus = small_corpus(7);
  ASSERT_GE(corpus.size(), 10u);
  for (const auto& inst : corpus) {
    for (const SolverInfo& info : all_solvers()) {
      if (!solver_applicable(info, inst)) continue;
      const SolverParams params = params_for(info, inst);
      const MdsResult res = run_solver(info.name, inst.wg, params);
      const OracleReport rep = check_solver_result(info, params, inst, res);
      EXPECT_TRUE(rep.ok) << info.name << " on " << inst.name << ": "
                          << rep.failure;
    }
  }
}

TEST(Harness, OracleComputesOptAndRatioOnSmallInstances) {
  const auto corpus = small_corpus(11);
  const auto& inst = corpus.front();
  const SolverInfo& info = solver("det");
  const SolverParams params = params_for(info, inst);
  const MdsResult res = run_solver(info.name, inst.wg, params);
  const OracleReport rep = check_solver_result(info, params, inst, res);
  ASSERT_TRUE(rep.ok) << rep.failure;
  EXPECT_GT(rep.opt, 0.0);
  EXPECT_GE(rep.ratio, 1.0 - 1e-9);
  EXPECT_LE(rep.ratio, info.approx_bound(inst.wg, params) + 1e-9);
}

TEST(Harness, OracleFlagsAnInvalidSet) {
  const auto corpus = small_corpus(13);
  const auto& inst = corpus.front();
  const SolverInfo& info = solver("det");
  const SolverParams params = params_for(info, inst);
  MdsResult res = run_solver(info.name, inst.wg, params);
  res.dominating_set.clear();  // break it
  res.weight = 0;
  res.packing.clear();
  const OracleReport rep = check_solver_result(info, params, inst, res);
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.failure.empty());
}

// --------------------------------------------- CONGEST cap regression

TEST(Harness, MessageBitCapsAreEnforcedForEverySolver) {
  // With a deliberately tiny cap every solver's very first send must
  // throw: enforcement lives in the Network, not in solver goodwill.
  Rng rng(99);
  WeightedGraph wg = WeightedGraph::uniform(gen::random_tree_prufer(32, rng));
  CongestConfig tiny;
  tiny.max_message_bits_override = 1;
  for (const SolverInfo& info : all_solvers()) {
    SolverParams p;
    p.alpha = 1;
    EXPECT_THROW(run_solver(info.name, wg, p, tiny), CheckError)
        << info.name << " ran to completion under a 1-bit message cap";
  }
}

}  // namespace
}  // namespace arbods::harness
