// Scenario batch-runner tests: expansion over {solvers x instances x
// widths x seeds x repeats}, bit-identity against the direct registry
// drivers, Network pooling (constructed once per (width, seed) and
// reused across solvers and repeats), parameter overrides, applicability
// skipping, and the JSON writer.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/oracle.hpp"
#include "harness/scenario.hpp"

namespace arbods::harness {
namespace {

std::vector<const CorpusInstance*> pointers(
    const std::vector<CorpusInstance>& corpus, std::size_t limit) {
  std::vector<const CorpusInstance*> out;
  for (std::size_t i = 0; i < corpus.size() && i < limit; ++i)
    out.push_back(&corpus[i]);
  return out;
}

TEST(Scenario, RowsMatchDirectRegistryRunsBitForBit) {
  const auto corpus = small_corpus(11);
  const auto instances = pointers(corpus, 4);

  ScenarioSpec spec;
  spec.solvers.push_back({"det", std::nullopt, ""});
  spec.solvers.push_back({"randomized", std::nullopt, ""});
  spec.thread_widths = {1, 4};
  spec.seeds = {77};
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), instances.size() * 2 * 2);
  EXPECT_TRUE(all_identical(rows));

  for (const ScenarioRow& row : rows) {
    const CorpusInstance* inst = nullptr;
    for (const auto* candidate : instances)
      if (candidate->name == row.instance) inst = candidate;
    ASSERT_NE(inst, nullptr);
    SolverParams params = params_for(solver(row.solver), *inst);
    params.threads = row.threads;
    CongestConfig cfg;
    cfg.seed = row.seed;
    const MdsResult direct = run_solver(row.solver, inst->wg, params, cfg);
    EXPECT_EQ(direct.dominating_set, row.result.dominating_set)
        << row.solver << " on " << row.instance;
    EXPECT_EQ(direct.weight, row.result.weight);
    EXPECT_EQ(direct.packing, row.result.packing);
    EXPECT_TRUE(direct.stats == row.result.stats);
  }
}

TEST(Scenario, NetworkPoolConstructsOncePerConfigAndReuses) {
  const auto corpus = small_corpus(12);
  NetworkPool pool;
  CongestConfig serial;
  CongestConfig wide;
  wide.threads = 4;

  Network& a = pool.acquire(corpus[0].wg, serial);
  Network& b = pool.acquire(corpus[0].wg, serial);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(pool.constructed(), 1u);

  Network& c = pool.acquire(corpus[0].wg, wide);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(pool.constructed(), 2u);

  // A different graph under the same config is a different entry.
  pool.acquire(corpus[1].wg, serial);
  EXPECT_EQ(pool.constructed(), 3u);
  EXPECT_EQ(pool.size(), 3u);

  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
  pool.acquire(corpus[0].wg, serial);
  EXPECT_EQ(pool.constructed(), 4u);
}

TEST(Scenario, RepeatsReuseTheNetworkAndStayIdentical) {
  const auto corpus = small_corpus(13);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  spec.solvers.push_back({"det", std::nullopt, ""});
  spec.solvers.push_back({"greedy-election", std::nullopt, ""});
  spec.repeats = 3;  // + warm-up: 4 runs per cell, one Network
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(all_identical(rows));
  for (const auto& row : rows) EXPECT_EQ(row.repeats, 3);
}

TEST(Scenario, MedianIndexPicksTheReportedSample) {
  const std::vector<double> odd = {3.0, 1.0, 2.0};
  EXPECT_EQ(median_index(odd), 2u);
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(median_index(even), 3u);  // the lower central sample, 2.0
  const std::vector<double> one = {7.0};
  EXPECT_EQ(median_index(one), 0u);
}

TEST(Scenario, TimingBreakdownComesFromTheMedianRepeat) {
  // With an odd repeat count `seconds` is one repeat's wall clock, and
  // that repeat's compute + flip happened inside it. A breakdown taken
  // from a slower repeat (the final one, say) could exceed it.
  const auto corpus = small_corpus(14);
  const auto instances = pointers(corpus, 3);
  ScenarioSpec spec;
  spec.solvers.push_back({"det", std::nullopt, ""});
  spec.solvers.push_back({"randomized", std::nullopt, ""});
  spec.thread_widths = {1, 2};
  spec.repeats = 5;
  const auto rows = run_scenario(spec, instances);
  ASSERT_FALSE(rows.empty());
  for (const ScenarioRow& row : rows) {
    const obs::TimingStats& t = row.result.stats.timing;
    EXPECT_GT(t.compute_seconds, 0.0) << row.solver << " on " << row.instance;
    EXPECT_LE(t.compute_seconds + t.flip_seconds, row.seconds)
        << row.solver << " on " << row.instance << " t" << row.threads;
  }
}

TEST(Scenario, SolverParamOverridesAreHonored) {
  const auto corpus = small_corpus(14);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  for (const std::int64_t t : {1, 4}) {
    SolverParams params;
    params.alpha = corpus[0].alpha;
    params.t = t;
    spec.solvers.push_back(
        {"randomized", params, "rand_t" + std::to_string(t)});
  }
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].solver, "rand_t1");
  EXPECT_EQ(rows[1].solver, "rand_t4");
  // Larger t = smaller lambda = more extension phases (paper iterations).
  EXPECT_LT(rows[0].result.iterations, rows[1].result.iterations);
}

TEST(Scenario, InapplicableSolversAreSkippedOrRejected) {
  const auto corpus = small_corpus(15);
  // cycle15 is not a forest; the tree solver cannot run on it.
  const CorpusInstance* cyclic = nullptr;
  for (const auto& inst : corpus)
    if (!inst.forest) cyclic = &inst;
  ASSERT_NE(cyclic, nullptr);
  const std::vector<const CorpusInstance*> instances = {cyclic};

  ScenarioSpec spec;
  spec.solvers.push_back({"tree", std::nullopt, ""});
  spec.solvers.push_back({"det", std::nullopt, ""});
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 1u);  // tree skipped, det ran
  EXPECT_EQ(rows[0].solver, "det");

  spec.skip_inapplicable = false;
  EXPECT_THROW(run_scenario(spec, instances), CheckError);
}

TEST(Scenario, JsonWriterEmitsTheExp12Schema) {
  const auto corpus = small_corpus(16);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  spec.solvers.push_back({"greedy-threshold", std::nullopt, ""});
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 1u);

  std::ostringstream os;
  write_scenario_json(os, rows);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"instance\": \"" + rows[0].instance + "\""),
            std::string::npos);
  for (const char* key :
       {"\"family\"", "\"n\"", "\"m\"", "\"solver\"", "\"threads\"",
        "\"seconds\"", "\"repeats\"", "\"rounds\"", "\"messages\"",
        "\"total_bits\"", "\"set_size\"", "\"weight\"", "\"identical\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"identical\": true"), std::string::npos);
}

TEST(Scenario, PerPhaseBreakdownSurvivesIntoRows) {
  const auto corpus = small_corpus(17);
  const auto instances = pointers(corpus, 1);
  ScenarioSpec spec;
  SolverParams params;
  params.alpha = corpus[0].alpha;
  spec.solvers.push_back({"randomized", params, ""});
  const auto rows = run_scenario(spec, instances);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].result.stats.phases.size(), 2u);
  EXPECT_EQ(rows[0].result.stats.phases[0].name, "partial_ds");
  EXPECT_EQ(rows[0].result.stats.phases[1].name, "extension");
}

}  // namespace
}  // namespace arbods::harness
