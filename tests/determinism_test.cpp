// Thread-count determinism: the simulator promises bit-identical results
// for every worker-pool width. For every registry solver on the small
// corpus we run 1-thread and 8-thread configurations twice each with the
// same seed and require the four MdsResults (set, weight, packing
// doubles, iteration counts) and RunStats to match exactly. A width-3
// run must reproduce the same reference too: three workers split every
// node and active-set range unevenly (count * w / workers), so chunk
// bounds differ from both the serial and the wide run.
//
// The 8-thread width is the CI "multi-threaded simulator config"; it can
// be overridden via the ARBODS_TEST_THREADS environment variable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/corpus.hpp"
#include "harness/oracle.hpp"
#include "harness/registry.hpp"

namespace arbods::harness {
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
    return ::testing::AssertionFailure()
           << "weights differ: " << a.weight << " vs " << b.weight;
  if (a.packing != b.packing)  // exact double comparison, intentionally
    return ::testing::AssertionFailure() << "packing values differ";
  if (a.packing_lower_bound != b.packing_lower_bound)
    return ::testing::AssertionFailure() << "packing lower bounds differ";
  if (a.iterations != b.iterations)
    return ::testing::AssertionFailure()
           << "iterations differ: " << a.iterations << " vs " << b.iterations;
  if (a.used_fallback != b.used_fallback)
    return ::testing::AssertionFailure() << "used_fallback differs";
  if (!(a.stats == b.stats))
    return ::testing::AssertionFailure()
           << "RunStats differ: rounds " << a.stats.rounds << "/"
           << b.stats.rounds << ", messages " << a.stats.messages << "/"
           << b.stats.messages << ", bits " << a.stats.total_bits << "/"
           << b.stats.total_bits;
  return ::testing::AssertionSuccess();
}

TEST(Determinism, EverySolverIsBitIdenticalAcrossThreadCountsAndReruns) {
  const int wide = test_thread_width();
  const auto corpus = small_corpus(7);
  ASSERT_GE(corpus.size(), 10u);
  for (const auto& inst : corpus) {
    for (const SolverInfo& info : all_solvers()) {
      if (!solver_applicable(info, inst)) continue;
      SolverParams params = params_for(info, inst);
      CongestConfig cfg;
      cfg.seed = 0xdead0001ULL;

      params.threads = 1;
      const MdsResult serial_a = run_solver(info.name, inst.wg, params, cfg);
      const MdsResult serial_b = run_solver(info.name, inst.wg, params, cfg);
      params.threads = wide;
      const MdsResult wide_a = run_solver(info.name, inst.wg, params, cfg);
      const MdsResult wide_b = run_solver(info.name, inst.wg, params, cfg);
      params.threads = 3;
      const MdsResult uneven = run_solver(info.name, inst.wg, params, cfg);

      EXPECT_TRUE(results_identical(serial_a, serial_b))
          << info.name << " on " << inst.name << " (serial rerun)";
      EXPECT_TRUE(results_identical(serial_a, wide_a))
          << info.name << " on " << inst.name << " (1 vs " << wide
          << " threads)";
      EXPECT_TRUE(results_identical(wide_a, wide_b))
          << info.name << " on " << inst.name << " (" << wide
          << "-thread rerun)";
      EXPECT_TRUE(results_identical(serial_a, uneven))
          << info.name << " on " << inst.name << " (1 vs 3 threads)";
    }
  }
}

TEST(Determinism, ThreadsZeroMeansHardwareWidthAndStaysIdentical) {
  const auto corpus = small_corpus(21);
  const auto& inst = corpus.front();
  const SolverInfo& info = solver("det");
  SolverParams params = params_for(info, inst);
  CongestConfig cfg;
  cfg.seed = 99;

  params.threads = 1;
  const MdsResult serial = run_solver(info.name, inst.wg, params, cfg);
  params.threads = 0;  // hardware_concurrency
  const MdsResult hw = run_solver(info.name, inst.wg, params, cfg);
  EXPECT_TRUE(results_identical(serial, hw));
}

}  // namespace
}  // namespace arbods::harness
