// E2 — round complexity scaling (the "figure" of Theorem 1.1):
//   (a) rounds vs Delta at fixed alpha, eps — should grow as log(Delta),
//   (b) rounds vs 1/eps at fixed graph — should grow linearly.
// Every row is also checked against Theorem 1.1: det runs exactly
// 2r + 3 rounds for r partial_ds iterations, and its certified ratio
// (weight over the dual packing bound) is at most (2*alpha+1)(1+eps). A
// violation prints the failing row on stderr and the binary exits 1.
#include <cmath>

#include "bench_util.hpp"
#include "core/solvers.hpp"

using namespace arbods;

namespace {

int violations = 0;

/// Checks one row against Theorem 1.1; returns the ratio bound.
double check_row(const std::string& row, const MdsResult& res, NodeId alpha,
                 double eps) {
  const double bound = (2.0 * alpha + 1.0) * (1.0 + eps);
  const std::int64_t want_rounds = 2 * res.iterations + 3;
  const double ratio = res.certified_ratio();
  if (res.stats.rounds != want_rounds || !(ratio <= bound)) {
    std::cerr << "VIOLATION " << row << ": rounds " << res.stats.rounds
              << " (theorem: 2*" << res.iterations << "+3 = " << want_rounds
              << "), certified ratio " << ratio << " (bound " << bound
              << ")\n";
    ++violations;
  }
  return bound;
}

}  // namespace

int main() {
  std::cout << "# E2 — rounds = O(log(Delta/alpha)/eps)\n\n";

  std::cout << "## (a) Delta sweep on stars (alpha = 1, eps = 0.5)\n";
  Table a({"n = Delta+1", "log2(Delta)", "iterations r", "rounds",
           "rounds/log2(Delta)", "certified ratio", "bound"});
  for (int k = 4; k <= 16; k += 2) {
    const NodeId n = NodeId{1} << k;
    auto wg = WeightedGraph::uniform(gen::star(n));
    MdsResult res = solve_mds_deterministic(wg, 1, 0.5);
    res.validate(wg, 1e-5);
    const double bound = check_row("star n=" + std::to_string(n), res, 1, 0.5);
    const double lg = std::log2(static_cast<double>(n - 1));
    a.add_row({Table::fmt_int(n), Table::fmt(lg, 1),
               Table::fmt_int(res.iterations), Table::fmt_int(res.stats.rounds),
               Table::fmt(res.stats.rounds / lg, 2),
               Table::fmt(res.certified_ratio(), 3), Table::fmt(bound, 2)});
  }
  a.print(std::cout);

  std::cout << "## (b) eps sweep on BA(4096, m=3) (alpha = 3)\n";
  Table b({"eps", "1/eps", "iterations r", "rounds", "rounds*eps",
           "certified ratio", "bound"});
  Rng rng(777);
  Graph g = gen::barabasi_albert(4096, 3, rng);
  auto wg = WeightedGraph::uniform(std::move(g));
  for (double eps : {0.8, 0.4, 0.2, 0.1, 0.05, 0.025}) {
    MdsResult res = solve_mds_deterministic(wg, 3, eps);
    res.validate(wg, 1e-5);
    const double bound =
        check_row("BA(4096,3) eps=" + Table::fmt(eps, 3), res, 3, eps);
    b.add_row({Table::fmt(eps, 3), Table::fmt(1.0 / eps, 1),
               Table::fmt_int(res.iterations), Table::fmt_int(res.stats.rounds),
               Table::fmt(res.stats.rounds * eps, 2),
               Table::fmt(res.certified_ratio(), 3), Table::fmt(bound, 2)});
  }
  b.print(std::cout);
  if (violations > 0) {
    std::cerr << violations << " row(s) violate Theorem 1.1\n";
    return 1;
  }
  return 0;
}
