// E10 — Remarks 4.4 and 4.5: the unknown-parameter variants keep their
// approximation while paying the stated extra rounds.
// Every row is checked against the registry's analytic bound for its
// solver: (2*alpha+1)(1+eps) for the Thm 1.1 and Rem 4.4 rows, and
// (4*pseudoarboricity+1)(1+eps) for both Rem 4.5 rows. A violation
// prints the failing row on stderr and the binary exits 1.
#include "bench_util.hpp"
#include "core/solvers.hpp"

using namespace arbods;

int main() {
  std::cout << "# E10 — unknown Delta (Rem 4.4) / unknown alpha (Rem 4.5)\n\n";
  Table t({"instance", "variant", "weight", "certified ratio",
           "analytic bound", "rounds"});
  Rng rng(1010);
  struct Inst {
    std::string name;
    WeightedGraph wg;
    NodeId alpha;
  };
  std::vector<Inst> insts;
  insts.push_back(
      {"tree_n2048", WeightedGraph::uniform(gen::random_tree_prufer(2048, rng)), 1});
  {
    Graph g = gen::k_tree_union(2048, 3, rng);
    auto w = gen::uniform_weights(2048, 100, rng);
    insts.push_back({"forest3_n2048_w", WeightedGraph(std::move(g), std::move(w)), 3});
  }
  insts.push_back(
      {"ba2_n2048", WeightedGraph::uniform(gen::barabasi_albert(2048, 2, rng)), 2});

  const double eps = 0.3;
  int violations = 0;
  for (auto& inst : insts) {
    harness::SolverParams params;
    params.alpha = inst.alpha;
    params.eps = eps;
    // Validates the result, checks it against `solver`'s analytic bound
    // and adds the row.
    const auto row = [&](const char* variant, std::string_view solver,
                         MdsResult res) {
      res.validate(inst.wg, 1e-5);
      const double bound = harness::solver(solver).approx_bound(inst.wg, params);
      const double ratio = res.certified_ratio();
      if (!(ratio <= bound)) {
        std::cerr << "VIOLATION " << inst.name << " / " << variant
                  << ": certified ratio " << ratio << " (bound " << bound
                  << ")\n";
        ++violations;
      }
      t.add_row({inst.name, variant, Table::fmt_int(res.weight),
                 Table::fmt(ratio, 3), Table::fmt(bound, 2),
                 Table::fmt_int(res.stats.rounds)});
    };
    row("Thm 1.1 (all known)", "det",
        solve_mds_deterministic(inst.wg, inst.alpha, eps));
    row("Rem 4.4 (Delta unknown)", "unknown-delta",
        solve_mds_unknown_delta(inst.wg, inst.alpha, eps));
    row("Rem 4.5 (alpha unknown, doubling BE)", "unknown-alpha",
        solve_mds_unknown_alpha(inst.wg, eps));
    row("Rem 4.5 (BE given alpha)", "unknown-alpha",
        solve_mds_unknown_alpha(inst.wg, eps, {}, true, inst.alpha));
  }
  t.print(std::cout);
  std::cout << "Claim check: unknown-parameter variants match Thm 1.1 "
               "quality within their bounds; rounds grow to O(log n / eps) "
               "as stated.\n";
  if (violations > 0) {
    std::cerr << violations << " row(s) exceed their analytic bound\n";
    return 1;
  }
  return 0;
}
