// E3 — Lemma 4.1 partial dominating set: properties (a) and (b) and the
// dual feasibility invariant (Obs 4.2/4.3), swept over lambda.
// Every row is checked: w(S) / sum x over the dominated nodes is at most
// prop (a)'s factor alpha / (1/(1+eps) - lambda(alpha+1)), every
// undominated node keeps x_v >= lambda * tau_v (prop (b), margin >= 1),
// and the packing is feasible. A violation prints the failing row on
// stderr and the binary exits 1.
#include "bench_util.hpp"
#include "core/partial_ds.hpp"
#include "graph/verify.hpp"

using namespace arbods;

int main() {
  int violations = 0;
  std::cout << "# E3 — Lemma 4.1 partial dominating set (lambda sweep)\n\n";
  Rng rng(999);
  Graph g = gen::k_tree_union(4096, 3, rng);
  auto w = gen::uniform_weights(4096, 100, rng);
  WeightedGraph wg(std::move(g), std::move(w));
  const NodeId alpha = 3;
  const double eps = 0.3;

  Table t({"lambda", "iterations r", "w(S)", "sum x (dominated)",
           "prop (a) factor", "measured w(S)/sum", "undominated",
           "min undom x/(lambda*tau)", "packing feasible"});
  for (double frac : {0.05, 0.25, 0.5, 0.9}) {
    const double limit = 1.0 / ((alpha + 1.0) * (1.0 + eps));
    const double lambda = frac * limit;
    Network net(wg);
    PartialDominatingSet algo({eps, lambda, alpha});
    net.run(algo, 1000000);

    Weight ws = 0;
    double dominated_mass = 0;
    NodeId undominated = 0;
    double min_margin = 1e300;
    const auto taus = wg.all_tau();
    for (NodeId v = 0; v < wg.num_nodes(); ++v) {
      if (algo.in_partial_set()[v]) ws += wg.weight(v);
      if (algo.dominated()[v]) {
        dominated_mass += algo.packing()[v];
      } else {
        ++undominated;
        min_margin = std::min(
            min_margin, algo.packing()[v] / (lambda * static_cast<double>(taus[v])));
      }
    }
    const double factor =
        alpha / (1.0 / (1.0 + eps) - lambda * (alpha + 1.0));
    const bool feasible = is_feasible_packing(wg, algo.packing(), 1e-5);
    // With no dominated mass, prop (a) leaves room for no weight at all.
    const bool prop_a = dominated_mass > 0
                            ? static_cast<double>(ws) / dominated_mass <= factor
                            : ws == 0;
    const bool prop_b = undominated == 0 || min_margin >= 1.0;
    if (!prop_a || !prop_b || !feasible) {
      std::cerr << "VIOLATION lambda=" << lambda << ": w(S) " << ws
                << ", sum x " << dominated_mass << " (factor " << factor
                << "), min undominated margin " << min_margin
                << ", packing feasible " << (feasible ? "yes" : "NO") << "\n";
      ++violations;
    }
    t.add_row({Table::fmt(lambda, 5), Table::fmt_int(algo.iterations()),
               Table::fmt_int(ws), Table::fmt(dominated_mass, 1),
               Table::fmt(factor, 2),
               dominated_mass > 0
                   ? Table::fmt(static_cast<double>(ws) / dominated_mass, 2)
                   : "0",
               Table::fmt_int(undominated),
               undominated > 0 ? Table::fmt(min_margin, 3) : "n/a",
               feasible ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "Claim check: measured w(S)/sum <= prop-(a) factor; "
               "min undominated margin >= 1; feasibility always 'yes'.\n";
  if (violations > 0) {
    std::cerr << violations << " row(s) violate Lemma 4.1\n";
    return 1;
  }
  return 0;
}
