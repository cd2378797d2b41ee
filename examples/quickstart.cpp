// Quickstart: build a small weighted graph, run the Theorem 1.1 algorithm,
// and inspect the result and its certificates.
//
//   $ ./quickstart
#include <iostream>

#include "core/solvers.hpp"
#include "graph/builder.hpp"
#include "graph/verify.hpp"

using namespace arbods;

int main() {
  // A toy network: two hubs (0 and 5) joined through node 4, each hub serving
  // four pendant clients: hub 0 -> {1,2,3,8}, hub 5 -> {6,7,9,10}.
  GraphBuilder b(11);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(0, 8);
  b.add_edge(0, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(5, 7);
  b.add_edge(5, 9);
  b.add_edge(5, 10);
  Graph g = std::move(b).build();

  // Hubs are expensive to operate, clients cheap.
  std::vector<Weight> weights{20, 1, 1, 1, 3, 20, 1, 1, 1, 1, 1};
  WeightedGraph wg(std::move(g), std::move(weights));

  // The graph is a tree, so arboricity alpha = 1. eps trades rounds for
  // approximation: (2*1+1)*(1+0.2) = 3.6-approximation here.
  MdsResult result = solve_mds_deterministic(wg, /*alpha=*/1, /*eps=*/0.2);

  std::cout << "dominating set:";
  for (NodeId v : result.dominating_set) std::cout << " " << v;
  std::cout << "\ntotal weight:        " << result.weight << "\n";
  std::cout << "dual lower bound:    " << result.packing_lower_bound
            << "  (certified: OPT >= this)\n";
  std::cout << "certified ratio:     " << result.certified_ratio()
            << "  (analytic bound 3.6)\n";
  std::cout << "CONGEST rounds:      " << result.stats.rounds << "\n";
  std::cout << "max message width:   " << result.stats.max_message_bits
            << " bits\n";

  // Certificates can be re-checked independently at any time.
  result.validate(wg);
  std::cout << "independent verification: OK\n";
  return 0;
}
