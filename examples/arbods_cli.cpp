// Command-line front end: run any algorithm in the library on a graph
// file (see graph/io.hpp for the format) or on a named generator.
//
//   arbods_cli <algorithm> (--file PATH | --gen FAMILY --n N) [options]
//
// Algorithms are resolved through the solver registry
// (src/harness/registry.hpp) — `arbods_cli list` prints the table —
// plus the centralized "greedy" baseline.
// options:    --alpha A (default: measured pseudoarboricity)
//             --eps E (default 0.25)   --t T (default 2)   --k K (default 2)
//             --weights unit|uniform|powerlaw|degree|invdegree (default unit)
//             --seed S
//             --threads W (simulator worker pool; 0 = all hardware threads,
//                          default 1; results identical for every W)
//             --trace-out PATH (Chrome trace-event JSON of the run)
// families:   tree | forest2 | forest5 | grid | planar | ba2 | ba4 | er
// exit status: 0 verified, 1 solver or parameter error (CheckError),
//              2 usage error or invalid input (malformed --file, a value
//                that is not wholly a number of the option's type, or
//                out of its range)
#include <charconv>
#include <cstring>
#include <iostream>
#include <limits>
#include <new>
#include <string>
#include <system_error>

#include "arboricity/pseudoarboricity.hpp"
#include "baselines/greedy.hpp"
#include "common/check.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "harness/scenario.hpp"

using namespace arbods;

namespace {

void print_solver_table(std::ostream& os) {
  os << "registered solvers:\n";
  for (const auto& info : harness::all_solvers()) {
    os << "  " << info.name;
    for (std::size_t pad = info.name.size(); pad < 18; ++pad) os << ' ';
    os << info.theorem << " — " << info.guarantee << "\n";
  }
  os << "  greedy            centralized Johnson greedy baseline\n";
}

[[noreturn]] void usage() {
  std::cerr << "usage: arbods_cli <algorithm|list>\n"
               "                  (--file PATH | --gen tree|forest2|forest5|"
               "grid|planar|ba2|ba4|er --n N)\n"
               "                  [--alpha A] [--eps E] [--t T] [--k K]\n"
               "                  [--weights unit|uniform|powerlaw|degree|"
               "invdegree] [--seed S] [--threads W]\n"
               "                  [--trace-out PATH]\n";
  print_solver_table(std::cerr);
  std::exit(2);
}

Graph make_graph(const std::string& family, NodeId n, Rng& rng) {
  if (family == "tree") return gen::random_tree_prufer(n, rng);
  if (family == "forest2") return gen::k_tree_union(n, 2, rng);
  if (family == "forest5") return gen::k_tree_union(n, 5, rng);
  if (family == "grid") {
    NodeId side = 1;
    while (side * side < n) ++side;
    return gen::grid(side, side);
  }
  if (family == "planar") return gen::planar_stacked_triangulation(n, rng);
  if (family == "ba2") return gen::barabasi_albert(n, 2, rng);
  if (family == "ba4") return gen::barabasi_albert(n, 4, rng);
  if (family == "er") return gen::erdos_renyi_gnp(n, 6.0 / n, rng);
  std::cerr << "unknown family '" << family << "'\n";
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string algo = argv[1];
  if (algo == "list") {
    print_solver_table(std::cout);
    return 0;
  }
  if (algo != "greedy" && harness::find_solver(algo) == nullptr) {
    std::cerr << "unknown algorithm '" << algo << "'\n";
    usage();
  }

  std::string file, family, weights = "unit";
  NodeId n = 1000;
  harness::SolverParams params;
  params.alpha = 0;  // 0 = measure below
  std::uint64_t seed = 1;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        usage();
      }
      return argv[++i];
    };
    // The whole token must parse as a T within [lo, hi]: "5x", "-3" for
    // an unsigned option, or a value that does not fit the destination
    // type is a usage error, never a silent truncation or wrap.
    auto number = [&]<typename T>(T& out, const char* flag,
                                   T lo = std::numeric_limits<T>::lowest(),
                                   T hi = std::numeric_limits<T>::max()) {
      const char* text = need(flag);
      const char* end = text + std::strlen(text);
      T value{};
      const auto [ptr, ec] = std::from_chars(text, end, value);
      if (ec != std::errc() || ptr != end || !(value >= lo) || !(value <= hi)) {
        std::cerr << "bad value '" << text << "' for " << flag << "\n";
        usage();
      }
      out = value;
    };
    if (!std::strcmp(argv[i], "--file")) file = need("--file");
    else if (!std::strcmp(argv[i], "--gen")) family = need("--gen");
    else if (!std::strcmp(argv[i], "--n")) number(n, "--n", NodeId{1});
    else if (!std::strcmp(argv[i], "--alpha")) number(params.alpha, "--alpha");
    else if (!std::strcmp(argv[i], "--eps")) number(params.eps, "--eps");
    else if (!std::strcmp(argv[i], "--t")) number(params.t, "--t");
    else if (!std::strcmp(argv[i], "--k")) number(params.k, "--k");
    else if (!std::strcmp(argv[i], "--weights")) weights = need("--weights");
    else if (!std::strcmp(argv[i], "--seed")) number(seed, "--seed");
    else if (!std::strcmp(argv[i], "--threads"))
      number(params.threads, "--threads", 0);
    else if (!std::strcmp(argv[i], "--trace-out")) trace_out = need("--trace-out");
    else usage();
  }

  Rng rng(seed);
  // Input errors exit 2 with a diagnostic, like usage errors: a malformed
  // file raises CheckError, an absurd node count std::bad_alloc.
  Graph g;
  try {
    g = !file.empty() ? load_graph(file) : make_graph(family, n, rng);
  } catch (const CheckError& e) {
    std::cerr << "error: invalid input: " << e.what() << "\n";
    return 2;
  } catch (const std::bad_alloc&) {
    std::cerr << "error: invalid input: out of memory building the graph\n";
    return 2;
  }
  std::cout << "graph: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " Delta=" << g.max_degree() << "\n";
  if (params.alpha == 0) {
    params.alpha = std::max<NodeId>(1, pseudoarboricity(g));
    std::cout << "alpha (measured pseudoarboricity): " << params.alpha
              << "\n";
  }
  WeightedGraph wg = gen::with_weights(std::move(g), weights, rng);

  if (algo == "greedy") {
    auto set = baselines::greedy_dominating_set(wg);
    std::cout << "set size: " << set.size()
              << "\nweight:   " << wg.total_weight(set) << " (centralized)\n";
    return 0;
  }

  // A CLI invocation is a one-cell scenario: one solver x one instance x
  // one width, run through the same batch engine as the exp* sweeps.
  const harness::SolverInfo& info = harness::solver(algo);
  harness::CorpusInstance inst{"cli", std::move(wg), params.alpha,
                               /*forest=*/false, weights == "unit", family};
  inst.forest = is_forest(inst.wg.graph());
  harness::ScenarioSpec spec;
  const int width = params.threads >= 0 ? params.threads : 1;
  params.threads = -1;
  spec.solvers.push_back({std::string(algo), params, std::string(algo)});
  spec.thread_widths = {width};
  spec.seeds = {seed};
  spec.skip_inapplicable = false;
  spec.validate = false;  // validated below with an explicit tolerance
  spec.base_config.seed = seed;
  spec.trace_out = trace_out;

  const std::vector<const harness::CorpusInstance*> instances = {&inst};
  std::vector<harness::ScenarioRow> rows;
  try {
    rows = harness::run_scenario(spec, instances);
  } catch (const CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const MdsResult& res = rows.front().result;

  res.validate(inst.wg, 1e-5);
  std::cout << "solver:          " << info.name << " (" << info.theorem
            << ", " << info.guarantee << ")\n"
            << "set size:        " << res.dominating_set.size() << "\n"
            << "weight:          " << res.weight << "\n"
            << "dual lower bnd:  " << res.packing_lower_bound << "\n";
  if (res.packing_lower_bound > 0)
    std::cout << "certified ratio: " << res.certified_ratio() << "\n";
  std::cout << "CONGEST rounds:  " << res.stats.rounds << "\n"
            << "messages:        " << res.stats.messages << "\n"
            << "max msg bits:    " << res.stats.max_message_bits << "\n";
  for (const PhaseStats& phase : res.stats.phases)
    std::cout << "  phase " << phase.name << ": " << phase.rounds
              << " rounds, " << phase.messages << " messages, "
              << phase.total_bits << " bits\n";
  const obs::TimingStats& timing = res.stats.timing;
  std::cout << "timing:          compute " << timing.compute_seconds
            << "s, flip " << timing.flip_seconds << "s, retransmit "
            << timing.retransmit_seconds << "s\n";
  if (!trace_out.empty())
    std::cout << "trace:           " << trace_out
              << " (open in Perfetto / chrome://tracing)\n";
  std::cout << "verified:        OK\n";
  return 0;
}
