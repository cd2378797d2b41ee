// Memory by stage: the resident set (VmRSS) and its high-water mark
// (VmHWM), read from /proc/self/status, after each stage of one cold
// solve: the graph generated (Barabasi-Albert BA(n, m), uniform weights
// in [1, 100]), its pseudoarboricity, the Network constructed, then a
// `det` solve on that Network at 4 threads. Each row also gives the
// resident bytes per undirected edge. The output is one markdown table,
// a measurement with no gate: the exit status is 0 unless the solve
// throws, or 2 (with the usage) for a malformed option.
//
//   mem_stages [--n N] [--smoke]
//
// The default is BA(10^6, 4); --smoke is the CI preset, n = 10^5. The
// high-water mark is the process's, never reset, so a row's VmHWM covers
// every stage up to and including it.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arboricity/pseudoarboricity.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "congest/network.hpp"
#include "gen/random_graphs.hpp"
#include "gen/weights.hpp"
#include "harness/registry.hpp"

using namespace arbods;

namespace {

// The kB value of one "Key:" line of /proc/self/status, or -1 where the
// file or the line is missing.
long long status_kib(const char* key) {
  std::ifstream is("/proc/self/status");
  const std::size_t len = std::strlen(key);
  for (std::string line; std::getline(is, line);)
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':')
      return std::atoll(line.c_str() + len + 1);
  return -1;
}

std::string mib(long long kib) {
  return kib < 0 ? "n/a" : Table::fmt(static_cast<double>(kib) / 1024.0, 1);
}

[[noreturn]] void usage() {
  std::cerr << "usage: mem_stages [--n N] [--smoke]\n";
  std::exit(2);
}

// A whole decimal node count in [2, kInvalidNode), else usage().
NodeId node_count(const std::string& s) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used);
  } catch (const std::exception&) {
    usage();
  }
  if (used != s.size() || s[0] == '-' || v < 2 || v >= kInvalidNode) usage();
  return static_cast<NodeId>(v);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr NodeId m = 4;
  constexpr int threads = 4;
  constexpr std::uint64_t seed = 1;
  NodeId n = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
      n = node_count(argv[++i]);
    } else if (!std::strcmp(argv[i], "--smoke")) {
      n = 100'000;
    } else {
      usage();
    }
  }

  Table table({"stage", "VmRSS MiB", "VmHWM MiB", "RSS B/edge"});
  std::size_t edges = 0;
  const auto note = [&](const std::string& stage) {
    const long long rss = status_kib("VmRSS");
    table.add_row({stage, mib(rss), mib(status_kib("VmHWM")),
                   rss < 0 || edges == 0
                       ? "n/a"
                       : Table::fmt(1024.0 * static_cast<double>(rss) /
                                        static_cast<double>(edges),
                                    1)});
  };

  Rng rng(seed);
  Graph g = gen::barabasi_albert(n, m, rng);
  std::vector<Weight> weights = gen::uniform_weights(n, 100, rng);
  const WeightedGraph wg(std::move(g), std::move(weights));
  edges = wg.graph().num_edges();
  note("graph");

  harness::SolverParams params;
  params.alpha = std::max<NodeId>(1, pseudoarboricity(wg.graph()));
  note("alpha");

  CongestConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  Network net(wg, cfg);
  note("construct");

  harness::run_solver_on("det", net, params);
  note("solve det");

  std::cout << "BA(" << n << ", " << m << "), " << edges << " edges, alpha "
            << params.alpha << ", " << threads << " threads\n\n";
  table.print(std::cout);
  return 0;
}
