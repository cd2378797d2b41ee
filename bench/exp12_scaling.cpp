// Experiment 12: simulator scaling — instance size x worker-pool width.
//
// A thin shell over the scenario batch runner (src/harness/scenario.hpp):
// the selected scaling-corpus instances x solvers x thread widths expand
// into one ScenarioSpec, run on pooled Networks (one Network per
// (instance, width), constructed once and reused across repeats), and
// the rows print as one JSON object per run on stdout (a JSON array),
// ready for plotting or CI artifact upload:
//
//   exp12_scaling [--sizes 10000,50000,100000] [--threads 1,2,4,8]
//                 [--solvers greedy-threshold] [--families tree,forest2,...]
//                 [--seed S] [--repeats N] [--smoke] [--trace-out PATH]
//
// Every (instance, solver) cell is run once per thread count on the SAME
// cached instance; the simulator guarantees bit-identical MdsResults for
// every width, which the scenario runner re-checks (`identical` field)
// so a sweep doubles as an end-to-end determinism audit at scale. With
// --repeats N a cell is run N extra times after an untimed warm-up run
// and the reported `seconds` is the median (every repeat is also
// determinism-checked), so checked-in baselines such as BENCH_exp12.json
// track the perf trajectory instead of scheduler noise. `--smoke` is the
// CI preset: one small instance, widths 1 and 4.
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

using namespace arbods;

namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

std::vector<int> split_ints(const std::string& csv) {
  std::vector<int> out;
  for (const std::string& s : split_list(csv)) out.push_back(std::stoi(s));
  return out;
}

[[noreturn]] void usage() {
  std::cerr << "usage: exp12_scaling [--sizes N1,N2,...] [--threads "
               "W1,W2,...]\n"
               "                     [--solvers name1,name2,...] [--families "
               "f1,f2,...]\n"
               "                     [--seed S] [--repeats N] [--smoke] "
               "[--trace-out PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes = {10'000, 50'000, 100'000};
  std::vector<int> threads = {1, 2, 4, 8};
  std::vector<std::string> solvers = {"greedy-threshold"};
  std::vector<std::string> families = {"tree", "forest2", "ba3"};
  std::uint64_t seed = 12345;
  int repeats = 1;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        usage();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--sizes")) sizes = split_ints(need("--sizes"));
    else if (!std::strcmp(argv[i], "--threads")) threads = split_ints(need("--threads"));
    else if (!std::strcmp(argv[i], "--solvers")) solvers = split_list(need("--solvers"));
    else if (!std::strcmp(argv[i], "--families")) families = split_list(need("--families"));
    else if (!std::strcmp(argv[i], "--seed")) seed = std::stoull(need("--seed"));
    else if (!std::strcmp(argv[i], "--repeats")) repeats = std::stoi(need("--repeats"));
    else if (!std::strcmp(argv[i], "--trace-out")) trace_out = need("--trace-out");
    else if (!std::strcmp(argv[i], "--smoke")) {
      sizes = {10'000};
      threads = {1, 4};
      families = {"forest2"};
    } else usage();
  }
  if (repeats < 1) repeats = 1;

  harness::ScenarioSpec spec;
  for (const std::string& name : solvers)
    spec.solvers.push_back({name, std::nullopt, name});
  spec.thread_widths = threads;
  spec.seeds = {seed};
  spec.repeats = repeats;
  spec.base_config.seed = seed;
  spec.trace_out = trace_out;
  // The JSON only reads scalar fields; don't hold one O(n) certificate
  // per row across a 500k-node sweep.
  spec.keep_certificates = false;

  std::vector<const harness::CorpusInstance*> instances;
  for (const auto& scaling_spec : harness::scaling_corpus()) {
    bool size_selected = false;
    for (int n : sizes) size_selected |= scaling_spec.n == static_cast<NodeId>(n);
    bool family_selected = false;
    for (const auto& f : families) family_selected |= f == scaling_spec.family;
    if (!size_selected || !family_selected) continue;
    instances.push_back(&harness::scaling_instance(scaling_spec, seed));
  }

  const auto rows = harness::run_scenario(spec, instances);
  harness::write_scenario_json(std::cout, rows);
  for (const auto& row : rows) {
    if (row.identical) continue;
    std::cerr << "DETERMINISM VIOLATION: " << row.instance << " / "
              << row.solver << " at threads=" << row.threads << "\n";
    return 1;
  }
  return 0;
}
