// Experiment 13: robustness envelopes — solver quality and round cost
// under escalating adversarial fault levels.
//
// A thin shell over the scenario batch runner's fault axis
// (src/harness/scenario.hpp + src/fault/): the selected corpus x solvers
// x named fault levels expand into one ScenarioSpec whose rows carry the
// four fault counters (dropped / duplicated / delayed / killed), and the
// sweep doubles as a determinism audit — a faulty run promises
// bit-identical results across every thread width, which the runner
// re-checks per cell.
//
//   exp13_robustness [--solvers name1,...] [--levels none,light,...]
//                    [--threads W1,...] [--seeds S1,...] [--repeats N]
//                    [--round-limit R] [--smoke] [--trace-out PATH]
//
// stdout: one JSON object per row (the scenario schema — seed, fault
// label, fault counters, failed flag), ready for CI artifact upload and the
// tools/compare_bench.py gate. stderr: the per-(solver, level) envelope
// table — average weight inflation and extra rounds versus that solver's
// clean ("none") cells, the summed fault counters, and the number of
// cells whose solver died under the fault load (tolerate_failures keeps
// the sweep alive and marks them failed=true instead of aborting).
// Exits 1 on a determinism violation.
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fault/fault_spec.hpp"
#include "harness/corpus.hpp"
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

std::vector<std::uint64_t> split_u64s(const std::string& csv) {
  std::vector<std::uint64_t> out;
  for (const std::string& s : split_list(csv)) out.push_back(std::stoull(s));
  return out;
}

/// The named escalation ladder. Levels are cumulative in spirit (heavier
/// levels raise every dial), so the envelope reads as one curve per
/// solver.
harness::ScenarioFault named_level(const std::string& name) {
  harness::ScenarioFault level;
  level.label = name;
  fault::FaultSpec& s = level.spec;
  if (name == "none") return level;
  if (name == "light") {
    s.drop_prob = 0.01;
    s.duplicate_prob = 0.01;
    s.delay_prob = 0.05;
    s.max_delay_rounds = 2;
    return level;
  }
  if (name == "moderate") {
    s.drop_prob = 0.05;
    s.duplicate_prob = 0.05;
    s.delay_prob = 0.2;
    s.max_delay_rounds = 3;
    s.reorder_prob = 0.1;
    return level;
  }
  if (name == "heavy") {
    s.drop_prob = 0.15;
    s.duplicate_prob = 0.1;
    s.delay_prob = 0.3;
    s.max_delay_rounds = 4;
    s.reorder_prob = 0.2;
    s.kill_prob = 0.05;
    s.kill_round = 3;
    return level;
  }
  std::cerr << "unknown fault level '" << name
            << "' (known: none, light, moderate, heavy)\n";
  std::exit(2);
}

[[noreturn]] void usage() {
  std::cerr << "usage: exp13_robustness [--solvers name1,name2,...]\n"
               "                        [--levels none,light,moderate,heavy]\n"
               "                        [--threads W1,W2,...] [--seeds "
               "S1,S2,...]\n"
               "                        [--repeats N]\n"
               "                        [--round-limit R] [--smoke] "
               "[--trace-out PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> solvers = {"det", "randomized", "greedy-threshold"};
  std::vector<std::string> level_names = {"none", "light", "moderate",
                                          "heavy"};
  std::vector<int> threads = {1, 4};
  std::vector<std::uint64_t> seeds = {12345};
  int repeats = 1;
  std::int64_t round_limit = 2000;
  bool smoke = false;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        usage();
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--solvers")) solvers = split_list(need("--solvers"));
    else if (!std::strcmp(argv[i], "--levels")) level_names = split_list(need("--levels"));
    else if (!std::strcmp(argv[i], "--threads")) threads = split_ints(need("--threads"));
    else if (!std::strcmp(argv[i], "--seeds")) seeds = split_u64s(need("--seeds"));
    else if (!std::strcmp(argv[i], "--repeats")) repeats = std::stoi(need("--repeats"));
    else if (!std::strcmp(argv[i], "--round-limit")) round_limit = std::stoll(need("--round-limit"));
    else if (!std::strcmp(argv[i], "--smoke")) smoke = true;
    else if (!std::strcmp(argv[i], "--trace-out")) trace_out = need("--trace-out");
    else usage();
  }
  if (repeats < 1) repeats = 1;
  if (smoke) {
    // CI preset: small corpus, two solvers, the full level ladder, one
    // seed — enough to exercise every counter at two widths in seconds.
    solvers = {"det", "greedy-threshold"};
    threads = {1, 4};
  }

  harness::ScenarioSpec spec;
  for (const std::string& name : solvers)
    spec.solvers.push_back({name, std::nullopt, name});
  spec.fault_levels.clear();
  for (const std::string& name : level_names)
    spec.fault_levels.push_back(named_level(name));
  spec.thread_widths = threads;
  spec.seeds = seeds;
  spec.repeats = repeats;
  // A starved solver must terminate (via PhaseStats::hit_round_limit)
  // rather than spin, and may die on a violated invariant — both are
  // data points of the envelope, not sweep aborts.
  spec.base_config.round_limit = round_limit;
  spec.tolerate_failures = true;
  spec.keep_certificates = false;
  spec.trace_out = trace_out;

  std::vector<harness::CorpusInstance> corpus;
  if (smoke) {
    auto small = harness::small_corpus(seeds.front());
    for (std::size_t i = 0; i < small.size() && corpus.size() < 4; i += 3)
      corpus.push_back(std::move(small[i]));
  } else {
    corpus = harness::standard_corpus(/*weighted=*/true, seeds.front());
  }

  const auto rows = harness::run_scenario(spec, corpus);
  harness::write_scenario_json(std::cout, rows);

  // Clean-twin lookup: the "none" weight/rounds of the same
  // (instance, solver, seed, threads) cell.
  std::map<std::string, std::pair<double, double>> clean;
  auto cell_key = [](const harness::ScenarioRow& row) {
    std::ostringstream key;
    key << row.instance << '\x1f' << row.solver << '\x1f' << row.seed
        << '\x1f' << row.threads;
    return key.str();
  };
  for (const auto& row : rows)
    if (row.fault == "none" && !row.failed)
      clean[cell_key(row)] = {row.result.weight,
                              static_cast<double>(row.result.stats.rounds)};

  // One envelope row per (solver, fault level), aggregated over
  // instances, seeds, and widths.
  struct Envelope {
    double weight_ratio_sum = 0.0;
    double extra_rounds_sum = 0.0;
    int compared = 0;
    std::int64_t dropped = 0, duplicated = 0, delayed = 0, killed = 0;
    int cells = 0, failed = 0, limited = 0;
  };
  std::map<std::pair<std::string, std::string>, Envelope> envelopes;
  for (const auto& row : rows) {
    Envelope& env = envelopes[{row.solver, row.fault}];
    ++env.cells;
    if (row.failed) {
      ++env.failed;
      continue;
    }
    env.dropped += row.result.stats.dropped;
    env.duplicated += row.result.stats.duplicated;
    env.delayed += row.result.stats.delayed;
    env.killed += row.result.stats.killed;
    if (row.result.stats.hit_round_limit) ++env.limited;
    const auto it = clean.find(cell_key(row));
    if (it != clean.end() && it->second.first > 0.0) {
      env.weight_ratio_sum += row.result.weight / it->second.first;
      env.extra_rounds_sum +=
          static_cast<double>(row.result.stats.rounds) - it->second.second;
      ++env.compared;
    }
  }

  Table table({"solver", "fault", "cells", "weight_vs_clean", "extra_rounds",
               "dropped", "duplicated", "delayed", "killed", "limited",
               "failed"});
  for (const auto& [key, env] : envelopes) {
    const double ratio =
        env.compared > 0 ? env.weight_ratio_sum / env.compared : 0.0;
    const double extra =
        env.compared > 0 ? env.extra_rounds_sum / env.compared : 0.0;
    table.add_row({key.first, key.second, Table::fmt_int(env.cells), Table::fmt(ratio, 4),
                   Table::fmt(extra, 1), Table::fmt_int(env.dropped),
                   Table::fmt_int(env.duplicated), Table::fmt_int(env.delayed),
                   Table::fmt_int(env.killed), Table::fmt_int(env.limited),
                   Table::fmt_int(env.failed)});
  }
  std::cerr << "\nExperiment 13: robustness envelopes (weight_vs_clean = "
               "avg faulty/clean weight of the same cell)\n";
  table.print(std::cerr);

  for (const auto& row : rows) {
    if (row.identical) continue;
    std::cerr << "DETERMINISM VIOLATION: " << row.instance << " / "
              << row.solver << " / " << row.fault
              << " at threads=" << row.threads << "\n";
    return 1;
  }
  return 0;
}
