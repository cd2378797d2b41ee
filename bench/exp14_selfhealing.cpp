// Experiment 14: self-healing — raw solvers vs "<solver>+repair" vs
// reliable-transport runs across the exp13 fault ladder.
//
// Three columns per base solver:
//   raw        the registry solver as-is; under the heavy (killing)
//              level it may starve into a CheckError (failed=true) or a
//              round-limit hit — the casualty baseline.
//   +repair    the registry's repair variant: same solver, then the
//              O(1)-round post-kill re-cover (src/resilience/repair.*).
//              Its rows carry repair_rounds / repaired_nodes /
//              post_repair_weight (schema v5) and must stay failed=false
//              where the raw run died.
//   +rel       the base solver under config.reliable_transport=true
//              (src/resilience/reliable_channel.*) on the KILL-FREE
//              ladder (kills are crash-stop, out of the channel's
//              scope): exactly-once sender-ordered delivery makes the
//              solver's OUTPUT bit-identical to its clean run — this
//              driver hard-checks that, not just the cross-width
//              determinism audit.
//
//   exp14_selfhealing [--solvers name1,...] [--levels none,light,...]
//                     [--threads W1,...] [--seeds S1,...] [--repeats N]
//                     [--round-limit R] [--rel-round-limit R] [--smoke]
//                     [--trace-out PATH]
//
// stdout: one JSON object per row (the scenario schema, including
// hit_round_limit and the repair columns), ready for CI artifact upload.
// stderr: the per-(solver, level) envelope table. Exits 1 on a
// determinism violation or a reliable-run output mismatch.
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

/// exp13's escalation ladder, byte-for-byte — the two experiments must
/// measure the same adversary.
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
  std::cerr << "usage: exp14_selfhealing [--solvers name1,name2,...]\n"
               "                         [--levels none,light,moderate,heavy]\n"
               "                         [--threads W1,W2,...] [--seeds "
               "S1,S2,...]\n"
               "                         [--repeats N]\n"
               "                         [--round-limit R] "
               "[--rel-round-limit R]\n"
               "                         [--smoke] [--trace-out PATH]\n"
               "  --trace-out writes the raw sweep's trace to PATH and the\n"
               "  reliable-transport sweep's to PATH.rel\n";
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
  // Reliable transport trades rounds for delivery (every virtual round
  // costs at least one physical round plus retransmission tails), so its
  // sweep gets a budget that bounds runaway loss without clipping honest
  // recovery.
  std::int64_t rel_round_limit = 50000;
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
    else if (!std::strcmp(argv[i], "--rel-round-limit")) rel_round_limit = std::stoll(need("--rel-round-limit"));
    else if (!std::strcmp(argv[i], "--smoke")) smoke = true;
    else if (!std::strcmp(argv[i], "--trace-out")) trace_out = need("--trace-out");
    else usage();
  }
  if (repeats < 1) repeats = 1;
  if (smoke) {
    // CI preset, matching exp13's: small corpus, two solvers, the full
    // ladder, one seed — every column (raw casualty, repair recovery,
    // reliable bit-identity) exercised in seconds.
    solvers = {"det", "greedy-threshold"};
    threads = {1, 4};
  }

  std::vector<harness::CorpusInstance> corpus;
  if (smoke) {
    auto small = harness::small_corpus(seeds.front());
    for (std::size_t i = 0; i < small.size() && corpus.size() < 4; i += 3)
      corpus.push_back(std::move(small[i]));
  } else {
    corpus = harness::standard_corpus(/*weighted=*/true, seeds.front());
  }

  // Sweep A: raw and "+repair" registry solvers over the full ladder
  // (kills included — that is what repair is for).
  harness::ScenarioSpec raw_spec;
  for (const std::string& name : solvers) {
    raw_spec.solvers.push_back({name, std::nullopt, name});
    raw_spec.solvers.push_back(
        {name + "+repair", std::nullopt, name + "+repair"});
  }
  raw_spec.fault_levels.clear();
  for (const std::string& name : level_names)
    raw_spec.fault_levels.push_back(named_level(name));
  raw_spec.thread_widths = threads;
  raw_spec.seeds = seeds;
  raw_spec.repeats = repeats;
  raw_spec.base_config.round_limit = round_limit;
  raw_spec.tolerate_failures = true;
  raw_spec.keep_certificates = false;
  raw_spec.trace_out = trace_out;

  // Sweep B: base solvers under reliable transport, same ladder with the
  // kill dial zeroed (a crashed node retransmits nothing; the channel's
  // contract covers drop/duplicate/delay/reorder only).
  harness::ScenarioSpec rel_spec = raw_spec;
  rel_spec.solvers.clear();
  for (const std::string& name : solvers)
    rel_spec.solvers.push_back({name, std::nullopt, name + "+rel"});
  for (harness::ScenarioFault& level : rel_spec.fault_levels) {
    level.spec.kill_prob = 0.0;
    level.spec.kill_round = fault::FaultSpec{}.kill_round;
  }
  rel_spec.base_config.reliable_transport = true;
  rel_spec.base_config.round_limit = rel_round_limit;
  // Two sweeps cannot share one output file; the reliable leg (the one
  // with retransmit spans) gets a .rel sibling.
  rel_spec.trace_out = trace_out.empty() ? trace_out : trace_out + ".rel";

  std::vector<harness::ScenarioRow> rows = harness::run_scenario(raw_spec, corpus);
  {
    auto rel_rows = harness::run_scenario(rel_spec, corpus);
    rows.insert(rows.end(), std::make_move_iterator(rel_rows.begin()),
                std::make_move_iterator(rel_rows.end()));
  }
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
      clean[cell_key(row)] = {static_cast<double>(row.result.weight),
                              static_cast<double>(row.result.stats.rounds)};

  // One envelope row per (solver, fault level), aggregated over
  // instances, seeds, and widths.
  struct Envelope {
    double weight_ratio_sum = 0.0;
    double extra_rounds_sum = 0.0;
    int compared = 0;
    std::int64_t killed = 0, repair_rounds = 0, repaired = 0;
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
    env.killed += row.result.stats.killed;
    env.repair_rounds += row.result.repair_rounds;
    env.repaired += row.result.repaired_nodes;
    if (row.result.stats.hit_round_limit) ++env.limited;
    const auto it = clean.find(cell_key(row));
    if (it != clean.end() && it->second.first > 0.0) {
      env.weight_ratio_sum += static_cast<double>(row.result.weight) /
                              it->second.first;
      env.extra_rounds_sum +=
          static_cast<double>(row.result.stats.rounds) - it->second.second;
      ++env.compared;
    }
  }

  Table table({"solver", "fault", "cells", "weight_vs_clean", "extra_rounds",
               "killed", "repair_rounds", "repaired", "limited", "failed"});
  for (const auto& [key, env] : envelopes) {
    const double ratio =
        env.compared > 0 ? env.weight_ratio_sum / env.compared : 0.0;
    const double extra =
        env.compared > 0 ? env.extra_rounds_sum / env.compared : 0.0;
    table.add_row({key.first, key.second, Table::fmt_int(env.cells),
                   Table::fmt(ratio, 4), Table::fmt(extra, 1),
                   Table::fmt_int(env.killed),
                   Table::fmt_int(env.repair_rounds),
                   Table::fmt_int(env.repaired), Table::fmt_int(env.limited),
                   Table::fmt_int(env.failed)});
  }
  std::cerr << "\nExperiment 14: self-healing envelopes (weight_vs_clean = "
               "avg faulty/clean weight of the same cell; +rel rows must "
               "pin it at exactly 1)\n";
  table.print(std::cerr);

  int violations = 0;
  for (const auto& row : rows) {
    if (!row.identical) {
      std::cerr << "DETERMINISM VIOLATION: " << row.instance << " / "
                << row.solver << " / " << row.fault
                << " at threads=" << row.threads << "\n";
      ++violations;
    }
    // The reliable channel's whole contract: the solver's output under
    // faults is the clean output. Weight is a faithful proxy (the
    // determinism audit already pins the full result per level).
    if (row.solver.size() > 4 &&
        row.solver.compare(row.solver.size() - 4, 4, "+rel") == 0 &&
        row.fault != "none" && !row.failed) {
      const auto it = clean.find(cell_key(row));
      if (it != clean.end() &&
          static_cast<double>(row.result.weight) != it->second.first) {
        std::cerr << "RELIABLE OUTPUT MISMATCH: " << row.instance << " / "
                  << row.solver << " / " << row.fault
                  << " weight " << row.result.weight << " != clean "
                  << it->second.first << "\n";
        ++violations;
      }
    }
  }
  return violations > 0 ? 1 : 0;
}
