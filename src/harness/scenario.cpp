#include "harness/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <ostream>
#include <utility>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "harness/oracle.hpp"

namespace arbods::harness {

Network& NetworkPool::acquire(const WeightedGraph& wg,
                              const CongestConfig& config) {
  for (Entry& e : entries_)
    if (e.wg == &wg && e.config == config) return *e.net;
  entries_.push_back(Entry{&wg, config, std::make_unique<Network>(wg, config)});
  ++constructed_;
  return *entries_.back().net;
}

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_string(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

/// Explicit fixed 9-decimal seconds (nanosecond resolution): the stream
/// default of 6 significant digits collapses sub-millisecond rows into
/// indistinguishable values.
std::string json_fixed(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  return std::string(buf);
}

}  // namespace

std::vector<ScenarioRow> run_scenario(
    const ScenarioSpec& spec,
    std::span<const CorpusInstance* const> instances) {
  ARBODS_CHECK_MSG(!spec.solvers.empty(), "scenario has no solvers");
  ARBODS_CHECK_MSG(!spec.thread_widths.empty(), "scenario has no widths");
  ARBODS_CHECK_MSG(!spec.seeds.empty(), "scenario has no seeds");
  ARBODS_CHECK_MSG(!spec.fault_levels.empty(), "scenario has no fault levels");
  ARBODS_CHECK_MSG(spec.repeats >= 1, "repeats must be >= 1");

  // Observability defaults for the sweep: --trace-out turns span
  // recording on, and tolerate_failures arms the flight recorder (the
  // whole point of tolerating a failure is diagnosing it). Applied to a
  // copy — the caller's spec stays untouched.
  CongestConfig base_config = spec.base_config;
  if (!spec.trace_out.empty()) base_config.trace.enabled = true;
  if (spec.tolerate_failures && base_config.trace.flight_rounds == 0)
    base_config.trace.flight_rounds = 8;
  std::vector<obs::TraceGroup> trace_groups;

  std::vector<ScenarioRow> rows;
  for (const CorpusInstance* inst_ptr : instances) {
    ARBODS_CHECK(inst_ptr != nullptr);
    const CorpusInstance& inst = *inst_ptr;
    // Pool scope = one instance: every (width, seed) Network is reused
    // across all solvers and repeats on this graph, then released before
    // the next instance so a scaling sweep holds one instance's arenas.
    NetworkPool pool;
    for (const ScenarioSolver& scenario_solver : spec.solvers) {
      const SolverInfo& info = solver(scenario_solver.name);
      if (!solver_applicable(info, inst)) {
        ARBODS_CHECK_MSG(spec.skip_inapplicable,
                         "solver '" << info.name << "' requires a forest; '"
                                    << inst.name << "' is not one");
        continue;
      }
      SolverParams params =
          scenario_solver.params.value_or(params_for(info, inst));
      params.threads = -1;  // the width lives in the Network config
      // Validate once per cell, outside the timed repeat loop (the
      // forests_only check walks the whole graph; run_solver_on would
      // redo it per repeat inside the Stopwatch window).
      info.check_params(params);

      for (const std::uint64_t seed : spec.seeds) {
      for (const ScenarioFault& level : spec.fault_levels) {
        // One reference per (instance, solver, seed, fault level): every
        // width and every repeat must reproduce it bit-for-bit — a sweep
        // doubles as an end-to-end determinism audit, for faulty cells
        // exactly as for clean ones.
        MdsResult reference;
        bool have_reference = false;

        for (const int width : spec.thread_widths) {
          CongestConfig cfg = base_config;
          cfg.seed = seed;
          cfg.threads = width;
          cfg.fault = level.spec;
          Network& net = pool.acquire(inst.wg, cfg);

          bool identical = true;
          bool failed = false;
          std::vector<obs::FlightRecord> last_rounds;
          MdsResult res;
          std::vector<double> samples;
          std::vector<RunStats> sample_stats;  // parallel to samples
          samples.reserve(static_cast<std::size_t>(spec.repeats));
          sample_stats.reserve(static_cast<std::size_t>(spec.repeats));
          const int total_runs =
              spec.repeats > 1 ? spec.repeats + 1 : spec.repeats;
          for (int rep = 0; rep < total_runs; ++rep) {
            Stopwatch timer;
            MdsResult run;
            if (spec.tolerate_failures) {
              try {
                run = info.run_on(net, params);
              } catch (const CheckError&) {
                // The solver's invariants broke under this fault level;
                // record the casualty — with the flight recorder's
                // last-rounds context — and keep sweeping. The pooled
                // Network is safe to reuse: every run starts from
                // reset_for_reuse.
                failed = true;
                last_rounds = net.flight_records();
                if (!last_rounds.empty()) {
                  std::string why = "solver '";
                  why += scenario_solver.name;
                  why += "' threw CheckError on '";
                  why += inst.name;
                  why += "'";
                  net.dump_flight_recorder(std::cerr, why);
                }
                break;
              }
            } else {
              run = info.run_on(net, params);
            }
            const double seconds = timer.elapsed_seconds();
            const bool warmup = spec.repeats > 1 && rep == 0;
            if (!warmup) {
              samples.push_back(seconds);
              sample_stats.push_back(run.stats);
            }
            if (!have_reference) {
              reference = run;
              have_reference = true;
            } else {
              identical &= run == reference;
            }
            res = std::move(run);
          }
          if (failed) {
            res = MdsResult{};
            samples.clear();
            identical = true;  // excluded from the audit
          } else if (!samples.empty()) {
            // The row's timing breakdown describes the repeat whose wall
            // clock is the reported median, not whichever ran last.
            res.stats = std::move(sample_stats[median_index(samples)]);
          }
          // Round-limited rows get the same context as failed ones: the
          // final run's last rounds show what the phase was doing when
          // the budget ran out.
          if (!failed && res.stats.hit_round_limit)
            last_rounds = net.flight_records();
          if (spec.validate && !failed) res.validate(inst.wg, 1e-5);
          if (!spec.keep_certificates) {
            res.packing.clear();
            res.packing.shrink_to_fit();
          }
          const double seconds = median_of(samples);

          ScenarioRow row;
          row.instance = inst.name;
          row.family = inst.family;
          row.n = inst.wg.num_nodes();
          row.m = inst.wg.graph().num_edges();
          row.solver = scenario_solver.label.empty() ? scenario_solver.name
                                                     : scenario_solver.label;
          row.threads = width;
          row.seed = seed;
          row.fault =
              level.label.empty() ? fault::fault_label(level.spec) : level.label;
          row.repeats = spec.repeats;
          row.seconds = seconds;
          row.result = std::move(res);
          row.identical = identical;
          row.failed = failed;
          row.last_rounds = std::move(last_rounds);
          // One trace group per cell: the recorder holds the FINAL
          // repeat's spans (reset_for_reuse clears it at each run start).
          if (!spec.trace_out.empty() && net.tracer() != nullptr) {
            obs::TraceGroup group;
            group.label = inst.name + " · " + row.solver +
                          " · t" + std::to_string(width) + " seed" +
                          std::to_string(seed);
            if (row.fault != "none") group.label += " · " + row.fault;
            group.events = net.tracer()->snapshot();
            if (!group.events.empty())
              trace_groups.push_back(std::move(group));
          }
          rows.push_back(std::move(row));
        }
      }
      }
    }
  }
  if (!spec.trace_out.empty()) {
    std::ofstream out(spec.trace_out);
    ARBODS_CHECK_MSG(out.good(),
                     "cannot open trace output '" << spec.trace_out << "'");
    obs::write_chrome_json(out, trace_groups);
  }
  return rows;
}

std::vector<ScenarioRow> run_scenario(
    const ScenarioSpec& spec, const std::vector<CorpusInstance>& instances) {
  std::vector<const CorpusInstance*> ptrs;
  ptrs.reserve(instances.size());
  for (const CorpusInstance& inst : instances) ptrs.push_back(&inst);
  return run_scenario(spec, ptrs);
}

bool all_identical(std::span<const ScenarioRow> rows) {
  for (const ScenarioRow& row : rows)
    if (!row.identical) return false;
  return true;
}

std::size_t median_index(std::span<const double> samples) {
  ARBODS_CHECK(!samples.empty());
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto mid = order.begin() +
                   static_cast<std::ptrdiff_t>((samples.size() - 1) / 2);
  std::nth_element(order.begin(), mid, order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return samples[a] < samples[b];
                   });
  return *mid;
}

double median_of(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t half = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[half];
  return 0.5 * (samples[half - 1] + samples[half]);
}

void write_scenario_json(std::ostream& os, std::span<const ScenarioRow> rows) {
  os << "[\n";
  bool first = true;
  for (const ScenarioRow& row : rows) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"schema_version\": " << kScenarioJsonSchemaVersion
       << ", \"instance\": " << json_string(row.instance)
       << ", \"family\": " << json_string(row.family)
       << ", \"n\": " << row.n << ", \"m\": " << row.m
       << ", \"solver\": " << json_string(row.solver)
       << ", \"threads\": " << row.threads
       << ", \"seed\": " << row.seed
       << ", \"fault\": " << json_string(row.fault)
       << ", \"seconds\": " << json_fixed(row.seconds)
       << ", \"repeats\": " << row.repeats
       << ", \"rounds\": " << row.result.stats.rounds
       << ", \"messages\": " << row.result.stats.messages
       << ", \"total_bits\": " << row.result.stats.total_bits
       << ", \"set_size\": " << row.result.dominating_set.size()
       << ", \"weight\": " << row.result.weight
       << ", \"dropped\": " << row.result.stats.dropped
       << ", \"duplicated\": " << row.result.stats.duplicated
       << ", \"delayed\": " << row.result.stats.delayed
       << ", \"killed\": " << row.result.stats.killed
       << ", \"hit_round_limit\": "
       << (row.result.stats.hit_round_limit ? "true" : "false")
       << ", \"repair_rounds\": " << row.result.repair_rounds
       << ", \"repaired_nodes\": " << row.result.repaired_nodes
       << ", \"post_repair_weight\": " << row.result.post_repair_weight
       << ", \"compute_seconds\": "
       << json_fixed(row.result.stats.timing.compute_seconds)
       << ", \"flip_seconds\": "
       << json_fixed(row.result.stats.timing.flip_seconds)
       << ", \"retransmit_seconds\": "
       << json_fixed(row.result.stats.timing.retransmit_seconds)
       << ", \"identical\": " << (row.identical ? "true" : "false")
       << ", \"failed\": " << (row.failed ? "true" : "false")
       << ", \"last_rounds\": [";
    for (std::size_t i = 0; i < row.last_rounds.size(); ++i) {
      const obs::FlightRecord& r = row.last_rounds[i];
      if (i > 0) os << ", ";
      os << "{\"round\": " << r.round << ", \"active\": " << r.active
         << ", \"delivered\": " << r.delivered << ", \"bits\": " << r.bits
         << ", \"dropped\": " << r.dropped
         << ", \"duplicated\": " << r.duplicated
         << ", \"delayed\": " << r.delayed << ", \"killed\": " << r.killed
         << "}";
    }
    os << "]}";
  }
  os << "\n]\n";
}

}  // namespace arbods::harness
