// perfbench: the repository benchmark driver. It times arbods end to end
// (set-up, cold solve, warm 1- and 4-thread solves) and layer by layer
// (graph read, arboricity, Network construction, per-phase compute/flip,
// faults, retransmission, validation) on fixed workloads, and gates every
// solve on correctness. NOTES.md beside this file says why each workload
// exists and which end-to-end metric each layer metric moves.
//
//   perfbench gen    --workload W --seed S --out FILE [--n N]
//   perfbench run    --workload W --seed S --file FILE --seconds T
//                    [--trace-out TRACE.json] [--corrupt]
//   perfbench direct --workload W --seed S --file FILE
//
// `gen` writes the workload's weighted graph; `run` only ever sees that
// file. `run` prints human-readable tables on stderr and, as the last
// line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace-out the per-layer
// metrics of a traced run (whose Chrome trace JSON it writes). `direct`
// prints the exact counts of a plain harness::run_solver solve of the
// file, which the self-test compares against `run`. --corrupt drops one
// member from one solve's result, so the self-test can watch the gate
// count it as failed. Exit status: 0 when every solve passed its gate,
// 1 when any failed, 2 on bad usage or input.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arboricity/pseudoarboricity.hpp"
#include "common/check.hpp"
#include "common/random.hpp"
#include "fault/faulty_network.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/random_graphs.hpp"
#include "gen/weights.hpp"
#include "graph/io.hpp"
#include "graph/transform.hpp"
#include "harness/registry.hpp"
#include "obs/trace.hpp"

using namespace arbods;

namespace {

// ---------------------------------------------------------------- workloads

using Solvers = std::vector<std::string_view>;

struct Workload {
  std::string_view name;
  std::string_view family;  // "ba3" (Barabasi-Albert, m = 3) or "forest2"
  NodeId n;
  Solvers solvers;
  // > 0: the traced run also measures the fault and resilience layers on
  // the induced subgraph of nodes [0, lossy_prefix).
  NodeId lossy_prefix;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"ba3-det", "ba3", 100'000, {"det"}, 2'000},
      {"forest2-paper", "forest2", 50'000,
       {"det", "randomized", "unknown-alpha"}, 0},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

const Solvers kLossySolvers = {"det"};

// Every (solver, phase) pair any run measures, with '+' spelled '-'. The
// per-layer metric set is the same on every workload (0 where a phase
// does not run), so it is fixed here; a phase outside this list is an
// error, which keeps the list complete when a solver changes its phases.
const std::vector<std::string>& phase_keys() {
  static const std::vector<std::string> kKeys = {
      "det.partial_ds",
      "det.completion",
      "randomized.partial_ds",
      "randomized.extension",
      "unknown-alpha.be_orientation",
      "unknown-alpha.adaptive_mds",
      "det.partial_ds-rel",
      "det.completion-rel",
  };
  return kKeys;
}

std::string phase_key(std::string_view solver, std::string_view phase) {
  std::string key = std::string(solver) + "." + std::string(phase);
  std::replace(key.begin(), key.end(), '+', '-');
  ARBODS_CHECK_MSG(std::find(phase_keys().begin(), phase_keys().end(), key) !=
                       phase_keys().end(),
                   "phase " << key << " is missing from phase_keys()");
  return key;
}

constexpr int kWide = 4;  // the "4t" width, capped at the core count

int wide_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(kWide, hw > 0 ? hw : 1));
}

// No shard, pin, auto-replan or trace knob: those stay at their defaults
// in every timed run, so removing them later is measured against this.
// `lossy` adds the moderate level of the exp13/exp14 fault ladder with
// reliable transport.
CongestConfig make_config(std::uint64_t seed, int threads, bool lossy = false) {
  CongestConfig c;
  c.seed = mix64(seed ^ 0x7065'7266'6265'6e63ULL);
  c.threads = threads;
  if (lossy) {
    c.fault.drop_prob = 0.05;
    c.fault.duplicate_prob = 0.05;
    c.fault.delay_prob = 0.2;
    c.fault.max_delay_rounds = 3;
    c.fault.reorder_prob = 0.1;
    c.fault.fault_seed = mix64(seed ^ 0xfa17'5eedULL);
    c.reliable_transport = true;
    c.round_limit = 50'000;  // a safety stop; a healthy run is far below
  }
  return c;
}

harness::SolverParams make_params(NodeId alpha) {
  harness::SolverParams p;
  p.alpha = std::max<NodeId>(1, alpha);
  p.eps = 0.25;
  return p;
}

// ------------------------------------------------------------------- timing

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

// CPU time of the whole process (every thread), in seconds. Time the
// host takes a vCPU away (steal) is not counted, unlike wall time.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Every layer call the driver makes is a span (name, start, end, parent).
// The spans time the end-to-end metrics and, on a traced run, become the
// per-layer self-time table and the driver's rows of the Chrome trace.
struct Span {
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

class Timeline {
 public:
  int open(std::string name) {
    spans_.push_back({std::move(name), obs::monotonic_ns(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = obs::monotonic_ns();
    current_ = s.parent;
    return seconds_between(s.begin_ns, s.end_ns);
  }
  // A closed child span of the open one, for callers that time
  // back-to-back steps with one clock read per boundary.
  void add(std::string name, std::int64_t begin_ns, std::int64_t end_ns) {
    spans_.push_back({std::move(name), begin_ns, end_ns, current_});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

// RAII span; close() ends it early and returns its length in seconds.
class Scope {
 public:
  Scope(Timeline& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
  ~Scope() {
    if (id_ >= 0) t_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  double close() {
    const double s = t_.close(id_);
    id_ = -1;
    return s;
  }

 private:
  Timeline& t_;
  int id_;
};

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_table(std::ostream& os, const std::string& title,
                 const std::vector<Metric>& metrics) {
  os << "\n" << title << "\n";
  for (const Metric& m : metrics)
    os << "  " << std::left << std::setw(44) << m.name << std::right
       << std::setw(18) << std::setprecision(6) << m.value << "  " << m.unit
       << "\n";
}

void print_result_line(std::int64_t attempted, std::int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// -------------------------------------------------------------- correctness

// Applies the correctness gate to solves and counts them. A solve fails
// when validate() rejects it, when it differs from the first solve of the
// same solver (bit-identity across widths and Networks), when a lossy
// solve's output differs from the clean solve of the same graph, when it
// hit a round limit or used a fallback path, or when a primal-dual solver
// breaks its approximation bound.
class Gate {
 public:
  Gate(Solvers solvers, const harness::SolverParams& params)
      : solvers_(std::move(solvers)), params_(params) {}

  void set_references(const std::vector<MdsResult>& refs) { refs_ = refs; }
  void set_clean(const std::vector<MdsResult>& clean) { clean_ = clean; }

  /// Counts every solve of `results` (one per solver) on `wg`.
  void check(const std::vector<MdsResult>& results, const WeightedGraph& wg,
             std::string_view where) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++attempted_;
      const std::string why = violation(i, results[i], wg);
      if (why.empty()) continue;
      ++failed_;
      std::cerr << "FAILED " << solvers_[i] << " (" << where << "): " << why
                << "\n";
    }
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::string violation(std::size_t i, const MdsResult& r,
                        const WeightedGraph& wg) {
    try {
      r.validate(wg);
    } catch (const CheckError& e) {
      return std::string("validate: ") + e.what();
    }
    if (r.stats.hit_round_limit) return "hit the round limit";
    if (r.used_fallback) return "used the fallback path";
    if (i < refs_.size() && !(r == refs_[i]))
      return "differs from the first solve (widths must be bit-identical)";
    if (i < clean_.size()) {
      const MdsResult& c = clean_[i];
      if (r.dominating_set != c.dominating_set || r.weight != c.weight ||
          r.packing != c.packing || r.iterations != c.iterations)
        return "lossy output differs from the clean solve of the same graph";
    }
    const std::string_view name = solvers_[i];
    if (name == "det" || name == "unknown-alpha") {
      if (r.packing_lower_bound <= 0.0) return "no packing certificate";
      bounds_.resize(solvers_.size(), -1.0);
      // Evaluated once and outside timed regions: unknown-alpha's bound
      // runs pseudoarboricity itself.
      if (bounds_[i] < 0.0)
        bounds_[i] = harness::solver(name).approx_bound(wg, params_);
      if (r.certified_ratio() > bounds_[i]) {
        std::ostringstream os;
        os << "certified ratio " << r.certified_ratio() << " > bound "
           << bounds_[i];
        return os.str();
      }
    }
    return {};
  }

  Solvers solvers_;
  harness::SolverParams params_;
  std::vector<MdsResult> refs_;
  std::vector<MdsResult> clean_;
  std::vector<double> bounds_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ------------------------------------------------------------------- passes

// One registry solve. A solver that throws yields an empty result, which
// the gate then counts as failed.
MdsResult solve(Network& net, std::string_view name,
                const harness::SolverParams& params) {
  try {
    return harness::solver(name).run_on(net, params);
  } catch (const CheckError& e) {
    std::cerr << "solver " << name << " threw: " << e.what() << "\n";
    return {};
  }
}

// One solve pass: every solver once, on `net`.
struct Pass {
  std::vector<MdsResult> results;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

Pass solve_pass(Timeline& tl, Network& net, const Solvers& solvers,
                const harness::SolverParams& params, const std::string& tag) {
  Pass pass;
  const double cpu0 = process_cpu_s();
  Scope all(tl, "solve_pass@" + tag);
  for (std::string_view name : solvers) {
    Scope s(tl, "solve:" + std::string(name) + "@" + tag);
    pass.results.push_back(solve(net, name, params));
  }
  pass.seconds = all.close();
  pass.cpu_seconds = process_cpu_s() - cpu0;
  return pass;
}

struct PhaseTiming {
  double compute = 0.0;
  double flip = 0.0;
  double retransmit = 0.0;
};

// Per phase key, one timing sample per pass.
using PhaseSamples = std::map<std::string, std::vector<PhaseTiming>>;

// Adds one pass's per-phase timing; returns the pass's summed timing.
PhaseTiming add_phase_samples(PhaseSamples& out, const Solvers& solvers,
                              const Pass& pass) {
  std::map<std::string, PhaseTiming> per_key;
  PhaseTiming sum;
  for (std::size_t i = 0; i < pass.results.size(); ++i)
    for (const PhaseStats& ph : pass.results[i].stats.phases) {
      PhaseTiming& t = per_key[phase_key(solvers[i], ph.name)];
      t.compute += ph.timing.compute_seconds;
      t.flip += ph.timing.flip_seconds;
      t.retransmit += ph.timing.retransmit_seconds;
      sum.compute += ph.timing.compute_seconds;
      sum.flip += ph.timing.flip_seconds;
      sum.retransmit += ph.timing.retransmit_seconds;
    }
  for (const auto& [key, t] : per_key) out[key].push_back(t);
  return sum;
}

double median_of(const PhaseSamples& s, const std::string& key,
                 double PhaseTiming::*field) {
  const auto it = s.find(key);
  if (it == s.end()) return 0.0;
  std::vector<double> xs;
  for (const PhaseTiming& t : it->second) xs.push_back(t.*field);
  return median(xs);
}

struct Counts {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t delayed = 0;
  double certified_ratio = 0.0;  // max over the results with a packing
};

Counts count(const std::vector<MdsResult>& results) {
  Counts c;
  for (const MdsResult& r : results) {
    c.rounds += r.stats.rounds;
    c.messages += r.stats.messages;
    c.dropped += r.stats.dropped;
    c.duplicated += r.stats.duplicated;
    c.delayed += r.stats.delayed;
    if (r.packing_lower_bound > 0.0)
      c.certified_ratio = std::max(c.certified_ratio, r.certified_ratio());
  }
  return c;
}

std::unique_ptr<WeightedGraph> read_file(const std::string& path) {
  std::ifstream is(path);
  ARBODS_CHECK_MSG(is.good(), "cannot open " << path);
  return std::make_unique<WeightedGraph>(read_weighted_graph(is));
}

// ----------------------------------------------------- lossy (traced only)

// The fault and resilience layers, measured in a traced run: `det` under
// moderate faults with reliable transport, on the induced subgraph of
// nodes [0, prefix). For a BA graph that prefix is itself a BA(m=3) graph,
// since BA numbers nodes in arrival order. 1t and 4t passes alternate
// like the warm passes; every output must equal the clean solve's.
struct LossyRun {
  std::vector<MdsResult> refs;  // the first lossy solve of each solver
  Counts lossy;
  Counts clean;
  std::vector<double> retransmit_4t;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

constexpr int kLossyRepeats = 3;

LossyRun measure_lossy(Timeline& tl, const WeightedGraph& wg, NodeId prefix,
                       std::uint64_t seed, int wide, PhaseSamples& samples1,
                       PhaseSamples& samples4) {
  Scope span(tl, "lossy");
  std::vector<NodeId> nodes(std::min(prefix, wg.num_nodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  Subgraph sub = induced_subgraph(wg.graph(), nodes);
  std::vector<Weight> weights;
  for (NodeId v : sub.to_original) weights.push_back(wg.weight(v));
  const WeightedGraph sg(std::move(sub.graph), std::move(weights));
  const harness::SolverParams params =
      make_params(pseudoarboricity(sg.graph()));

  LossyRun out;
  Gate gate(kLossySolvers, params);
  const auto clean_net = fault::make_network(sg, make_config(seed, 1));
  const Pass clean = solve_pass(tl, *clean_net, kLossySolvers, params, "clean");
  gate.check(clean.results, sg, "clean");
  gate.set_clean(clean.results);
  out.clean = count(clean.results);

  const auto net1 = fault::make_network(sg, make_config(seed, 1, true));
  const auto net4 = fault::make_network(sg, make_config(seed, wide, true));
  const Pass first = solve_pass(tl, *net4, kLossySolvers, params, "lossy-4t-first");
  gate.set_references(first.results);
  gate.check(first.results, sg, "lossy 4t first");
  gate.check(solve_pass(tl, *net1, kLossySolvers, params, "lossy-1t-first").results,
             sg, "lossy 1t first");
  out.refs = first.results;
  out.lossy = count(first.results);
  for (int r = 0; r < kLossyRepeats; ++r)
    for (int k = 0; k < 2; ++k) {
      const bool one = (r + k) % 2 == 0;
      const Pass pass = solve_pass(tl, one ? *net1 : *net4, kLossySolvers,
                                   params, one ? "lossy-1t" : "lossy-4t");
      const PhaseTiming sum = add_phase_samples(one ? samples1 : samples4,
                                                kLossySolvers, pass);
      if (!one) out.retransmit_4t.push_back(sum.retransmit);
      gate.check(pass.results, sg, one ? "lossy 1t" : "lossy 4t");
    }
  out.attempted = gate.attempted();
  out.failed = gate.failed();
  return out;
}

// ------------------------------------------------------------- subcommands

struct Args {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  std::string file;
  std::string out;
  std::string trace_out;
  double seconds = 10.0;
  NodeId n = 0;
  bool corrupt = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench gen    --workload W --seed S --out FILE "
               "[--n N]\n"
               "       perfbench run    --workload W --seed S --file FILE "
               "--seconds T [--trace-out PATH] [--corrupt]\n"
               "       perfbench direct --workload W --seed S --file FILE\n"
               "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

int cmd_gen(const Workload& w, const Args& a) {
  const NodeId n = a.n > 0 ? a.n : w.n;
  Rng rng(a.seed);
  Graph g = w.family == "ba3" ? gen::barabasi_albert(n, 3, rng)
                              : gen::k_tree_union(n, 2, rng);
  std::vector<Weight> weights = gen::uniform_weights(n, 100, rng);
  const WeightedGraph wg(std::move(g), std::move(weights));
  std::ofstream os(a.out);
  ARBODS_CHECK_MSG(os.good(), "cannot open " << a.out << " for writing");
  write_weighted_graph(os, wg);
  os.close();
  ARBODS_CHECK_MSG(os.good(), "write to " << a.out << " failed");
  return 0;
}

int cmd_direct(const Workload& w, const Args& a) {
  const auto wg = read_file(a.file);
  const harness::SolverParams params = make_params(pseudoarboricity(wg->graph()));
  std::vector<MdsResult> results;
  for (std::string_view name : w.solvers)
    results.push_back(
        harness::run_solver(name, *wg, params, make_config(a.seed, 1)));
  const Counts c = count(results);
  std::cout << std::setprecision(17) << "{\"alpha\": " << params.alpha
            << ", \"rounds\": " << c.rounds << ", \"messages\": " << c.messages
            << ", \"certified_ratio\": " << c.certified_ratio << "}"
            << std::endl;
  return 0;
}

constexpr int kColdPasses = 5;
constexpr int kSetupWarmups = 4;
constexpr double kSetupWarmupBudgetS = 2.0;
constexpr int kMinWarmRepeats = 3;
constexpr int kTracedPasses = 2;

int cmd_run(const Workload& w, const Args& a) {
  Timeline tl;
  const bool traced = !a.trace_out.empty();
  const int wide = wide_threads();
  const CongestConfig cfg1 = make_config(a.seed, 1);
  const CongestConfig cfg4 = make_config(a.seed, wide);
  const std::int64_t run_begin = obs::monotonic_ns();

  // Set-up pass: read + alpha + construct at 4t. Cold pass: a set-up
  // pass, then one solve pass on that fresh 4t Network, then validation.
  // The last cold pass's graph and Network stay on as the pooled 4t
  // Network of the warm passes.
  std::unique_ptr<WeightedGraph> wg;
  std::unique_ptr<Network> net4;
  std::unique_ptr<Gate> gate;
  harness::SolverParams params;
  NodeId alpha = 0;
  std::vector<double> setup_s, cold_s, read_s, alpha_s, construct_s,
      first_solve_s, validate_s;
  std::vector<MdsResult> refs;
  double peak_rss_cold_mb = 0.0;
  auto setup_pass = [&](bool record) {
    Scope setup(tl, record ? "setup" : "setup-warmup");
    const std::int64_t t0 = obs::monotonic_ns();
    wg = read_file(a.file);
    const std::int64_t t1 = obs::monotonic_ns();
    alpha = pseudoarboricity(wg->graph());
    const std::int64_t t2 = obs::monotonic_ns();
    net4 = fault::make_network(*wg, cfg4);
    const std::int64_t t3 = obs::monotonic_ns();
    if (!record) return seconds_between(t0, t3);
    tl.add("graph.read", t0, t1);
    tl.add("arboricity.alpha", t1, t2);
    tl.add("congest.construct", t2, t3);
    read_s.push_back(seconds_between(t0, t1));
    alpha_s.push_back(seconds_between(t1, t2));
    construct_s.push_back(seconds_between(t2, t3));
    setup_s.push_back(seconds_between(t0, t3));
    return setup_s.back();
  };
  // The first set-ups of a process run slower while glibc malloc adapts
  // its mmap threshold (freed large blocks move later ones onto the
  // reused heap). Untimed set-up passes (within a budget) absorb most of
  // that, and the median over the cold passes' set-ups the rest.
  double warmup_spent = 0.0;
  for (int c = 0; c < kSetupWarmups && warmup_spent < kSetupWarmupBudgetS; ++c) {
    net4.reset();  // one 4t Network alive at a time, destroyed untimed
    wg.reset();
    warmup_spent += setup_pass(false);
  }
  for (int c = 0; c < kColdPasses; ++c) {
    net4.reset();
    wg.reset();
    Scope cold_span(tl, "cold_pass");
    setup_pass(true);
    params = make_params(alpha);
    Pass pass = solve_pass(tl, *net4, w.solvers, params, "4t-first");
    first_solve_s.push_back(pass.seconds);
    {
      Scope s(tl, "core.validate");
      for (const MdsResult& r : pass.results) {
        try {
          r.validate(*wg);
        } catch (const CheckError&) {
          // Counted by the gate below.
        }
      }
      validate_s.push_back(s.close());
    }
    cold_s.push_back(cold_span.close());
    // Peak memory of one solve as a user runs it (read, alpha, construct,
    // solve, validate). Later passes keep a second Network and old heap
    // blocks alive, and how glibc reuses those varies from run to run.
    if (c == 0) peak_rss_cold_mb = peak_rss_mb();
    // The gate (which re-validates) runs after the timed pass.
    if (!gate) {
      refs = pass.results;
      gate = std::make_unique<Gate>(w.solvers, params);
      gate->set_references(refs);
    }
    gate->check(pass.results, *wg, "cold 4t");
  }

  PhaseSamples phases1, phases4;
  LossyRun lossy;
  if (traced && w.lossy_prefix > 0)
    lossy = measure_lossy(tl, *wg, w.lossy_prefix, a.seed, wide, phases1,
                          phases4);

  // Warm passes on one pooled Network per width. The widths alternate
  // inside every repeat (1t4t, then 4t1t, ...) so host drift hits both.
  const std::unique_ptr<Network> net1 = fault::make_network(*wg, cfg1);
  gate->check(solve_pass(tl, *net1, w.solvers, params, "1t-warmup").results,
              *wg, "1t warm-up");
  std::vector<double> solve1, solve4, cpu4, unaccounted4;
  bool corrupted = false;
  for (int r = 0;; ++r) {
    const std::int64_t repeat_begin = obs::monotonic_ns();
    for (int k = 0; k < 2; ++k) {
      const bool one = (r + k) % 2 == 0;
      Pass pass = solve_pass(tl, one ? *net1 : *net4, w.solvers, params,
                             one ? "1t" : "4t");
      (one ? solve1 : solve4).push_back(pass.seconds);
      if (!one) cpu4.push_back(pass.cpu_seconds);
      const PhaseTiming sum =
          add_phase_samples(one ? phases1 : phases4, w.solvers, pass);
      // The wall time no phase's compute or flip covers (retransmit is a
      // sub-interval of compute, so it is not subtracted).
      if (!one) unaccounted4.push_back(pass.seconds - sum.compute - sum.flip);
      if (a.corrupt && !one && !corrupted &&
          !pass.results[0].dominating_set.empty()) {
        pass.results[0].dominating_set.pop_back();
        corrupted = true;
      }
      gate->check(pass.results, *wg, one ? "warm 1t" : "warm 4t");
    }
    // Stop before a repeat as long as the last one would overrun
    // --seconds; a traced run also keeps room for its traced passes.
    const std::int64_t now = obs::monotonic_ns();
    const double elapsed = seconds_between(run_begin, now);
    const double last = seconds_between(repeat_begin, now);
    const double reserve = traced ? (1 + kTracedPasses) * solve4.back() : 0.0;
    if (r + 1 >= kMinWarmRepeats && elapsed + last + reserve > a.seconds) break;
  }

  // End-to-end metrics (never traced). The wall-clock solve and cold
  // times, and their 1t/4t ratio, move with the shared host's steal by
  // more than any gate bound allows (see NOTES.md), so they are reported
  // with the per-layer metrics; the gated set keeps what one run can
  // measure steadily, and the solve's cost is its CPU time.
  const double s1 = median(solve1), s4 = median(solve4);
  const Counts counts = count(refs);
  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"solve_cpu_s", median(cpu4), "s"},
      {"peak_rss_mb", peak_rss_cold_mb, "MB"},
      {"rounds", static_cast<double>(counts.rounds), "count"},
      {"messages", static_cast<double>(counts.messages), "count"},
      {"certified_ratio", counts.certified_ratio, "ratio"},
  };
  const std::vector<Metric> timings = {
      {"harness.cold_s", median(cold_s), "s"},
      {"harness.solve_1t_s", s1, "s"},
      {"harness.solve_4t_s", s4, "s"},
      {"harness.speedup_4t", s1 / s4, "ratio"},
  };
  std::ostringstream title;
  title << "perfbench " << w.name << " seed=" << a.seed
        << " n=" << wg->num_nodes() << " m=" << wg->graph().num_edges()
        << " 4t=" << wide << " threads, warm repeats=" << solve1.size()
        << ", cold passes=" << kColdPasses;
  print_table(std::cerr, title.str() + " — end to end", e2e);
  print_table(std::cerr, "solve timings (reported, not gated)", timings);
  auto samples = [](const char* name, const std::vector<double>& v) {
    std::cerr << "  " << std::left << std::setw(14) << name << std::right;
    for (double x : v) std::cerr << " " << std::setprecision(4) << x;
    std::cerr << "\n";
  };
  std::cerr << "samples (s)\n";
  samples("setup", setup_s);
  samples("cold", cold_s);
  samples("solve_1t", solve1);
  samples("solve_4t", solve4);
  samples("cpu_4t", cpu4);
  const std::int64_t attempted = gate->attempted() + lossy.attempted;
  const std::int64_t failed = gate->failed() + lossy.failed;
  std::cerr << "  fail_rate " << std::setprecision(6)
            << static_cast<double>(failed) /
                   static_cast<double>(std::max<std::int64_t>(1, attempted))
            << " (failed/attempted = " << failed << "/" << attempted << ")\n";

  if (!traced) {
    print_result_line(attempted, failed, e2e);
    return failed == 0 ? 0 : 1;
  }

  // Traced run: the same 4t pass on a Network with the span recorder on,
  // after one untimed warm-up pass. Its Chrome trace holds the driver's
  // spans plus the simulator's spans of the last pass, one group per
  // solver (the Network clears its recorder at every solve).
  std::vector<obs::TraceGroup> groups(1);
  groups[0].label = "perfbench driver";
  std::vector<double> traced4;
  {
    CongestConfig cfg_t = cfg4;
    cfg_t.trace.enabled = true;
    const auto net_t = fault::make_network(*wg, cfg_t);
    gate->check(solve_pass(tl, *net_t, w.solvers, params, "4t-traced-warmup")
                    .results,
                *wg, "traced 4t warm-up");
    for (int p = 0; p < kTracedPasses; ++p) {
      // The pass time sums the solves only: the snapshot between solves
      // (the next solve clears the recorder) is not part of the pass.
      Pass pass;
      Scope all(tl, "solve_pass@4t-traced");
      for (std::string_view name : w.solvers) {
        Scope s(tl, "solve:" + std::string(name) + "@4t-traced");
        pass.results.push_back(solve(*net_t, name, params));
        pass.seconds += s.close();
        if (p + 1 == kTracedPasses)
          groups.push_back({std::string(name) + " @4t traced",
                            net_t->tracer()->snapshot()});
      }
      traced4.push_back(pass.seconds);
      gate->check(pass.results, *wg, "traced 4t");
    }
  }

  // Per-layer metrics.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> phase_counts;
  for (std::size_t i = 0; i < refs.size(); ++i)
    for (const PhaseStats& ph : refs[i].stats.phases) {
      auto& c = phase_counts[phase_key(w.solvers[i], ph.name)];
      c.first += ph.rounds;
      c.second += ph.messages;
    }
  for (std::size_t i = 0; i < lossy.refs.size(); ++i)
    for (const PhaseStats& ph : lossy.refs[i].stats.phases) {
      auto& c = phase_counts[phase_key(kLossySolvers[i], ph.name)];
      c.first += ph.rounds;
      c.second += ph.messages;
    }
  const bool has_lossy = lossy.clean.rounds > 0;
  std::vector<Metric> layers = timings;
  layers.insert(layers.end(), {
      {"graph.read_s", median(read_s), "s"},
      {"arboricity.alpha_s", median(alpha_s), "s"},
      {"arboricity.alpha", static_cast<double>(alpha), "count"},
      {"congest.construct_s", median(construct_s), "s"},
      {"congest.arena_mb",
       16.0 * static_cast<double>(net4->arena_words()) / (1024.0 * 1024.0), "MB"},
      {"congest.warmup_s", median(first_solve_s) - s4, "s"},
      {"congest.msgs_per_s", static_cast<double>(counts.messages) / s4, "1/s"},
      {"congest.round_ms", 1e3 * s4 / static_cast<double>(counts.rounds), "ms"},
      {"congest.unaccounted_4t_s", median(unaccounted4), "s"},
      {"fault.dropped", static_cast<double>(lossy.lossy.dropped), "count"},
      {"fault.duplicated", static_cast<double>(lossy.lossy.duplicated), "count"},
      {"fault.delayed", static_cast<double>(lossy.lossy.delayed), "count"},
      {"resilience.retransmit_s", median(lossy.retransmit_4t), "s"},
      {"resilience.round_inflation",
       has_lossy ? static_cast<double>(lossy.lossy.rounds) /
                       static_cast<double>(lossy.clean.rounds)
                 : 0.0,
       "ratio"},
      {"resilience.goodput",
       has_lossy ? static_cast<double>(lossy.clean.messages) /
                       static_cast<double>(lossy.lossy.messages)
                 : 0.0,
       "ratio"},
      {"core.validate_s", median(validate_s), "s"},
      {"obs.trace_overhead", median(traced4) / s4, "ratio"},
  });
  for (const std::string& key : phase_keys()) {
    const auto c = phase_counts[key];
    const double c1 = median_of(phases1, key, &PhaseTiming::compute);
    const double c4 = median_of(phases4, key, &PhaseTiming::compute);
    const double f1 = median_of(phases1, key, &PhaseTiming::flip);
    const double f4 = median_of(phases4, key, &PhaseTiming::flip);
    layers.push_back({key + ".rounds", static_cast<double>(c.first), "count"});
    layers.push_back({key + ".messages", static_cast<double>(c.second), "count"});
    layers.push_back({key + ".compute_1t_s", c1, "s"});
    layers.push_back({key + ".compute_4t_s", c4, "s"});
    layers.push_back({key + ".flip_4t_s", f4, "s"});
    layers.push_back({key + ".speedup_4t",
                      c4 + f4 > 0.0 ? (c1 + f1) / (c4 + f4) : 0.0, "ratio"});
  }
  print_table(std::cerr, "per layer (traced run)", layers);

  // Self time per span name = span length minus the part its children cover.
  struct SelfRow {
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  const std::vector<Span>& spans = tl.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.begin_ns, s.end_ns);
  std::map<std::string, SelfRow> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfRow& row = self[spans[i].name];
    const double len = seconds_between(spans[i].begin_ns, spans[i].end_ns);
    ++row.count;
    row.total += len;
    row.self += len - child_s[i];
  }
  std::cerr << "\nspan self time (span minus children), seconds\n  "
            << std::left << std::setw(36) << "span" << std::right
            << std::setw(7) << "count" << std::setw(12) << "total"
            << std::setw(12) << "self" << "\n";
  for (const auto& [name, row] : self)
    std::cerr << "  " << std::left << std::setw(36) << name << std::right
              << std::setw(7) << row.count << std::setw(12)
              << std::setprecision(4) << row.total << std::setw(12)
              << row.self << "\n";
  std::cerr << "  obs.trace_overhead = " << median(traced4) / s4
            << " (traced / untraced solve_4t_s)\n";

  for (const Span& s : spans)
    groups[0].events.push_back({s.name, s.begin_ns - run_begin,
                                s.end_ns - s.begin_ns, 0, 0, -1});
  std::ofstream os(a.trace_out);
  ARBODS_CHECK_MSG(os.good(), "cannot open " << a.trace_out << " for writing");
  obs::write_chrome_json(os, groups);
  os.close();
  ARBODS_CHECK_MSG(os.good(), "write to " << a.trace_out << " failed");
  std::cerr << "  trace written to " << a.trace_out << "\n";

  const std::int64_t failed_all = gate->failed() + lossy.failed;
  print_result_line(gate->attempted() + lossy.attempted, failed_all, layers);
  return failed_all == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") a.workload = value();
      else if (flag == "--seed") a.seed = std::stoull(value());
      else if (flag == "--file") a.file = value();
      else if (flag == "--out") a.out = value();
      else if (flag == "--trace-out") a.trace_out = value();
      else if (flag == "--seconds") a.seconds = std::stod(value());
      else if (flag == "--n") a.n = static_cast<NodeId>(std::stoul(value()));
      else if (flag == "--corrupt") a.corrupt = true;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage("unknown workload '" + a.workload + "'");
  try {
    if (a.cmd == "gen" && !a.out.empty()) return cmd_gen(*w, a);
    if (a.cmd == "run" && !a.file.empty()) return cmd_run(*w, a);
    if (a.cmd == "direct" && !a.file.empty()) return cmd_direct(*w, a);
  } catch (const CheckError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  usage("bad subcommand or missing --out/--file");
}
