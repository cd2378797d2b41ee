#include "harness/registry.hpp"

#include <array>
#include <cmath>
#include <sstream>

#include "arboricity/pseudoarboricity.hpp"
#include "common/check.hpp"
#include "core/solvers.hpp"
#include "graph/stats.hpp"
#include "resilience/repair.hpp"

namespace arbods::harness {

namespace {

void check_alpha(const SolverParams& p) {
  ARBODS_CHECK_MSG(p.alpha >= 1, "alpha must be >= 1, got " << p.alpha);
}

void check_eps(const SolverParams& p) {
  ARBODS_CHECK_MSG(p.eps > 0.0 && p.eps < 1.0,
                   "eps must be in (0, 1), got " << p.eps);
}

void check_alpha_eps(const SolverParams& p) {
  check_alpha(p);
  check_eps(p);
}

void check_alpha_t(const SolverParams& p) {
  check_alpha(p);
  ARBODS_CHECK_MSG(p.t >= 1, "t must be >= 1, got " << p.t);
}

void check_k(const SolverParams& p) {
  ARBODS_CHECK_MSG(p.k >= 1, "k must be >= 1, got " << p.k);
}

void check_nothing(const SolverParams&) {}

double deterministic_bound(const WeightedGraph&, const SolverParams& p) {
  return (2.0 * static_cast<double>(p.alpha) + 1.0) * (1.0 + p.eps);
}

// Theorem 1.2 bounds E[weight] by alpha + O(alpha / t) + O(1). The
// per-run slack keeps fixed-seed regression runs under the bound while
// still separating the randomized factor (~alpha) from the deterministic
// one (~2 alpha) for large alpha.
double randomized_bound(const WeightedGraph&, const SolverParams& p) {
  const double a = static_cast<double>(p.alpha);
  return 2.0 * (a + a / static_cast<double>(p.t)) + 3.0;
}

// Theorem 1.3: O(k Delta^{2/k}). Constant calibrated against the exact
// optimum on the small corpus (fixed seeds).
double general_bound(const WeightedGraph& wg, const SolverParams& p) {
  const double delta =
      std::max<double>(1.0, static_cast<double>(wg.graph().max_degree()));
  return 2.0 * static_cast<double>(p.k) *
             std::pow(delta, 2.0 / static_cast<double>(p.k)) +
         3.0;
}

// Remark 4.5: alpha is not promised, so the guarantee is in terms of the
// instance's true pseudoarboricity; the doubling orientation prologue may
// settle on an out-degree up to twice that, hence the factor 2.
double unknown_alpha_bound(const WeightedGraph& wg, const SolverParams& p) {
  const double a =
      std::max<double>(1.0, static_cast<double>(pseudoarboricity(wg.graph())));
  return (4.0 * a + 1.0) * (1.0 + p.eps);
}

// Observation A.1: every-internal-node is a 3-approximation on forests
// with unit weights.
double tree_bound(const WeightedGraph&, const SolverParams&) { return 3.0; }

// LW10-shape baseline: each of the O(log Delta) phases adds O(alpha)*OPT
// nodes on arboricity-alpha graphs with unit weights. Constant calibrated
// against the exact optimum on the small corpus (fixed seeds).
double greedy_threshold_bound(const WeightedGraph& wg, const SolverParams& p) {
  const double delta =
      std::max<double>(1.0, static_cast<double>(wg.graph().max_degree()));
  const double phases = std::log2(delta) + 2.0;
  return 2.0 * (2.0 * static_cast<double>(p.alpha) + 1.0) * phases + 3.0;
}

// The election heuristic has no worst-case guarantee; on unit weights any
// dominating set trivially costs at most n <= n * OPT.
double greedy_election_bound(const WeightedGraph& wg, const SolverParams&) {
  return std::max<double>(1.0, static_cast<double>(wg.num_nodes()));
}

MdsResult run_det(Network& net, const SolverParams& p) {
  return solve_mds_deterministic(net, p.alpha, p.eps);
}

MdsResult run_unweighted(Network& net, const SolverParams& p) {
  return solve_mds_unweighted(net, p.alpha, p.eps);
}

MdsResult run_randomized(Network& net, const SolverParams& p) {
  return solve_mds_randomized(net, p.alpha, p.t);
}

MdsResult run_general(Network& net, const SolverParams& p) {
  return solve_mds_general(net, p.k);
}

MdsResult run_unknown_delta(Network& net, const SolverParams& p) {
  return solve_mds_unknown_delta(net, p.alpha, p.eps);
}

MdsResult run_unknown_alpha(Network& net, const SolverParams& p) {
  return solve_mds_unknown_alpha(net, p.eps);
}

MdsResult run_tree(Network& net, const SolverParams&) {
  return solve_mds_tree(net);
}

MdsResult run_greedy_threshold(Network& net, const SolverParams&) {
  return solve_mds_greedy_threshold(net);
}

MdsResult run_greedy_election(Network& net, const SolverParams&) {
  return solve_mds_greedy_election(net);
}

// Self-healing wrapper behind every "<solver>+repair" variant: run the
// base driver (a solver starved by crash-stop kills terminates via the
// round budget's CheckError — then the base set is empty), then run the
// O(1)-round repair protocol from whatever the base produced. The
// repaired set replaces the result set/weight; packing and iterations
// stay the base solver's (empty/zero when it starved). Judged by the
// surviving-subgraph oracle, not the clean-run certificate checks.
MdsResult run_with_repair(Network& net, const SolverParams& p,
                          MdsResult (*base)(Network&, const SolverParams&)) {
  MdsResult res;
  try {
    res = base(net, p);
  } catch (const CheckError&) {
    res = MdsResult{};
  }
  const resilience::RepairOutcome out =
      resilience::run_repair(net, res.dominating_set);
  res.dominating_set = out.repaired_set;
  res.weight = out.post_weight;
  res.post_repair_weight = out.post_weight;
  res.repair_rounds = out.repair_rounds;
  res.repaired_nodes = out.repaired_nodes;
  res.stats = net.stats();
  return res;
}

MdsResult run_det_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_det);
}
MdsResult run_unweighted_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_unweighted);
}
MdsResult run_randomized_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_randomized);
}
MdsResult run_general_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_general);
}
MdsResult run_unknown_delta_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_unknown_delta);
}
MdsResult run_unknown_alpha_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_unknown_alpha);
}
MdsResult run_tree_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_tree);
}
MdsResult run_greedy_threshold_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_greedy_threshold);
}
MdsResult run_greedy_election_repair(Network& net, const SolverParams& p) {
  return run_with_repair(net, p, run_greedy_election);
}

constexpr std::array<SolverInfo, 9> kSolvers{{
    {"det", "Theorem 1.1", "(2a+1)(1+eps)",
     {.alpha = true, .eps = true}, false, false, false,
     check_alpha_eps, deterministic_bound, run_det},
    {"unweighted", "Theorem 3.1", "(2a+1)(1+eps), unit weights",
     {.alpha = true, .eps = true}, false, false, true,
     check_alpha_eps, deterministic_bound, run_unweighted},
    {"randomized", "Theorem 1.2", "a + O(a/t) in expectation",
     {.alpha = true, .t = true}, true, false, false,
     check_alpha_t, randomized_bound, run_randomized},
    {"general", "Theorem 1.3", "O(k Delta^{2/k})",
     {.k = true}, true, false, false,
     check_k, general_bound, run_general},
    {"unknown-delta", "Remark 4.4", "(2a+1)(1+eps), Delta unknown",
     {.alpha = true, .eps = true}, false, false, false,
     check_alpha_eps, deterministic_bound, run_unknown_delta},
    {"unknown-alpha", "Remark 4.5", "(2a+1)(1+eps), alpha unknown",
     {.eps = true}, false, false, false,
     check_eps, unknown_alpha_bound, run_unknown_alpha},
    {"tree", "Observation A.1", "3 on forests, unit weights",
     {}, false, true, true,
     check_nothing, tree_bound, run_tree},
    {"greedy-threshold", "LW10 baseline", "O(a log Delta), unit weights",
     {.alpha = true}, false, false, true,
     check_alpha, greedy_threshold_bound, run_greedy_threshold},
    {"greedy-election", "LW10 baseline", "heuristic, no worst-case bound",
     {}, false, false, true,
     check_nothing, greedy_election_bound, run_greedy_election},
}};

// The self-healing variants, one per base solver, same schemas and
// bounds (the guarantee text applies to the pre-kill computation; the
// repaired set is judged by the surviving-subgraph oracle). A separate
// table so exhaustive all_solvers() sweeps in the clean/fault suites
// keep their cost; the lookup functions search both.
constexpr std::array<SolverInfo, 9> kRepairSolvers{{
    {"det+repair", "Theorem 1.1", "(2a+1)(1+eps), then post-kill repair",
     {.alpha = true, .eps = true}, false, false, false,
     check_alpha_eps, deterministic_bound, run_det_repair},
    {"unweighted+repair", "Theorem 3.1",
     "(2a+1)(1+eps), unit weights, then post-kill repair",
     {.alpha = true, .eps = true}, false, false, true,
     check_alpha_eps, deterministic_bound, run_unweighted_repair},
    {"randomized+repair", "Theorem 1.2",
     "a + O(a/t) in expectation, then post-kill repair",
     {.alpha = true, .t = true}, true, false, false,
     check_alpha_t, randomized_bound, run_randomized_repair},
    {"general+repair", "Theorem 1.3",
     "O(k Delta^{2/k}), then post-kill repair",
     {.k = true}, true, false, false,
     check_k, general_bound, run_general_repair},
    {"unknown-delta+repair", "Remark 4.4",
     "(2a+1)(1+eps), Delta unknown, then post-kill repair",
     {.alpha = true, .eps = true}, false, false, false,
     check_alpha_eps, deterministic_bound, run_unknown_delta_repair},
    {"unknown-alpha+repair", "Remark 4.5",
     "(2a+1)(1+eps), alpha unknown, then post-kill repair",
     {.eps = true}, false, false, false,
     check_eps, unknown_alpha_bound, run_unknown_alpha_repair},
    {"tree+repair", "Observation A.1",
     "3 on forests, unit weights, then post-kill repair",
     {}, false, true, true,
     check_nothing, tree_bound, run_tree_repair},
    {"greedy-threshold+repair", "LW10 baseline",
     "O(a log Delta), unit weights, then post-kill repair",
     {.alpha = true}, false, false, true,
     check_alpha, greedy_threshold_bound, run_greedy_threshold_repair},
    {"greedy-election+repair", "LW10 baseline",
     "heuristic, then post-kill repair",
     {}, false, false, true,
     check_nothing, greedy_election_bound, run_greedy_election_repair},
}};

}  // namespace

std::span<const SolverInfo> all_solvers() { return kSolvers; }

std::span<const SolverInfo> repair_solvers() { return kRepairSolvers; }

std::vector<std::string_view> solver_names() {
  std::vector<std::string_view> names;
  names.reserve(kSolvers.size());
  for (const auto& s : kSolvers) names.push_back(s.name);
  return names;
}

const SolverInfo* find_solver(std::string_view name) {
  for (const auto& s : kSolvers)
    if (s.name == name) return &s;
  for (const auto& s : kRepairSolvers)
    if (s.name == name) return &s;
  return nullptr;
}

const SolverInfo& solver(std::string_view name) {
  const SolverInfo* s = find_solver(name);
  if (s == nullptr) {
    std::ostringstream os;
    os << "unknown solver '" << name << "'; known:";
    for (const auto& info : kSolvers) os << " " << info.name;
    for (const auto& info : kRepairSolvers) os << " " << info.name;
    throw CheckError(os.str());
  }
  return *s;
}

MdsResult run_solver(std::string_view name, const WeightedGraph& wg,
                     const SolverParams& params, const CongestConfig& config) {
  const SolverInfo& info = solver(name);
  ARBODS_CHECK_MSG(params.threads >= -1,
                   "threads must be >= -1 (-1 = inherit, 0 = hardware), got "
                       << params.threads);
  info.check_params(params);
  if (info.forests_only) {
    ARBODS_CHECK_MSG(is_forest(wg.graph()),
                     "solver '" << name << "' requires a forest");
  }
  CongestConfig cfg = config;
  if (params.threads >= 0) cfg.threads = params.threads;
  Network net(wg, cfg);
  return info.run_on(net, params);
}

MdsResult run_solver_on(std::string_view name, Network& net,
                        const SolverParams& params) {
  const SolverInfo& info = solver(name);
  ARBODS_CHECK_MSG(params.threads == -1,
                   "run_solver_on: the worker-pool width is fixed by the "
                   "Network's config; leave params.threads at -1");
  info.check_params(params);
  if (info.forests_only) {
    ARBODS_CHECK_MSG(is_forest(net.graph()),
                     "solver '" << name << "' requires a forest");
  }
  return info.run_on(net, params);
}

}  // namespace arbods::harness
