// Solver registry: stable string names for every one-call driver in
// core/solvers.hpp, with parameter schemas and analytic approximation
// bounds. Tests, benches, and the CLI enumerate solvers through this
// table instead of hand-rolled per-file lists, so adding a solver is a
// one-line registration and every harness picks it up.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "congest/network.hpp"
#include "core/mds_result.hpp"
#include "graph/weighted_graph.hpp"

namespace arbods::harness {

/// The union of every driver's tunables; each solver reads only the
/// fields its schema declares (see SolverInfo::schema).
struct SolverParams {
  NodeId alpha = 1;      // arboricity / out-degree promise (>= 1)
  double eps = 0.25;     // slack, in (0, 1)
  std::int64_t t = 2;    // Theorem 1.2 round/quality trade-off (>= 1)
  int k = 2;             // Theorem 1.3 round/quality trade-off (>= 1)
  /// Simulator worker-pool width: > 0 explicit, 0 = all hardware
  /// threads, -1 = inherit CongestConfig::threads (the default). Results
  /// are bit-identical for every width.
  int threads = -1;
};

/// Which SolverParams fields a solver consumes. `threads` is consumed by
/// every solver (they all run on the simulator), so it has no flag here.
struct ParamSchema {
  bool alpha = false;
  bool eps = false;
  bool t = false;
  bool k = false;
};

struct SolverInfo {
  std::string_view name;       // stable registry key, e.g. "det"
  std::string_view theorem;    // paper reference, e.g. "Theorem 1.1"
  std::string_view guarantee;  // human-readable approximation guarantee
  ParamSchema schema;
  bool randomized = false;          // uses per-node randomness
  bool forests_only = false;        // defined only on forests
  bool bound_needs_unit_weights = false;  // guarantee stated for w == 1

  /// Throws CheckError when the fields the schema declares are out of
  /// range (other fields are ignored).
  void (*check_params)(const SolverParams&);

  /// Analytic approximation factor for this instance/parameter choice.
  /// For randomized solvers this is the expectation-level bound inflated
  /// by a fixed slack so fixed-seed regression runs stay under it.
  double (*approx_bound)(const WeightedGraph&, const SolverParams&);

  /// Runs the driver's phase list on the caller's Network (which fixes
  /// the graph, seed, and worker-pool width; SolverParams::threads is
  /// ignored here). The Network is reset and reused — this is the entry
  /// the scenario batch runner pools Networks through.
  MdsResult (*run_on)(Network&, const SolverParams&);
};

/// All registered solvers, in theorem order. Deliberately excludes the
/// self-healing variants so exhaustive clean/fault sweeps keep their
/// cost; see repair_solvers().
std::span<const SolverInfo> all_solvers();

/// The "<solver>+repair" self-healing variants (src/resilience/repair.hpp):
/// the base driver followed by the O(1)-round post-kill repair protocol,
/// with MdsResult's repair columns filled in. find_solver()/solver()
/// resolve these names too.
std::span<const SolverInfo> repair_solvers();

/// Registered names, in theorem order.
std::vector<std::string_view> solver_names();

/// Lookup; nullptr when unknown.
const SolverInfo* find_solver(std::string_view name);

/// Lookup; throws CheckError naming the known solvers when unknown.
const SolverInfo& solver(std::string_view name);

/// Convenience: look up, validate params, construct a Network (honoring
/// params.threads), run.
MdsResult run_solver(std::string_view name, const WeightedGraph& wg,
                     const SolverParams& params = {},
                     const CongestConfig& config = {});

/// Convenience: look up, validate params, run on the caller's (reused)
/// Network. params.threads must be -1 — the width is fixed by the
/// Network's own config.
MdsResult run_solver_on(std::string_view name, Network& net,
                        const SolverParams& params = {});

}  // namespace arbods::harness
