// FaultPlan: the fully elaborated adversary a Network executes.
//
// A plan is the rich form of a FaultSpec: uniform per-record
// probabilities plus optional per-arc drop/duplicate overrides (indexed
// by receiver-side CSR arc, the Network's record indexing) and an explicit
// node-kill schedule keyed by round.
// make_fault_plan derives one from a spec — sampling the kill set with a
// pure hash of (fault_seed, node) — or a test/bench builds one directly
// to target specific arcs and nodes.
//
// Execution. A Network built with an enabled() plan has no broadcast
// slots: send and broadcast encode the record once (CONGEST cap check and
// bit accounting exactly as on the clean path — the sender paid for the
// slot even if the adversary eats it), and every per-arc copy then draws
// its decisions from a pure hash of (plan.seed, receiver-side arc, round,
// per-arc record index):
//   * dead sender -> suppressed (`killed`); drop -> discarded (`dropped`);
//   * duplicate -> a second copy with independent draws (`duplicated`);
//   * bounded delay d in [1, max_delay_rounds] (`delayed`);
//   * reorder -> diverted to a uniformly random in-arc of the same
//     receiver (the record keeps its true sender id, so only its inbox
//     position — the sender-sorted arrival order — changes);
//   * a copy arriving at a receiver dead by then -> suppressed (`killed`).
// An undisturbed copy (d == 0, original arc) goes straight onto the
// calling worker's record list, the clean point-to-point path. Disturbed
// copies park in the worker's holding wheel and are appended at the flip
// of their arrival round, sorted by (arc, send round, origin arc, record
// index, copy) — a unique total order — in a section of their own, so
// they land behind the round's direct records on their arc.
//
// Determinism contract: every decision is a pure hash — no RNG state,
// no iteration order — so a fixed plan produces bit-identical results,
// delivery traces, and fault counters at every worker-pool width
// (tested in tests/fault_test.cpp against every registry solver).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "fault/fault_spec.hpp"
#include "graph/graph.hpp"

namespace arbods::fault {

/// Crash-stop kill: from `round` on, `node` sends nothing and receives
/// nothing (in-flight records to it are suppressed on arrival).
struct KillEvent {
  NodeId node = 0;
  std::int64_t round = 0;

  friend bool operator==(const KillEvent&, const KillEvent&) = default;
};

struct FaultPlan {
  /// Seed of every fault decision hash.
  std::uint64_t seed = FaultSpec{}.fault_seed;
  /// Uniform per-record probabilities (see FaultSpec for semantics).
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  int max_delay_rounds = 0;
  double reorder_prob = 0.0;
  /// Per-arc overrides, indexed by receiver-side CSR arc; empty = use the
  /// uniform probability for every arc. When non-empty the size must be
  /// the arc count (2m) of the graph the Network runs on.
  std::vector<double> arc_drop;
  std::vector<double> arc_duplicate;
  /// Explicit kill schedule (a node listed twice dies at the earlier
  /// round).
  std::vector<KillEvent> kills;

  bool enabled() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 ||
           (delay_prob > 0.0 && max_delay_rounds > 0) || reorder_prob > 0.0 ||
           !arc_drop.empty() || !arc_duplicate.empty() || !kills.empty();
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Elaborates a FaultSpec into a plan for `g`: uniform probabilities are
/// copied, and each node joins the kill schedule (at spec.kill_round)
/// with independent probability kill_prob, decided by a pure hash of
/// (fault_seed, node). Throws CheckError on out-of-range probabilities.
FaultPlan make_fault_plan(const Graph& g, const FaultSpec& spec);

/// Validates `plan` against `g` (probabilities in [0, 1], per-arc vector
/// sizes, kill targets in range); throws CheckError on violation.
void validate_fault_plan(const Graph& g, const FaultPlan& plan);

/// Compact human-readable summary of a spec ("none" when inert, else
/// e.g. "drop=0.1,dup=0.05,delay=0.2x4,reorder=0.1,kill=0.01@1") —
/// the default fault-level label in scenario rows.
std::string fault_label(const FaultSpec& spec);

/// Survivor mask of the kill schedule `spec` induces on `g`: mask[v] is
/// nonzero iff v is never killed. A pure function of (g, spec) — the
/// same schedule a Network over that pair samples — so the
/// surviving-subgraph oracle can recompute who survives without
/// replaying the run.
std::vector<std::uint8_t> alive_mask(const Graph& g, const FaultSpec& spec);

namespace detail {

/// Base hash of one record's fault decisions: a mix64 chain over
/// (seed, arc, round, record-index). Successive draws for the same
/// record re-mix the running value (see Network::inject_record).
inline std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t arc,
                                std::int64_t round, std::uint32_t index) {
  std::uint64_t h = mix64(seed ^ 0x9e3779b97f4a7c15ULL);
  h = mix64(h ^ arc);
  h = mix64(h ^ static_cast<std::uint64_t>(round));
  h = mix64(h ^ index);
  return h;
}

/// Maps a draw to [0, 1) with 53 uniform mantissa bits.
inline double unit_real(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace detail

}  // namespace arbods::fault
