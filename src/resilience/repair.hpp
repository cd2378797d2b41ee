// Post-kill solution repair: an O(1)-round local re-cover protocol that
// survivors run after crash-stop kills have punched holes in a computed
// dominating set.
//
// Semantics (kill-only fault ladders; see the surviving-subgraph oracle
// in src/harness/oracle.hpp for the matching validity notion):
//
//   * Dead set members are stripped — a killed dominator covers nobody.
//   * Each surviving node probes its closed neighborhood for a live
//     dominator (1 round: set members announce themselves).
//   * Uncovered survivors run one seeded-greedy election round: every
//     candidate announces its residual coverage c(v) = |uncovered nodes
//     in N[v] it would newly cover|; each uncovered node votes for the
//     highest-c candidate in its closed neighborhood, ties broken toward
//     the smaller node id; every candidate receiving a vote (including a
//     self-vote) joins. Each uncovered node's chosen candidate joins, so
//     one election suffices: after it, every survivor is dominated by a
//     live member.
//
// The protocol is 5 process_round calls — constant, independent of n —
// and deterministic at every worker-pool width (no RNG, node-local
// decisions only). It is weight-blind by design: the repair
// objective is restoring coverage fast, not re-optimizing weight; the
// weight impact is reported as post_repair_weight and judged by the
// surviving-subgraph oracle's certificate-free mode.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "congest/network.hpp"

namespace arbods::resilience {

/// What a repair pass did, for the scenario schema's repair columns.
struct RepairOutcome {
  /// The repaired dominating set over the surviving subgraph (sorted).
  NodeSet repaired_set;
  /// Total weight of repaired_set.
  Weight post_weight = 0;
  /// Rounds the repair phase consumed (constant 5 unless truncated).
  std::int64_t repair_rounds = 0;
  /// Nodes the election added to the set.
  std::int64_t repaired_nodes = 0;
};

/// Runs the repair protocol on `net` starting from `base_set`. The kill
/// schedule of net's fault plan (Network::alive) defines the surviving
/// subgraph; on a clean network everyone survives and the pass is a
/// (cheap) no-op election. Appends one "repair" entry to
/// net.stats().phases.
RepairOutcome run_repair(Network& net, const NodeSet& base_set);

}  // namespace arbods::resilience
