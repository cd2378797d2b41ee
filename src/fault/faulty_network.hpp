// The construction point the harness layers use. Fault injection is part
// of Network itself (an enabled config.fault switches it to per-arc
// delivery with per-arc fault decisions; see fault_plan.hpp), so this is
// a plain constructor call kept for the callers that build through it.
#pragma once

#include <memory>

#include "congest/network.hpp"

namespace arbods::fault {

/// A Network over `wg` that runs config.fault (clean when the spec is
/// inert).
inline std::unique_ptr<Network> make_network(const WeightedGraph& wg,
                                             const CongestConfig& config) {
  return std::make_unique<Network>(wg, config);
}

}  // namespace arbods::fault
