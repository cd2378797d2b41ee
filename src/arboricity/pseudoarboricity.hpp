// Exact minimum-max-out-degree orientation by excess routing.
//
// The minimum over orientations of the maximum out-degree equals the
// pseudoarboricity p = max over nonempty S of ceil(m_S / n_S), and
// p <= alpha <= p + 1 (Picard–Queyranne / Frank–Gyárfás). Together with
// the Nash–Williams density lower bound this pins the arboricity of
// generated instances to within one, which is all the experiments need.
//
// p lies in [ceil(m/n), degeneracy]. Unless that range is one value, the
// degeneracy orientation's out-degrees are lowered step by step by
// reversing paths from over-full to under-full nodes (Dinic-style phases
// on the orientation; no flow network), with two checked certificates:
//   * upper: the orientation reached, validated (out-degrees <= p);
//   * lower: a dense set S with |E(S)| > (p - 1)|S|: the nodes the
//     over-full ones reach when d = p - 1 fails, or all of g at ceil(m/n).
#pragma once

#include "arboricity/orientation.hpp"
#include "common/types.hpp"
#include "graph/graph.hpp"

namespace arbods {

/// True iff g admits an orientation with out-degree <= d.
bool orientable_with_out_degree(const Graph& g, NodeId d);

/// Smallest d such that g is orientable with out-degree <= d.
NodeId pseudoarboricity(const Graph& g);

/// An orientation achieving out-degree <= d (d must be feasible).
Orientation min_out_degree_orientation(const Graph& g, NodeId d);

/// Convenience: orientation with the optimum out-degree.
Orientation optimal_orientation(const Graph& g);

}  // namespace arbods
