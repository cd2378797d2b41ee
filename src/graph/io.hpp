// Plain-text edge-list I/O.
//
// Format (whitespace separated, '#' comments allowed):
//   n m
//   u v          (m lines, 0-based endpoints)
// Weighted variant appends a line "weights" followed by n integers.
//
// Readers never trust the input: a token that is not a whole decimal
// integer or overflows its field, an endpoint >= n, a self-loop, a list
// cut short, or any non-comment token after the last expected one (so a
// weighted file handed to read_graph is rejected, not half-read) raises
// CheckError naming the token as "line L, token T" (both 1-based).
// Duplicate edges are not an error: the builder collapses them.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace arbods {

void write_graph(std::ostream& os, const Graph& g);
Graph read_graph(std::istream& is);

void write_weighted_graph(std::ostream& os, const WeightedGraph& wg);
WeightedGraph read_weighted_graph(std::istream& is);

/// Convenience file wrappers (throw CheckError on I/O failure).
void save_graph(const std::string& path, const Graph& g);
Graph load_graph(const std::string& path);

}  // namespace arbods
