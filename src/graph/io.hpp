// Plain-text edge-list I/O.
//
// Format (whitespace separated, '#' comments allowed):
//   n m
//   u v          (m lines, 0-based endpoints)
// Weighted variant appends a line "weights" followed by n integers.
//
// Readers never trust the input: a token that is not a whole decimal
// integer or overflows its field, an endpoint >= n, a self-loop, or a
// list cut short raises CheckError naming the token and its 1-based index.
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
