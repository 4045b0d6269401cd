#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

/// \file graph_io.hpp
/// Plain-text edge-list reader so downstream users can run the
/// simulators on their own networks. Format, one record per line:
///
///     # comment (also: empty lines are skipped)
///     <num_vertices>            (header, first non-comment line)
///     <u> <v>                   (one undirected edge per line)
///
/// Vertices are 0-based integers below num_vertices, and num_vertices is at
/// most 2^32 - 1. Parallel edges and self-loops are kept verbatim (the
/// reader does not simplify; callers wanting simple graphs compile the
/// edges with graph::from_edges' simplify).

namespace cobra::io {

/// Parse the edge-list format from a stream. Throws std::invalid_argument
/// on malformed input (bad header, out-of-range endpoints, trailing junk).
[[nodiscard]] graph::Graph read_edge_list(std::istream& in);

/// Read from a file path; std::runtime_error if it cannot be opened.
[[nodiscard]] graph::Graph load_edge_list(const std::string& path);

}  // namespace cobra::io
