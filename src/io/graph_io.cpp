#include "io/graph_io.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"

namespace cobra::io {

namespace {

/// Next content line (skipping comments/blank); false at EOF.
bool next_content_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;  // blank
    if (line[first] == '#') continue;          // comment
    return true;
  }
  return false;
}

}  // namespace

graph::Graph read_edge_list(std::istream& in) {
  std::string line;
  if (!next_content_line(in, line)) {
    throw std::invalid_argument("read_edge_list: missing header line");
  }
  std::istringstream header(line);
  std::int64_t n = -1;
  header >> n;
  std::string junk;
  if (header.fail() || n < 0 || n > std::numeric_limits<std::uint32_t>::max() ||
      (header >> junk)) {
    throw std::invalid_argument("read_edge_list: bad header: " + line);
  }

  std::vector<graph::Edge> edges;
  while (next_content_line(in, line)) {
    std::istringstream edge(line);
    std::int64_t u = -1, v = -1;
    edge >> u >> v;
    if (edge.fail() || (edge >> junk)) {
      throw std::invalid_argument("read_edge_list: bad edge line: " + line);
    }
    if (u < 0 || v < 0 || u >= n || v >= n) {
      throw std::invalid_argument("read_edge_list: endpoint out of range: " +
                                  line);
    }
    edges.emplace_back(static_cast<graph::Vertex>(u),
                       static_cast<graph::Vertex>(v));
  }
  return graph::from_edges(static_cast<std::uint32_t>(n), {&edges, 1}, false);
}

graph::Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_edge_list: cannot open " + path);
  return read_edge_list(in);
}

}  // namespace cobra::io
