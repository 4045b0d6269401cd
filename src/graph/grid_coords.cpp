#include "graph/grid_coords.hpp"

#include <limits>
#include <stdexcept>

namespace cobra::graph {

GridCoords::GridCoords(std::vector<std::uint32_t> extents)
    : extents_(std::move(extents)) {
  if (extents_.empty()) {
    throw std::invalid_argument("GridCoords: needs >= 1 dimension");
  }
  std::uint64_t total = 1;
  strides_.resize(extents_.size());
  // Row-major: the last axis varies fastest.
  for (std::size_t i = extents_.size(); i-- > 0;) {
    if (extents_[i] == 0) {
      throw std::invalid_argument("GridCoords: zero extent");
    }
    strides_[i] = total;
    total *= extents_[i];
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("GridCoords: grid exceeds 2^32 points");
    }
  }
  total_ = static_cast<std::uint32_t>(total);
}

GridCoords::GridCoords(std::uint32_t dimensions, std::uint32_t side)
    : GridCoords(std::vector<std::uint32_t>(dimensions, side)) {}

}  // namespace cobra::graph
