#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// \file grid_coords.hpp
/// Coordinate arithmetic for the d-dimensional grid [0, side-1]^d (the
/// paper's [0, n]^d with side = n + 1 points per axis). Vertices are stored
/// in row-major mixed-radix order; this header provides the per-axis
/// extents and strides of that layout, which graph::make_grid wires its
/// edges by.

namespace cobra::graph {

class GridCoords {
 public:
  /// A grid with `dims` axes, axis i having extent `extents[i]` points.
  /// Total vertex count is the product of extents; it must fit in 32 bits.
  explicit GridCoords(std::vector<std::uint32_t> extents);

  /// Uniform extent convenience: d axes of `side` points each.
  GridCoords(std::uint32_t dimensions, std::uint32_t side);

  [[nodiscard]] std::uint32_t dimensions() const noexcept {
    return static_cast<std::uint32_t>(extents_.size());
  }
  [[nodiscard]] std::uint32_t extent(std::uint32_t axis) const {
    return extents_.at(axis);
  }
  [[nodiscard]] std::uint32_t num_points() const noexcept { return total_; }

  /// Per-axis stride of the row-major layout (tests and generators use it).
  [[nodiscard]] std::uint64_t stride(std::uint32_t axis) const {
    return strides_.at(axis);
  }

 private:
  std::vector<std::uint32_t> extents_;
  std::vector<std::uint64_t> strides_;
  std::uint32_t total_ = 0;
};

}  // namespace cobra::graph
