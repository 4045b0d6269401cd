#include "graph/grid_coords.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/reference.hpp"

namespace cobra::graph {
namespace {

TEST(GridCoords, RoundTripAllPoints2D) {
  const GridCoords gc(2, 5);
  EXPECT_EQ(gc.num_points(), 25u);
  for (Vertex id = 0; id < 25; ++id) {
    const auto c = grid_coords(gc, id);
    EXPECT_EQ(grid_id(gc, c), id);
  }
}

TEST(GridCoords, RowMajorLayout) {
  const GridCoords gc(2, 4);
  // Last axis fastest: (0,0)=0, (0,1)=1, ..., (1,0)=4.
  EXPECT_EQ(grid_id(gc, std::vector<std::uint32_t>{0, 0}), 0u);
  EXPECT_EQ(grid_id(gc, std::vector<std::uint32_t>{0, 1}), 1u);
  EXPECT_EQ(grid_id(gc, std::vector<std::uint32_t>{1, 0}), 4u);
  EXPECT_EQ(gc.stride(0), 4u);
  EXPECT_EQ(gc.stride(1), 1u);
}

TEST(GridCoords, MixedExtents) {
  const GridCoords gc(std::vector<std::uint32_t>{2, 3, 4});
  EXPECT_EQ(gc.num_points(), 24u);
  EXPECT_EQ(gc.dimensions(), 3u);
  EXPECT_EQ(gc.extent(0), 2u);
  EXPECT_EQ(gc.extent(2), 4u);
  for (Vertex id = 0; id < 24; ++id) {
    EXPECT_EQ(grid_id(gc, grid_coords(gc, id)), id);
  }
}

TEST(GridCoords, Manhattan) {
  const GridCoords gc(2, 10);
  const Vertex a = grid_id(gc, std::vector<std::uint32_t>{1, 2});
  const Vertex b = grid_id(gc, std::vector<std::uint32_t>{4, 9});
  EXPECT_EQ(manhattan(gc, a, b), 10u);
  EXPECT_EQ(manhattan(gc, a, a), 0u);
  EXPECT_EQ(manhattan(gc, b, a), 10u);
}

TEST(GridCoords, OneDimension) {
  const GridCoords gc(1, 7);
  EXPECT_EQ(gc.num_points(), 7u);
  EXPECT_EQ(grid_coords(gc, 3), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(manhattan(gc, 1, 6), 5u);
}

TEST(GridCoords, InvalidConstruction) {
  EXPECT_THROW(GridCoords(std::vector<std::uint32_t>{}), std::invalid_argument);
  EXPECT_THROW(GridCoords(std::vector<std::uint32_t>{3, 0}), std::invalid_argument);
  // 2^17 per axis, 3 axes = 2^51 points: too many.
  EXPECT_THROW(GridCoords(3, 1u << 17), std::invalid_argument);
}

TEST(GridCoords, OutOfRangeAccess) {
  const GridCoords gc(2, 3);
  EXPECT_THROW(grid_coords(gc, 9), std::out_of_range);
  EXPECT_THROW((void)grid_id(gc, std::vector<std::uint32_t>{0, 3}), std::out_of_range);
  EXPECT_THROW((void)grid_id(gc, std::vector<std::uint32_t>{0}), std::out_of_range);
}

TEST(GridCoords, LargeGridWithinBudget) {
  // 2^10 per axis, 3 axes = 2^30 points: allowed (fits in 32 bits).
  const GridCoords gc(3, 1u << 10);
  EXPECT_EQ(gc.num_points(), 1u << 30);
  const Vertex last = gc.num_points() - 1;
  const auto c = grid_coords(gc, last);
  for (const auto x : c) EXPECT_EQ(x, (1u << 10) - 1);
}

}  // namespace
}  // namespace cobra::graph
