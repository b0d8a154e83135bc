// Unit tests for the partition shared-key test, grid geometry and input
// partitioning (property P7 of DESIGN.md).
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "grid/grid_geometry.h"
#include "grid/input_grid.h"

namespace progxe {
namespace {

InputPartition KeyedPartition(const Relation& rel, std::vector<RowId> rows) {
  InputPartition part;
  part.rows = std::move(rows);
  part.key_index = KeyIndex(rel, part.rows);
  return part;
}

TEST(PartitionKeys, SharesKeyWith) {
  Relation rel(Schema::Anonymous(1));
  double v = 0;
  rel.Append({&v, 1}, 1);
  rel.Append({&v, 1}, 5);
  rel.Append({&v, 1}, 9);
  rel.Append({&v, 1}, 5);  // duplicate

  InputPartition a = KeyedPartition(rel, {0, 1, 3});
  InputPartition b = KeyedPartition(rel, {2});
  InputPartition c = KeyedPartition(rel, {1, 2});
  size_t keys = 0;
  a.key_index.ForEach([&](JoinKey, std::span<const RowId>) { ++keys; });
  EXPECT_EQ(keys, 2u);  // {1, 5}
  EXPECT_FALSE(a.key_index.SharesKeyWith(b.key_index));  // {1,5} vs {9}
  EXPECT_TRUE(a.key_index.SharesKeyWith(c.key_index));   // share 5
  EXPECT_TRUE(b.key_index.SharesKeyWith(c.key_index));   // share 9
}

TEST(GridGeometry, CoordsAndIndexRoundTrip) {
  GridGeometry grid({Interval(0, 10), Interval(0, 20)}, 5);
  EXPECT_EQ(grid.dimensions(), 2);
  EXPECT_EQ(grid.total_cells(), 25);
  std::vector<CellCoord> coords(2);
  for (CellIndex c = 0; c < grid.total_cells(); ++c) {
    grid.CoordsOfIndex(c, coords.data());
    EXPECT_EQ(grid.IndexOf(coords.data()), c);
  }
}

TEST(GridGeometry, HalfOpenCellMembership) {
  GridGeometry grid({Interval(0, 10)}, 5);  // cells of width 2
  EXPECT_EQ(grid.CoordOf(0, 0.0), 0);
  EXPECT_EQ(grid.CoordOf(0, 1.999), 0);
  EXPECT_EQ(grid.CoordOf(0, 2.0), 1);   // lower bound belongs to the cell
  EXPECT_EQ(grid.CoordOf(0, 10.0), 4);  // top value lands in the last cell
  EXPECT_EQ(grid.CoordOf(0, -5.0), 0);  // clamped
  EXPECT_EQ(grid.CoordOf(0, 15.0), 4);  // clamped
}

TEST(GridGeometry, CellBounds) {
  GridGeometry grid({Interval(0, 10)}, 5);
  EXPECT_DOUBLE_EQ(grid.CellLower(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grid.CellUpper(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(grid.CellLower(0, 4), 8.0);
  EXPECT_DOUBLE_EQ(grid.CellUpper(0, 4), 10.0);
}

TEST(GridGeometry, CoordRangeOfInterval) {
  GridGeometry grid({Interval(0, 10)}, 5);
  CellCoord lo, hi;
  grid.CoordRange(0, Interval(1.0, 7.0), &lo, &hi);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 3);
  grid.CoordRange(0, Interval(4.0, 4.0), &lo, &hi);
  EXPECT_EQ(lo, hi);
}

TEST(GridGeometry, ZeroWidthDomainIsWidened) {
  GridGeometry grid({Interval(5.0, 5.0)}, 4);
  EXPECT_EQ(grid.CoordOf(0, 5.0), 0);
  EXPECT_EQ(grid.total_cells(), 4);
}

TEST(GridGeometry, BoxIterationCoversExactlyTheBox) {
  GridGeometry grid({Interval(0, 1), Interval(0, 1), Interval(0, 1)}, 4);
  const CellCoord lo[] = {1, 0, 2};
  const CellCoord hi[] = {2, 1, 3};
  std::set<CellIndex> seen;
  grid.ForEachCellInBox(lo, hi, [&](CellIndex c) {
    EXPECT_TRUE(seen.insert(c).second) << "duplicate cell visit";
  });
  EXPECT_EQ(static_cast<int64_t>(seen.size()), grid.BoxVolume(lo, hi));
  EXPECT_EQ(grid.BoxVolume(lo, hi), 2 * 2 * 2);
  std::vector<CellCoord> coords(3);
  for (CellIndex c : seen) {
    grid.CoordsOfIndex(c, coords.data());
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(coords[static_cast<size_t>(d)], lo[d]);
      EXPECT_LE(coords[static_cast<size_t>(d)], hi[d]);
    }
  }
}

TEST(GridGeometry, RowsTileTheBoxInRowMajorOrder) {
  GridGeometry geometry({Interval(0, 1), Interval(0, 1), Interval(0, 1)}, 5);
  const CellCoord lo[] = {1, 0, 2};
  const CellCoord hi[] = {3, 1, 4};
  std::vector<CellIndex> from_rows;
  geometry.ForEachRowInBox(lo, hi, [&](CellIndex first, int64_t len) {
    EXPECT_EQ(len, 3);
    for (int64_t i = 0; i < len; ++i) from_rows.push_back(first + i);
  });
  std::vector<CellIndex> expected;
  for (CellCoord x = lo[0]; x <= hi[0]; ++x) {
    for (CellCoord y = lo[1]; y <= hi[1]; ++y) {
      for (CellCoord z = lo[2]; z <= hi[2]; ++z) {
        const CellCoord c[] = {x, y, z};
        expected.push_back(geometry.IndexOf(c));
      }
    }
  }
  EXPECT_EQ(from_rows, expected);
}

TEST(GridGeometry, PointCoordWithinItsCellBounds) {
  Rng rng(6);
  GridGeometry grid({Interval(-3, 7), Interval(100, 200)}, 9);
  for (int trial = 0; trial < 1000; ++trial) {
    double pt[2] = {rng.Uniform(-3, 7), rng.Uniform(100, 200)};
    CellCoord coords[2];
    grid.CoordsOf(pt, coords);
    for (int d = 0; d < 2; ++d) {
      EXPECT_GE(pt[d], grid.CellLower(d, coords[d]) - 1e-9);
      EXPECT_LE(pt[d], grid.CellUpper(d, coords[d]) + 1e-9);
    }
  }
}

TEST(InputGrid, PartitionsCoverAllRowsOnce) {
  GeneratorOptions gen;
  gen.cardinality = 2000;
  gen.num_attributes = 3;
  Relation rel = GenerateRelation(gen).MoveValue();
  CanonicalMapper mapper(MapSpec::PairwiseSum(3), Preference::AllLowest(3));
  ContributionTable contribs(rel, mapper, Side::kR);
  InputGridOptions opts;
  opts.cells_per_dim = 3;
  InputGrid grid(rel, contribs, opts);

  std::unordered_set<RowId> seen;
  for (const InputPartition& part : grid.partitions()) {
    EXPECT_FALSE(part.rows.empty()) << "empty partitions must be dropped";
    for (RowId id : part.rows) {
      EXPECT_TRUE(seen.insert(id).second) << "row in two partitions";
    }
  }
  EXPECT_EQ(seen.size(), rel.size());
}

TEST(InputGrid, BoundsAreTightOverContributions) {
  GeneratorOptions gen;
  gen.cardinality = 500;
  gen.num_attributes = 2;
  Relation rel = GenerateRelation(gen).MoveValue();
  CanonicalMapper mapper(MapSpec::PairwiseSum(2), Preference::AllLowest(2));
  ContributionTable contribs(rel, mapper, Side::kT);
  InputGridOptions opts;
  opts.cells_per_dim = 4;
  InputGrid grid(rel, contribs, opts);

  for (const InputPartition& part : grid.partitions()) {
    for (int d = 0; d < 2; ++d) {
      double lo = 1e300;
      double hi = -1e300;
      for (RowId id : part.rows) {
        lo = std::min(lo, contribs.vector(id)[d]);
        hi = std::max(hi, contribs.vector(id)[d]);
      }
      EXPECT_DOUBLE_EQ(part.bounds[static_cast<size_t>(d)].lo, lo);
      EXPECT_DOUBLE_EQ(part.bounds[static_cast<size_t>(d)].hi, hi);
    }
  }
}

TEST(InputGrid, KeyIndexesReflectPartitionKeys) {
  Relation rel(Schema::Anonymous(1));
  // Two clusters in value space with disjoint key sets.
  for (int i = 0; i < 10; ++i) {
    double v = 0.0;
    rel.Append({&v, 1}, 1);
  }
  for (int i = 0; i < 10; ++i) {
    double v = 100.0;
    rel.Append({&v, 1}, 2);
  }
  CanonicalMapper mapper(
      MapSpec({MapFunc::Passthrough(Side::kR, 0)}), Preference::AllLowest(1));
  ContributionTable contribs(rel, mapper, Side::kR);
  InputGridOptions opts;
  opts.cells_per_dim = 2;
  InputGrid grid(rel, contribs, opts);
  ASSERT_EQ(grid.num_partitions(), 2u);
  EXPECT_FALSE(grid.partitions()[0].key_index.SharesKeyWith(
      grid.partitions()[1].key_index));
}

}  // namespace
}  // namespace progxe
