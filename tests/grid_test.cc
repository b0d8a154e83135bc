// Unit tests for the partition shared-key test, grid geometry and input
// partitioning (property P7 of DESIGN.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "grid/grid_geometry.h"
#include "grid/input_grid.h"

namespace progxe {
namespace {

InputPartition KeyedPartition(const Relation& rel,
                              const std::vector<RowId>& rows) {
  InputPartition part;
  part.key_index = KeyIndex(rel, rows);
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

// Binning clamps rel into [0, cells - 1] in double and then truncates; for
// every finite value that must equal the floor-then-clamp rule it replaced.
// Random values, exact cell lines and their neighbours, values below and
// above the domain, -0.0 and 0.0 at lo = 0, and widened zero-width
// dimensions, for k 1..8 and 1..24 cells. Values stay within ~1e6 cells of the domain, where the
// old rule's integer conversion is defined.
TEST(GridGeometry, CoordOfMatchesFloorThenClamp) {
  Rng rng(27);
  for (int k = 1; k <= 8; ++k) {
    for (int cells = 1; cells <= 24; ++cells) {
      std::vector<Interval> bounds;
      for (int d = 0; d < k; ++d) {
        const double lo = d % 3 == 0 ? rng.Uniform(-50, 50) : 0.0;
        const double width = d % 3 == 2 ? 0.0 : rng.Uniform(1e-3, 100);
        bounds.emplace_back(lo, lo + width);
      }
      const GridGeometry grid(bounds, cells);
      auto floor_then_clamp = [&](int d, double value) {
        const Interval& b = grid.domain(d);
        const double rel =
            (value - b.lo) * (static_cast<double>(cells) / b.width());
        return std::clamp<CellCoord>(static_cast<CellCoord>(std::floor(rel)),
                                     0, cells - 1);
      };
      for (int d = 0; d < k; ++d) {
        const Interval& b = grid.domain(d);
        std::vector<double> values = {b.lo, b.hi,
                                      b.lo - 1e3 * b.width(),
                                      b.hi + 1e3 * b.width()};
        if (b.lo == 0.0) {
          values.push_back(-0.0);
          values.push_back(0.0);
        }
        for (CellCoord c = 0; c <= cells; ++c) {
          const double line = grid.CellLower(d, c);
          values.push_back(line);
          values.push_back(std::nextafter(line, -1e300));
          values.push_back(std::nextafter(line, 1e300));
        }
        for (int i = 0; i < 50; ++i) {
          values.push_back(
              rng.Uniform(b.lo - 2 * b.width(), b.hi + 2 * b.width()));
        }
        for (double value : values) {
          EXPECT_EQ(grid.CoordOf(d, value), floor_then_clamp(d, value))
              << "k " << k << " cells " << cells << " dim " << d
              << " value " << value;
        }
      }
      // A whole point through CoordsOf and IndexOf.
      std::vector<double> point(static_cast<size_t>(k));
      std::vector<CellCoord> coords(static_cast<size_t>(k));
      for (int trial = 0; trial < 20; ++trial) {
        CellIndex expected = 0;
        for (int d = 0; d < k; ++d) {
          const Interval& b = grid.domain(d);
          point[static_cast<size_t>(d)] =
              rng.Uniform(b.lo - b.width(), b.hi + b.width());
          expected = expected * cells +
                     floor_then_clamp(d, point[static_cast<size_t>(d)]);
        }
        grid.CoordsOf(point.data(), coords.data());
        EXPECT_EQ(grid.IndexOf(coords.data()), expected);
      }
    }
  }
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
  InputGrid grid(rel, contribs, KeyIndex(rel), opts);

  std::unordered_set<RowId> seen;
  for (const InputPartition& part : grid.partitions()) {
    EXPECT_GT(part.size(), 0u) << "empty partitions must be dropped";
    for (RowId id : part.key_index.rows()) {
      EXPECT_TRUE(seen.insert(id).second) << "row in two partitions";
    }
  }
  EXPECT_EQ(seen.size(), rel.size());
}

using KeyRuns = std::vector<std::pair<JoinKey, std::vector<RowId>>>;

KeyRuns RunsOf(const KeyIndex& index) {
  KeyRuns runs;
  index.ForEach([&](JoinKey key, std::span<const RowId> rows) {
    runs.emplace_back(key, std::vector<RowId>(rows.begin(), rows.end()));
  });
  return runs;
}

// The partitions are read off one radix order of the source; whatever the
// construction, they must be the grid's non-empty cells in ascending cell
// order, cover every row once, carry KeyIndex(rel, sorted rows) built the
// direct way, and have tight bounds. Seeded relations, including n = 0 and
// 1, a single join key, negative keys and all-tied contributions.
TEST(InputGrid, PartitionsAreCellOrderedKeyRunsWithTightBounds) {
  struct Case {
    size_t n;
    int64_t key_domain;
    bool tied;
    int cells;
  };
  const Case cases[] = {{0, 5, false, 3},   {1, 5, false, 3},
                        {500, 1, false, 3}, {500, 40, true, 4},
                        {2000, 40, false, 2}, {2000, 300, false, 5},
                        {3000, 9, false, 8}};
  Rng rng(41);
  for (const Case& c : cases) {
    Relation rel(Schema::Anonymous(3));
    for (size_t i = 0; i < c.n; ++i) {
      double attrs[3] = {1.5, 2.5, 3.5};
      if (!c.tied) {
        for (double& a : attrs) a = rng.Uniform(0, 100);
      }
      rel.Append(attrs, rng.UniformInt(-c.key_domain, c.key_domain));
    }
    const CanonicalMapper mapper(
        MapSpec::PairwiseSum(3),
        Preference({Direction::kLowest, Direction::kHighest,
                    Direction::kLowest}));
    const ContributionTable contribs(rel, mapper, Side::kR);
    InputGridOptions opts;
    opts.cells_per_dim = c.cells;
    const InputGrid grid(rel, contribs, KeyIndex(rel), opts);

    // The grid over the observed contribution box, as partitioning uses.
    std::vector<Interval> box(3, Interval(0.0, 0.0));
    for (RowId id = 0; id < rel.size(); ++id) {
      for (size_t d = 0; d < 3; ++d) {
        const double v = contribs.vector(id)[d];
        box[d] = id == 0 ? Interval::Point(v)
                         : Interval(std::min(box[d].lo, v),
                                    std::max(box[d].hi, v));
      }
    }
    const GridGeometry geometry(box, c.cells);
    auto cell_of = [&](RowId id) {
      CellCoord coords[3];
      geometry.CoordsOf(contribs.vector(id), coords);
      return geometry.IndexOf(coords);
    };

    std::vector<int> times_seen(rel.size(), 0);
    CellIndex last_cell = -1;
    for (const InputPartition& part : grid.partitions()) {
      ASSERT_GT(part.size(), 0u);
      const std::span<const RowId> rows = part.key_index.rows();
      const CellIndex cell = cell_of(rows.front());
      EXPECT_GT(cell, last_cell) << "partitions out of cell order";
      last_cell = cell;
      std::vector<RowId> sorted(rows.begin(), rows.end());
      std::sort(sorted.begin(), sorted.end());
      for (RowId id : sorted) {
        EXPECT_EQ(cell_of(id), cell) << "row " << id << " in a foreign cell";
        ++times_seen[id];
      }
      const KeyIndex direct(rel, sorted);
      EXPECT_EQ(RunsOf(part.key_index), RunsOf(direct));
      EXPECT_TRUE(std::equal(rows.begin(), rows.end(), direct.rows().begin(),
                             direct.rows().end()));
      for (size_t d = 0; d < 3; ++d) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        for (RowId id : sorted) {
          lo = std::min(lo, contribs.vector(id)[d]);
          hi = std::max(hi, contribs.vector(id)[d]);
        }
        EXPECT_EQ(part.bounds[d].lo, lo);
        EXPECT_EQ(part.bounds[d].hi, hi);
      }
    }
    EXPECT_EQ(std::count(times_seen.begin(), times_seen.end(), 1),
              static_cast<std::ptrdiff_t>(rel.size()))
        << "n " << c.n << ": every row must be in exactly one partition";
    if (c.tied || c.n == 1) {
      EXPECT_EQ(grid.num_partitions(), c.n == 0 ? 0u : 1u);
    }
  }
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
  InputGrid grid(rel, contribs, KeyIndex(rel), opts);

  for (const InputPartition& part : grid.partitions()) {
    for (int d = 0; d < 2; ++d) {
      double lo = 1e300;
      double hi = -1e300;
      for (RowId id : part.key_index.rows()) {
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
  InputGrid grid(rel, contribs, KeyIndex(rel), opts);
  ASSERT_EQ(grid.num_partitions(), 2u);
  EXPECT_FALSE(grid.partitions()[0].key_index.SharesKeyWith(
      grid.partitions()[1].key_index));
}

}  // namespace
}  // namespace progxe
