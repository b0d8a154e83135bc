// Unit tests for the OutputTable: tuple-level processing (Section III-B),
// comparable-slice dominance, up-closed cell marking, coverage bookkeeping
// (P5).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "prefs/dominance.h"
#include "progxe/output_table.h"
#include "skyline/skyline.h"

namespace progxe {
namespace {

class OutputTableTest : public ::testing::Test {
 protected:
  // 2-d grid over [0,10]^2 with 5 cells per dim (cell width 2).
  OutputTableTest()
      : geometry_({Interval(0, 10), Interval(0, 10)}, 5),
        table_(geometry_,
               std::vector<uint8_t>(static_cast<size_t>(geometry_.total_cells()), 0),
               &stats_) {}

  CellIndex CellAt(double x, double y) const {
    const double pt[] = {x, y};
    CellCoord coords[2];
    geometry_.CoordsOf(pt, coords);
    return geometry_.IndexOf(coords);
  }

  InsertOutcome Insert(double x, double y, RowId r = 0, RowId t = 0) {
    const double pt[] = {x, y};
    return table_.Insert(pt, r, t);
  }

  Region CoveringRegion(double lo_x, double lo_y, double hi_x, double hi_y) {
    Region region;
    region.id = next_region_id_++;
    region.bounds = {Interval(lo_x, hi_x), Interval(lo_y, hi_y)};
    region.lo_cell.resize(2);
    region.hi_cell.resize(2);
    for (int d = 0; d < 2; ++d) {
      geometry_.CoordRange(d, region.bounds[static_cast<size_t>(d)],
                           &region.lo_cell[static_cast<size_t>(d)],
                           &region.hi_cell[static_cast<size_t>(d)]);
    }
    return region;
  }

  ProgXeStats stats_;
  GridGeometry geometry_;
  OutputTable table_;
  int32_t next_region_id_ = 0;
};

TEST_F(OutputTableTest, InsertAndPopulate) {
  EXPECT_EQ(Insert(1.0, 1.0), InsertOutcome::kInserted);
  EXPECT_TRUE(table_.populated(CellAt(1.0, 1.0)));
  EXPECT_EQ(table_.AliveCount(CellAt(1.0, 1.0)), 1u);
  EXPECT_FALSE(table_.populated(CellAt(9.0, 9.0)));
}

TEST_F(OutputTableTest, FirstPopulationMarksEveryCellStrictlyAbove) {
  EXPECT_EQ(Insert(1.0, 1.0), InsertOutcome::kInserted);  // cell (0,0)
  // Cells (1..4, 1..4) are strictly above cell (0,0); row and column 0
  // share a coordinate with it and stay open.
  for (CellCoord x = 0; x < 5; ++x) {
    for (CellCoord y = 0; y < 5; ++y) {
      const CellCoord coords[] = {x, y};
      EXPECT_EQ(table_.marked(geometry_.IndexOf(coords)), x > 0 && y > 0)
          << x << "," << y;
    }
  }
  // Cell (2,2) is marked: the arrival is discarded on the one byte.
  EXPECT_EQ(Insert(5.0, 5.0), InsertOutcome::kDiscardedMarked);
  EXPECT_EQ(stats_.tuples_discarded_marked, 1u);
  EXPECT_EQ(Insert(9.0, 1.5), InsertOutcome::kDominated);  // same row
}

TEST_F(OutputTableTest, SliceDominationDiscardsTuple) {
  // Same row of cells (share y-coordinate): (1,1) vs (5,1.5) are in cells
  // (0,0) and (2,0) — same slab dim 1. The first dominates the second.
  EXPECT_EQ(Insert(1.0, 1.0), InsertOutcome::kInserted);
  EXPECT_EQ(Insert(5.0, 1.5), InsertOutcome::kDominated);
  EXPECT_EQ(stats_.tuples_dominated_on_insert, 1u);
}

TEST_F(OutputTableTest, IncomparableTuplesCoexistAcrossSlabs) {
  EXPECT_EQ(Insert(1.0, 5.0), InsertOutcome::kInserted);
  EXPECT_EQ(Insert(5.0, 1.0), InsertOutcome::kInserted);
  EXPECT_EQ(Insert(1.2, 4.8), InsertOutcome::kInserted);  // same cell, incomparable? (1.2>1.0, 4.8<5.0) yes
  EXPECT_EQ(table_.AliveCount(CellAt(1.0, 5.0)), 2u);
}

TEST_F(OutputTableTest, NewTupleEvictsDominatedInUpperSlice) {
  EXPECT_EQ(Insert(5.0, 1.5), InsertOutcome::kInserted);
  EXPECT_EQ(table_.AliveCount(CellAt(5.0, 1.5)), 1u);
  // New tuple in same slab (dim-1 coordinate 0) dominating the first.
  EXPECT_EQ(Insert(1.0, 1.0), InsertOutcome::kInserted);
  EXPECT_EQ(table_.AliveCount(CellAt(5.0, 1.5)), 0u);
  EXPECT_EQ(stats_.tuples_evicted, 1u);
}

TEST_F(OutputTableTest, MarkingKillsStrictlyAbovePopulatedCells) {
  EXPECT_EQ(Insert(5.0, 5.0), InsertOutcome::kInserted);  // cell (2,2)
  // (9,9)'s cell (4,4) is strictly above (2,2), so already marked.
  EXPECT_EQ(Insert(9.0, 9.0), InsertOutcome::kDiscardedMarked);
  EXPECT_TRUE(table_.marked(CellAt(9.0, 9.0)));
  // Now a new populated cell strictly below (2,2) kills it.
  EXPECT_EQ(Insert(1.0, 1.0), InsertOutcome::kInserted);
  EXPECT_TRUE(table_.marked(CellAt(5.0, 5.0)));
  EXPECT_EQ(table_.AliveCount(CellAt(5.0, 5.0)), 0u);
  EXPECT_EQ(stats_.tuples_evicted, 1u);
  size_t marked = 0;
  for (CellIndex c = 0; c < geometry_.total_cells(); ++c) {
    marked += table_.marked(c) ? 1 : 0;
  }
  EXPECT_EQ(marked, 16u);  // cells (1..4, 1..4)
}

TEST_F(OutputTableTest, MarkedCellDiscardsArrivals) {
  Insert(1.0, 1.0);
  EXPECT_EQ(Insert(5.0, 5.0), InsertOutcome::kDiscardedMarked);
  EXPECT_EQ(Insert(5.5, 5.5), InsertOutcome::kDiscardedMarked);
  EXPECT_EQ(stats_.tuples_discarded_marked, 2u);
  EXPECT_EQ(stats_.tuples_evicted, 0u);
}

TEST_F(OutputTableTest, EqualTuplesBothSurvive) {
  EXPECT_EQ(Insert(3.0, 3.0, 1, 1), InsertOutcome::kInserted);
  EXPECT_EQ(Insert(3.0, 3.0, 2, 2), InsertOutcome::kInserted);
  EXPECT_EQ(table_.AliveCount(CellAt(3.0, 3.0)), 2u);
}

TEST_F(OutputTableTest, CoverageFlushesOnRelease) {
  std::vector<Region> regions;
  regions.push_back(CoveringRegion(0, 0, 3.9, 3.9));  // cells [0..1]^2
  regions.push_back(CoveringRegion(2, 2, 5.9, 5.9));  // cells [1..2]^2
  table_.InitCoverage(regions);
  // cover_lo counts regions whose lower cell is <= the cell.
  EXPECT_EQ(table_.cover_lo(CellAt(1, 1)), 1);
  EXPECT_EQ(table_.cover_lo(CellAt(3, 3)), 2);  // overlap cell (1,1)
  EXPECT_EQ(table_.cover_lo(CellAt(9, 9)), 2);
  EXPECT_EQ(table_.cover_lo(CellAt(9, 1)), 1);

  // Three mutually incomparable tuples in cells (0,1), (1,1) and (2,1).
  EXPECT_EQ(Insert(1.0, 3.5), InsertOutcome::kInserted);
  EXPECT_EQ(Insert(3.0, 2.5), InsertOutcome::kInserted);
  EXPECT_EQ(Insert(5.0, 2.2), InsertOutcome::kInserted);

  // Region 0's up-set drops to 0 where only it counted and to 1 where
  // region 1 counts too: the populated cell (0,1) flushes, the overlap
  // cell waits for region 1.
  const OutputTable::CoverageRelease first =
      table_.ReleaseRegionCoverage(regions[0]);
  EXPECT_EQ(first.lowered.size(), 25u);
  EXPECT_EQ(first.flush, std::vector<CellIndex>{CellAt(1.0, 3.5)});
  EXPECT_EQ(table_.cover_lo(CellAt(3, 3)), 1);

  const OutputTable::CoverageRelease second =
      table_.ReleaseRegionCoverage(regions[1]);
  EXPECT_EQ(second.lowered.size(), 16u);
  EXPECT_EQ(second.flush,
            (std::vector<CellIndex>{CellAt(3.0, 2.5), CellAt(5.0, 2.2)}));
  EXPECT_EQ(table_.cover_lo(CellAt(9, 9)), 0);
}

TEST_F(OutputTableTest, MarkDominatedByMarksCellsStrictlyAbove) {
  auto marked_count = [this] {
    size_t n = 0;
    for (CellIndex c = 0; c < geometry_.total_cells(); ++c) {
      n += table_.marked(c) ? 1 : 0;
    }
    return n;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double above[] = {5.0, 11.0};  // above the grid in dimension 1
  const double unknown[] = {nan, 1.0};
  table_.MarkDominatedBy(above);
  table_.MarkDominatedBy(unknown);
  EXPECT_EQ(marked_count(), 0u);

  const double point[] = {5.0, 5.0};  // cell (2,2)
  table_.MarkDominatedBy(point);
  EXPECT_EQ(marked_count(), 4u);  // cells (3..4, 3..4)
  EXPECT_FALSE(table_.marked(CellAt(5.0, 9.0)));
  // Below the grid in dimension 0: every column counts as strictly above.
  const double below[] = {-1.0, 5.0};
  table_.MarkDominatedBy(below);
  EXPECT_EQ(marked_count(), 10u);  // cells (0..4, 3..4)
  std::vector<CellIndex> newly;
  table_.TakeNewlyMarked(&newly);
  EXPECT_EQ(newly.size(), 10u);
  EXPECT_EQ(Insert(1.0, 7.0), InsertOutcome::kDiscardedMarked);
}

TEST_F(OutputTableTest, InactiveRegionsNotCounted) {
  std::vector<Region> regions;
  regions.push_back(CoveringRegion(0, 0, 3.9, 3.9));
  regions.back().pruned = true;
  table_.InitCoverage(regions);
  EXPECT_EQ(table_.cover_lo(CellAt(1, 1)), 0);
  EXPECT_EQ(table_.cover_lo(CellAt(9, 9)), 0);
}

TEST_F(OutputTableTest, FlushEmitsAliveTuplesAndKeepsThemAsDominators) {
  Insert(1.0, 1.0, 10, 20);
  Insert(1.5, 0.5, 11, 21);  // same cell, incomparable
  const CellIndex c = CellAt(1.0, 1.0);
  std::vector<double> values;
  std::vector<CellTupleIds> ids;
  table_.FlushCell(c, &values, &ids);
  EXPECT_TRUE(table_.emitted(c));
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(values.size(), 4u);
  EXPECT_EQ(ids[0].r, 10u);
  EXPECT_EQ(ids[1].t, 21u);
  // Emitted tuples still dominate future arrivals in their slice.
  EXPECT_EQ(Insert(5.0, 1.2), InsertOutcome::kDominated);
}

TEST_F(OutputTableTest, NewlyMarkedCellsNameDominatedRegions) {
  const Region far = CoveringRegion(6.0, 6.0, 9.0, 9.0);
  // A region overlapping the populated cell's column is NOT wholly
  // dominated.
  const Region touching = CoveringRegion(1.0, 6.0, 3.0, 9.0);
  const CellIndex far_lo = geometry_.IndexOf(far.lo_cell.data());
  const CellIndex touching_lo = geometry_.IndexOf(touching.lo_cell.data());
  std::vector<CellIndex> newly;
  Insert(9.0, 9.0);  // top corner cell: nothing strictly above
  table_.TakeNewlyMarked(&newly);
  EXPECT_TRUE(newly.empty());
  Insert(1.0, 1.0);
  table_.TakeNewlyMarked(&newly);
  // Every cell strictly above (0,0), each once; the (9,9) cell among them.
  ASSERT_EQ(newly.size(), 16u);
  std::sort(newly.begin(), newly.end());
  EXPECT_TRUE(std::adjacent_find(newly.begin(), newly.end()) == newly.end());
  EXPECT_TRUE(std::binary_search(newly.begin(), newly.end(), far_lo));
  EXPECT_FALSE(std::binary_search(newly.begin(), newly.end(), touching_lo));
  EXPECT_TRUE(table_.marked(far_lo));
  EXPECT_FALSE(table_.marked(touching_lo));
  EXPECT_EQ(stats_.tuples_evicted, 1u);  // the (9,9) tuple
  // The list drains; a repeat population strictly below marks nothing new.
  Insert(1.5, 1.5);
  table_.TakeNewlyMarked(&newly);
  EXPECT_TRUE(newly.empty());
}

TEST_F(OutputTableTest, InsertBatchMatchesSequentialInserts) {
  // Two tables driven with the same tuple stream — one per tuple, one in
  // blocks with ragged tails — must agree on every counter and cell state.
  Rng rng(123);
  std::vector<double> pts;
  std::vector<RowIdPair> ids;
  for (RowId i = 0; i < 500; ++i) {
    pts.push_back(rng.Uniform(0.0, 10.0));
    pts.push_back(rng.Uniform(0.0, 10.0));
    ids.push_back(RowIdPair{i, i});
  }
  ProgXeStats batch_stats;
  OutputTable batch_table(
      geometry_,
      std::vector<uint8_t>(static_cast<size_t>(geometry_.total_cells()), 0),
      &batch_stats);
  for (size_t i = 0; i < 500; i += 96) {
    const size_t m = std::min<size_t>(96, 500 - i);
    batch_table.InsertBatch(pts.data() + i * 2, ids.data() + i, m);
  }
  for (size_t i = 0; i < 500; ++i) {
    table_.Insert(pts.data() + i * 2, ids[i].r, ids[i].t);
  }
  EXPECT_EQ(stats_.tuples_discarded_marked, batch_stats.tuples_discarded_marked);
  EXPECT_EQ(stats_.tuples_dominated_on_insert,
            batch_stats.tuples_dominated_on_insert);
  EXPECT_EQ(stats_.tuples_evicted, batch_stats.tuples_evicted);
  EXPECT_EQ(table_.dom_counter()->comparisons,
            batch_table.dom_counter()->comparisons);
  auto pop_a = table_.PopulatedCells();
  auto pop_b = batch_table.PopulatedCells();
  std::sort(pop_a.begin(), pop_a.end());
  std::sort(pop_b.begin(), pop_b.end());
  EXPECT_EQ(pop_a, pop_b);
  for (CellIndex c : pop_a) {
    EXPECT_EQ(table_.AliveCount(c), batch_table.AliveCount(c)) << "cell " << c;
  }
  for (CellIndex c = 0; c < geometry_.total_cells(); ++c) {
    EXPECT_EQ(table_.marked(c), batch_table.marked(c)) << "cell " << c;
  }
}

TEST_F(OutputTableTest, PopulatedCellsListsLiveCellsOnly) {
  Insert(9.0, 1.0);
  Insert(1.0, 9.0);
  Insert(1.0, 1.0);  // evicts nothing (incomparable cells?) — (1,1) dominates (9,1)? 1<=9,1<=1 strict -> dominates!
  auto populated = table_.PopulatedCells();
  // (1,1) dominates both earlier tuples (1<=9 & 1<1 false... check: (1,1) vs
  // (9,1): dim0 1<9 strict, dim1 equal -> dominates; vs (1,9): dominates.
  EXPECT_EQ(populated.size(), 1u);
  EXPECT_EQ(populated[0], CellAt(1.0, 1.0));
}

// Seeded random inserts against brute force, checked after every
// InsertBatch: marked() is exactly the look-ahead marks plus every cell
// strictly above a cell that ever populated, and the live tuples are the
// skyline of everything inserted so far. The reference replays the stream
// one tuple at a time: a tuple populates its cell iff the cell is not yet
// marked and no earlier tuple dominates it.
TEST(OutputTableRandom, MarkedSetAndLiveTuplesMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    const int k = 2 + static_cast<int>(rng.NextBelow(3));
    const int cells = 3 + static_cast<int>(rng.NextBelow(6));
    const size_t kk = static_cast<size_t>(k);
    const GridGeometry geometry(
        std::vector<Interval>(kk, Interval(0, 10)), cells);
    const size_t total = static_cast<size_t>(geometry.total_cells());

    // Points; about a fifth of the coordinates snap to an integer, so ties
    // occur.
    const size_t n = 240;
    std::vector<double> pts(n * kk);
    std::vector<RowIdPair> ids(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < kk; ++d) {
        double v = rng.Uniform(0.0, 10.0);
        if (rng.NextBelow(5) == 0) v = static_cast<int>(v);
        pts[i * kk + d] = v;
      }
      ids[i] = RowIdPair{static_cast<RowId>(i), static_cast<RowId>(i)};
    }
    // Look-ahead marks, as OutputSpaceLookahead makes them: the cells whose
    // lower corner a guaranteed point dominates. The guaranteed points are
    // the stream's first tuples, so every discard there is sound at once.
    const size_t guaranteed = rng.NextBelow(3);
    std::vector<uint8_t> lookahead(total, 0);
    std::vector<CellCoord> coords(kk);
    std::vector<double> lower(kk);
    for (size_t c = 0; c < total; ++c) {
      geometry.CoordsOfIndex(static_cast<CellIndex>(c), coords.data());
      for (int d = 0; d < k; ++d) {
        lower[static_cast<size_t>(d)] =
            geometry.CellLower(d, coords[static_cast<size_t>(d)]);
      }
      for (size_t g = 0; g < guaranteed; ++g) {
        if (DominatesMin(pts.data() + g * kk, lower.data(), k, nullptr)) {
          lookahead[c] = 1;
        }
      }
    }

    ProgXeStats stats;
    OutputTable table(geometry, lookahead, &stats);
    std::vector<uint8_t> ever_populated(total, 0);
    std::vector<CellCoord> cell_coords(total * kk);
    for (size_t c = 0; c < total; ++c) {
      geometry.CoordsOfIndex(static_cast<CellIndex>(c),
                             cell_coords.data() + c * kk);
    }
    const auto reference_marked = [&](size_t c) {
      if (lookahead[c]) return true;
      for (size_t q = 0; q < total; ++q) {
        if (ever_populated[q] &&
            DominanceIndex::CoordsStrictlyBelow(cell_coords.data() + q * kk,
                                                cell_coords.data() + c * kk,
                                                k)) {
          return true;
        }
      }
      return false;
    };

    for (size_t i = 0; i < n;) {
      // The first batch holds the guaranteed points, which the look-ahead
      // marks already count on.
      const size_t m =
          std::max<size_t>(i == 0 ? guaranteed : 0,
                           std::min<size_t>(n - i, 1 + rng.NextBelow(40)));
      table.InsertBatch(pts.data() + i * kk, ids.data() + i, m);
      for (size_t t = i; t < i + m; ++t) {
        geometry.CoordsOf(pts.data() + t * kk, coords.data());
        const size_t c = static_cast<size_t>(geometry.IndexOf(coords.data()));
        if (reference_marked(c)) continue;
        bool dominated = false;
        for (size_t j = 0; j < t && !dominated; ++j) {
          dominated = DominatesMin(pts.data() + j * kk, pts.data() + t * kk,
                                   k, nullptr);
        }
        if (!dominated) ever_populated[c] = 1;
      }
      i += m;

      for (size_t c = 0; c < total; ++c) {
        ASSERT_EQ(table.marked(static_cast<CellIndex>(c)),
                  reference_marked(c))
            << "seed " << seed << " cell " << c << " after " << i;
      }
      // Live tuples: flush every populated cell of a copy.
      OutputTable copy = table;
      std::vector<double> values;
      std::vector<CellTupleIds> live;
      for (CellIndex c : copy.PopulatedCells()) {
        copy.FlushCell(c, &values, &live);
      }
      std::vector<uint32_t> got;
      for (const CellTupleIds& id : live) got.push_back(id.r);
      std::sort(got.begin(), got.end());
      const PointView prefix{pts.data(), i, k};
      ASSERT_EQ(got, SkylineReference(prefix))
          << "seed " << seed << " after " << i;
    }
  }
}

}  // namespace
}  // namespace progxe
