// Differential test of the region-coverage counter and its three readers
// (ProgCount, the flush rule of Algorithm 2, EL-Graph) against brute-force
// references.
//
// Random region sets over 2-5 dimensions are removed in random order, with
// populate, evict-to-empty and kill events (plain OutputTable inserts)
// interleaved. After every removal:
//   - cover_lo must equal per-region up-set walks over the active regions,
//     and ProgCount the box count of cover == 1, unmarked;
//   - the flush list must equal the paper's cone rule, with RegCount (the
//     active regions whose box holds a cell) counted by box walks: a cell
//     flushes in the removal that leaves no cell of its dominator cone with
//     RegCount > 0, if it holds live tuples then;
//   - EL-Graph in-degrees and the new roots must equal pairwise
//     CanEliminate counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "elgraph/el_graph.h"
#include "progxe/output_table.h"

namespace progxe {
namespace {

struct Tally {
  int removals = 0;
  int flushes = 0;
  int killed = 0;
  int new_roots = 0;
};

class CoverageScenario {
 public:
  CoverageScenario(uint64_t seed, Tally* tally)
      : rng_(seed), tally_(tally) {
    dims_ = 2 + static_cast<int>(rng_.NextBelow(4));
    // 3-15 cells per dimension, with the grid kept small enough for the
    // brute-force references.
    const int cap = std::min(
        15, static_cast<int>(std::pow(1500.0, 1.0 / dims_)));
    cells_ = 3 + static_cast<int>(rng_.NextBelow(
                     static_cast<uint64_t>(cap - 3 + 1)));
    geometry_ = GridGeometry(
        std::vector<Interval>(static_cast<size_t>(dims_),
                              Interval(0, cells_)),
        cells_);
    total_ = static_cast<size_t>(geometry_.total_cells());
    table_ = std::make_unique<OutputTable>(
        geometry_, std::vector<uint8_t>(total_, 0), &stats_);
    MakeRegions();
    table_->InitCoverage(regions_);
    graph_ = std::make_unique<ElGraph>(regions_, table_.get());
  }

  void Run() {
    CheckCounters();
    std::vector<int64_t> indegree = BruteIndegrees();
    for (const Region& v : regions_) {
      if (!v.Active()) continue;
      ASSERT_EQ(graph_->indegree(v.id), indegree[static_cast<size_t>(v.id)])
          << "initial in-degree of region " << v.id;
    }
    std::vector<int32_t> order;
    for (const Region& region : regions_) {
      if (region.Active()) order.push_back(region.id);
    }
    rng_.Shuffle(&order);
    for (int32_t id : order) {
      const int inserts = static_cast<int>(rng_.NextBelow(7));
      for (int i = 0; i < inserts; ++i) RandomInsert();
      Remove(id, &indegree);
      if (testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  void MakeRegions() {
    const int count = 8 + static_cast<int>(rng_.NextBelow(25));
    for (int i = 0; i < count; ++i) {
      Region region;
      region.id = i;
      region.lo_cell.resize(static_cast<size_t>(dims_));
      region.hi_cell.resize(static_cast<size_t>(dims_));
      for (size_t d = 0; d < static_cast<size_t>(dims_); ++d) {
        const CellCoord lo = static_cast<CellCoord>(
            rng_.NextBelow(static_cast<uint64_t>(cells_)));
        const CellCoord room = cells_ - 1 - lo;
        const CellCoord extent = static_cast<CellCoord>(rng_.NextBelow(
            static_cast<uint64_t>(std::min<CellCoord>(room, 3) + 1)));
        region.lo_cell[d] = lo;
        region.hi_cell[d] = lo + extent;
      }
      region.pruned = rng_.NextBelow(10) == 0;
      regions_.push_back(std::move(region));
    }
  }

  // --- Brute-force references ---------------------------------------------

  std::vector<int32_t> BruteRegCount() const {
    std::vector<int32_t> counts(total_, 0);
    for (const Region& region : regions_) {
      if (!region.Active()) continue;
      geometry_.ForEachCellInBox(
          region.lo_cell.data(), region.hi_cell.data(),
          [&](CellIndex c) { ++counts[static_cast<size_t>(c)]; });
    }
    return counts;
  }

  std::vector<int32_t> BruteCoverLo() const {
    std::vector<int32_t> counts(total_, 0);
    const std::vector<CellCoord> top(static_cast<size_t>(dims_), cells_ - 1);
    for (const Region& region : regions_) {
      if (!region.Active()) continue;
      geometry_.ForEachCellInBox(
          region.lo_cell.data(), top.data(),
          [&](CellIndex c) { ++counts[static_cast<size_t>(c)]; });
    }
    return counts;
  }

  std::vector<int64_t> BruteIndegrees() const {
    std::vector<int64_t> indegree(regions_.size(), 0);
    for (const Region& v : regions_) {
      if (!v.Active()) continue;
      for (const Region& u : regions_) {
        if (u.Active() && u.id != v.id && CanEliminate(u, v)) {
          ++indegree[static_cast<size_t>(v.id)];
        }
      }
    }
    return indegree;
  }

  /// Cells of c's dominator cone (all coordinates <=) with RegCount > 0.
  int64_t ConeBlockers(CellIndex c, const std::vector<int32_t>& reg) const {
    std::vector<CellCoord> hi(static_cast<size_t>(dims_));
    geometry_.CoordsOfIndex(c, hi.data());
    const std::vector<CellCoord> zero(static_cast<size_t>(dims_), 0);
    int64_t blockers = 0;
    geometry_.ForEachCellInBox(zero.data(), hi.data(), [&](CellIndex q) {
      if (reg[static_cast<size_t>(q)] > 0) ++blockers;
    });
    return blockers;
  }

  void CheckCounters() {
    const std::vector<int32_t> cover = BruteCoverLo();
    for (size_t c = 0; c < total_; ++c) {
      ASSERT_EQ(table_->cover_lo(static_cast<CellIndex>(c)), cover[c])
          << "cover_lo of cell " << c;
    }
    for (const Region& region : regions_) {
      if (!region.Active()) continue;
      int64_t expected = 0;
      geometry_.ForEachCellInBox(
          region.lo_cell.data(), region.hi_cell.data(), [&](CellIndex c) {
            if (!table_->marked(c) && cover[static_cast<size_t>(c)] == 1) {
              ++expected;
            }
          });
      ASSERT_EQ(table_->ProgCount(region), expected)
          << "ProgCount of region " << region.id;
    }
  }

  // --- Events ---------------------------------------------------------------

  /// Inserts one tuple at a random point of a random cell that an active
  /// region still covers — the only cells a real run inserts into. Random
  /// points populate cells, evict tuples (sometimes emptying a cell) and
  /// kill strictly dominated cells.
  void RandomInsert() {
    const std::vector<int32_t> reg = BruteRegCount();
    std::vector<CellIndex> covered;
    for (size_t c = 0; c < total_; ++c) {
      if (reg[c] > 0) covered.push_back(static_cast<CellIndex>(c));
    }
    if (covered.empty()) return;
    const CellIndex c = covered[rng_.NextBelow(covered.size())];
    std::vector<CellCoord> coords(static_cast<size_t>(dims_));
    geometry_.CoordsOfIndex(c, coords.data());
    std::vector<double> point(static_cast<size_t>(dims_));
    for (size_t d = 0; d < coords.size(); ++d) {
      point[d] = coords[d] + 0.05 + 0.9 * rng_.NextDouble();
    }
    const size_t marked_before = MarkedCount();
    table_->Insert(point.data(), next_row_, next_row_);
    ++next_row_;
    tally_->killed += static_cast<int>(MarkedCount() - marked_before);
  }

  size_t MarkedCount() const {
    size_t n = 0;
    for (size_t c = 0; c < total_; ++c) {
      n += table_->marked(static_cast<CellIndex>(c)) ? 1 : 0;
    }
    return n;
  }

  void Remove(int32_t id, std::vector<int64_t>* indegree) {
    Region& region = regions_[static_cast<size_t>(id)];
    const std::vector<int32_t> reg_before = BruteRegCount();
    region.processed = true;
    ++tally_->removals;
    const std::vector<int32_t> reg_after = BruteRegCount();

    // Cone reference (Algorithm 2): a cell holding live tuples flushes in
    // the removal that clears its dominator cone of RegCount. A marked cell
    // holds none, and an emitted one was cleared by an earlier removal.
    std::vector<CellIndex> expected_flush;
    for (size_t c = 0; c < total_; ++c) {
      const CellIndex ci = static_cast<CellIndex>(c);
      if (table_->populated(ci) && ConeBlockers(ci, reg_before) != 0 &&
          ConeBlockers(ci, reg_after) == 0) {
        expected_flush.push_back(ci);
      }
    }

    const OutputTable::CoverageRelease release =
        table_->ReleaseRegionCoverage(region);
    CheckCounters();
    if (testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(release.flush, expected_flush)
        << "flush list after removing " << id;

    const std::vector<int64_t> after = BruteIndegrees();
    std::vector<int32_t> expected_roots;
    for (const Region& v : regions_) {
      if (!v.Active()) continue;
      const size_t vi = static_cast<size_t>(v.id);
      ASSERT_EQ(graph_->indegree(v.id), after[vi])
          << "in-degree of region " << v.id << " after removing " << id;
      if ((*indegree)[vi] > 0 && after[vi] == 0) expected_roots.push_back(v.id);
    }
    *indegree = after;
    const std::vector<int32_t> roots =
        graph_->OnRegionRemoved(id, release.lowered);
    ASSERT_EQ(roots, expected_roots) << "new roots after removing " << id;
    tally_->new_roots += static_cast<int>(roots.size());

    std::vector<double> values;
    std::vector<CellTupleIds> ids;
    for (CellIndex c : release.flush) {
      table_->FlushCell(c, &values, &ids);
      ++tally_->flushes;
    }
  }

  Rng rng_;
  Tally* tally_;
  int dims_ = 0;
  CellCoord cells_ = 0;
  size_t total_ = 0;
  ProgXeStats stats_;
  GridGeometry geometry_;
  std::unique_ptr<OutputTable> table_;
  std::vector<Region> regions_;
  std::unique_ptr<ElGraph> graph_;
  RowId next_row_ = 0;
};

TEST(CoverageDifferential, MatchesBruteForceUnderRandomRemovals) {
  Tally tally;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    CoverageScenario scenario(seed, &tally);
    scenario.Run();
    if (testing::Test::HasFatalFailure()) return;
  }
  // The scenarios must actually exercise every rule they check.
  EXPECT_GT(tally.removals, 2000);
  EXPECT_GT(tally.flushes, 500);
  EXPECT_GT(tally.killed, 100);
  EXPECT_GT(tally.new_roots, 200);
}

TEST(CoverageDifferential, PrefixSumBuildMatchesBoxWalksOnFullGrid) {
  // Overlapping up-sets, one of them a single cell of the top face.
  GridGeometry geometry({Interval(0, 4), Interval(0, 4), Interval(0, 4)}, 4);
  ProgXeStats stats;
  OutputTable table(
      geometry,
      std::vector<uint8_t>(static_cast<size_t>(geometry.total_cells()), 0),
      &stats);
  std::vector<Region> regions(3);
  regions[0].lo_cell = {0, 0, 0};
  regions[0].hi_cell = {3, 3, 3};
  regions[1].lo_cell = {2, 1, 3};
  regions[1].hi_cell = {3, 2, 3};
  regions[2].lo_cell = {1, 1, 1};
  regions[2].hi_cell = {1, 1, 1};
  for (int32_t i = 0; i < 3; ++i) regions[static_cast<size_t>(i)].id = i;
  table.InitCoverage(regions);
  std::vector<int32_t> cover(static_cast<size_t>(geometry.total_cells()), 0);
  const CellCoord top[] = {3, 3, 3};
  for (const Region& region : regions) {
    geometry.ForEachCellInBox(
        region.lo_cell.data(), top,
        [&](CellIndex c) { ++cover[static_cast<size_t>(c)]; });
  }
  for (CellIndex c = 0; c < geometry.total_cells(); ++c) {
    EXPECT_EQ(table.cover_lo(c), cover[static_cast<size_t>(c)]) << c;
  }
  EXPECT_EQ(table.cover_lo(geometry.IndexOf(top)), 3);
}

}  // namespace
}  // namespace progxe
