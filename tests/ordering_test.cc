// Focused tests for ProgOrder (Algorithm 1) and the progressive flush rule
// (Algorithm 2) behaviours that the end-to-end tests exercise only
// implicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "elgraph/el_graph.h"
#include "harness/experiment.h"
#include "progxe/output_table.h"
#include "progxe/prog_order.h"

namespace progxe {
namespace {

// --- Flush rule over a hand-built 2-d scenario -----------------------------
//
// A region's removal flushes the populated cells whose cover_lo it brings
// to zero (OutputTable::ReleaseRegionCoverage's `flush` list).

class FlushRuleTest : public ::testing::Test {
 protected:
  FlushRuleTest()
      : geometry_({Interval(0, 10), Interval(0, 10)}, 5),
        table_(geometry_,
               std::vector<uint8_t>(
                   static_cast<size_t>(geometry_.total_cells()), 0),
               &stats_) {}

  Region MakeRegion(int32_t id, double lo_x, double lo_y, double hi_x,
                    double hi_y) {
    Region region;
    region.id = id;
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

  CellIndex CellAt(double x, double y) const {
    const double pt[] = {x, y};
    CellCoord coords[2];
    geometry_.CoordsOf(pt, coords);
    return geometry_.IndexOf(coords);
  }

  std::vector<CellIndex> Release(const Region& region) {
    return table_.ReleaseRegionCoverage(region).flush;
  }

  ProgXeStats stats_;
  GridGeometry geometry_;
  OutputTable table_;
};

TEST_F(FlushRuleTest, FlushesImmediatelyWhenConeClear) {
  // One region near the origin; after it completes its populated cells have
  // an empty dominator cone and flush at once.
  std::vector<Region> regions{MakeRegion(0, 0, 0, 3.9, 3.9)};
  table_.InitCoverage(regions);
  const double pt[] = {1.0, 1.0};
  table_.Insert(pt, 0, 0);
  auto flush = Release(regions[0]);
  ASSERT_EQ(flush.size(), 1u);
  EXPECT_EQ(flush[0], CellAt(1.0, 1.0));
}

TEST_F(FlushRuleTest, HoldsCellUntilThreateningRegionCompletes) {
  // Region A covers upper-right cells; region B covers cells in A's
  // dominator cone. A's populated cell must wait for B.
  std::vector<Region> regions{MakeRegion(0, 4.0, 4.0, 7.9, 7.9),
                              MakeRegion(1, 0.0, 0.0, 3.9, 3.9)};
  table_.InitCoverage(regions);
  const double pt[] = {5.0, 5.0};
  table_.Insert(pt, 0, 0);

  EXPECT_TRUE(Release(regions[0]).empty())
      << "flushed while region B could still fill the dominator cone";
  EXPECT_EQ(table_.cover_lo(CellAt(5.0, 5.0)), 1);

  auto flush_b = Release(regions[1]);
  ASSERT_EQ(flush_b.size(), 1u);
  EXPECT_EQ(flush_b[0], CellAt(5.0, 5.0));
}

TEST_F(FlushRuleTest, SliceNeighborAlsoBlocks) {
  // B shares a row (same y-range) with A's populated cell: only partially
  // threatening, but the cell must still wait (Set 3 of Figure 9).
  std::vector<Region> regions{MakeRegion(0, 4.0, 0.0, 7.9, 1.9),
                              MakeRegion(1, 0.0, 0.0, 1.9, 1.9)};
  table_.InitCoverage(regions);
  const double pt[] = {5.0, 1.0};
  table_.Insert(pt, 0, 0);
  EXPECT_TRUE(Release(regions[0]).empty());
  EXPECT_EQ(Release(regions[1]).size(), 1u);
}

TEST_F(FlushRuleTest, MarkedCellsNeverFlush) {
  std::vector<Region> regions{MakeRegion(0, 0, 0, 7.9, 7.9)};
  table_.InitCoverage(regions);
  const double low[] = {1.0, 1.0};
  const double high[] = {5.0, 5.0};
  table_.Insert(low, 0, 0);
  table_.Insert(high, 1, 1);  // cell marked by the low one: discarded
  auto flush = Release(regions[0]);
  ASSERT_EQ(flush.size(), 1u);  // only the low cell
  EXPECT_EQ(flush[0], CellAt(1.0, 1.0));
}

TEST_F(FlushRuleTest, UnpopulatedCellsNeverFlush) {
  std::vector<Region> regions{MakeRegion(0, 0, 0, 7.9, 7.9)};
  table_.InitCoverage(regions);
  EXPECT_TRUE(Release(regions[0]).empty());
}

TEST_F(FlushRuleTest, CellEmptiedByEvictionDoesNotFlush) {
  // B's tuple evicts A's only tuple before A's cell clears: the cell holds
  // no live tuple when its cover_lo reaches 0, so nothing flushes for it.
  std::vector<Region> regions{MakeRegion(0, 4.0, 0.0, 7.9, 1.9),
                              MakeRegion(1, 0.0, 0.0, 1.9, 1.9)};
  table_.InitCoverage(regions);
  const double a[] = {5.0, 1.0};
  const double b[] = {1.0, 0.5};  // same row, dominates a
  table_.Insert(a, 0, 0);
  EXPECT_TRUE(Release(regions[0]).empty());
  table_.Insert(b, 1, 1);
  EXPECT_EQ(table_.AliveCount(CellAt(5.0, 1.0)), 0u);
  auto flush = Release(regions[1]);
  ASSERT_EQ(flush.size(), 1u);
  EXPECT_EQ(flush[0], CellAt(1.0, 0.5));
}

// --- ProgOrder ranking behaviour -------------------------------------------

TEST(ProgOrder, PrefersUnthreatenedCheapRegions) {
  // Build a scenario where region 0 sits alone near the origin (high
  // benefit: all cells exclusively its own) and region 1 overlaps a third
  // region (reduced ProgCount). ProgOrder must pick region 0 first.
  ProgXeStats stats;
  GridGeometry geometry({Interval(0, 10), Interval(0, 10)}, 5);
  OutputTable table(
      geometry,
      std::vector<uint8_t>(static_cast<size_t>(geometry.total_cells()), 0),
      &stats);

  auto mk = [&](int32_t id, double lo_x, double lo_y, double hi_x,
                double hi_y) {
    Region region;
    region.id = id;
    // Partition indices into the size vectors ProgOrder reads below.
    region.a = id;
    region.b = id;
    region.bounds = {Interval(lo_x, hi_x), Interval(lo_y, hi_y)};
    region.lo_cell.resize(2);
    region.hi_cell.resize(2);
    for (int d = 0; d < 2; ++d) {
      geometry.CoordRange(d, region.bounds[static_cast<size_t>(d)],
                          &region.lo_cell[static_cast<size_t>(d)],
                          &region.hi_cell[static_cast<size_t>(d)]);
    }
    return region;
  };
  // Disjoint, mutually incomparable boxes (anti-diagonal): no elimination
  // edges, so all are roots and ranking decides alone.
  std::vector<Region> regions{
      mk(0, 0.0, 8.0, 1.9, 9.9),   // top-left, alone
      mk(1, 8.0, 0.0, 9.9, 1.9),   // bottom-right...
      mk(2, 8.0, 0.0, 9.9, 1.9),   // ...overlapped by region 2 exactly
  };
  table.InitCoverage(regions);
  ElGraph graph(regions, &table);
  CostModelParams cost;
  cost.sigma = 0.01;
  cost.cells_per_dim = 5;
  cost.dims = 2;
  // Equal partition sizes: benefit differences come from ProgCount only.
  ProgOrder order(&regions, &graph, &table, cost, {100, 100, 100},
                  {100, 100, 100}, OrderingMode::kProgOrder, 1, &stats);

  EXPECT_GT(table.ProgCount(regions[0]), 0);
  EXPECT_EQ(table.ProgCount(regions[1]), 0);  // fully shared w/ 2
  const int32_t first = order.PopNext();
  EXPECT_EQ(first, 0);
}

TEST(ProgOrder, RandomModeVisitsEveryActiveRegionOnce) {
  ProgXeStats stats;
  GridGeometry geometry({Interval(0, 10)}, 4);
  OutputTable table(
      geometry,
      std::vector<uint8_t>(static_cast<size_t>(geometry.total_cells()), 0),
      &stats);
  std::vector<Region> regions;
  for (int32_t i = 0; i < 20; ++i) {
    Region region;
    region.id = i;
    region.bounds = {Interval(0, 10)};
    region.lo_cell = {0};
    region.hi_cell = {3};
    if (i % 5 == 0) region.pruned = true;
    regions.push_back(region);
  }
  ProgOrder order(&regions, nullptr, &table, CostModelParams(), {}, {},
                  OrderingMode::kRandom, 99, &stats);
  std::set<int32_t> seen;
  for (;;) {
    int32_t id = order.PopNext();
    if (id < 0) break;
    EXPECT_TRUE(seen.insert(id).second);
    EXPECT_TRUE(regions[static_cast<size_t>(id)].Active());
    regions[static_cast<size_t>(id)].processed = true;
  }
  EXPECT_EQ(seen.size(), 16u);  // 20 minus 4 pruned
}

TEST(ProgOrder, OrderingImprovesEarlyOutputOnAntiCorrelated) {
  // End-to-end shape check (Figure 10.c): with ordering, the first half of
  // results arrives in fewer join pairs' worth of work... measured here by
  // the fraction of results already emitted when 50% of wall time elapsed.
  WorkloadParams params;
  params.distribution = Distribution::kAntiCorrelated;
  params.cardinality = 4000;
  params.dims = 4;
  params.sigma = 0.002;
  params.seed = 11;
  auto workload = Workload::Make(params);
  ASSERT_TRUE(workload.ok());

  auto ordered = RunAlgorithm(Algo::kProgXe, *workload);
  auto random = RunAlgorithm(Algo::kProgXeNoOrder, *workload);
  ASSERT_TRUE(ordered.ok());
  ASSERT_TRUE(random.ok());
  ASSERT_EQ(ordered->results.size(), random->results.size());
  // Ordered processing must reach 50% of its results in a smaller fraction
  // of its own total runtime than random ordering.
  const double ordered_frac =
      ordered->metrics.time_to_50pct / ordered->metrics.total_time;
  const double random_frac =
      random->metrics.time_to_50pct / random->metrics.total_time;
  EXPECT_LT(ordered_frac, random_frac);
}

}  // namespace
}  // namespace progxe
