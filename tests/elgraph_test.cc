// Tests for region elimination predicates and the EL-Graph (P6).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.h"
#include "elgraph/el_graph.h"
#include "progxe/output_table.h"

namespace progxe {
namespace {

Region MakeRegion(int32_t id, std::vector<CellCoord> lo,
                  std::vector<CellCoord> hi) {
  Region region;
  region.id = id;
  region.lo_cell = std::move(lo);
  region.hi_cell = std::move(hi);
  return region;
}

TEST(RegionPredicates, CanEliminate) {
  // u's lower cell strictly below v's upper cell in all dims.
  Region u = MakeRegion(0, {0, 0}, {2, 2});
  Region v = MakeRegion(1, {2, 2}, {4, 4});
  EXPECT_TRUE(CanEliminate(u, v));   // cell (0,0) < cell (4,4)
  EXPECT_FALSE(CanEliminate(v, u));  // v.lo (2,2) is not < u.hi (2,2)
}

TEST(RegionPredicates, CanEliminateAsymmetry) {
  Region u = MakeRegion(0, {0, 0}, {1, 1});
  Region v = MakeRegion(1, {3, 3}, {4, 4});
  EXPECT_TRUE(CanEliminate(u, v));
  EXPECT_FALSE(CanEliminate(v, u));  // 3 < 1 fails
}

TEST(RegionPredicates, IncomparableBoxes) {
  // Disjoint in an anti-diagonal arrangement: neither eliminates.
  Region u = MakeRegion(0, {0, 5}, {1, 6});
  Region v = MakeRegion(1, {5, 0}, {6, 1});
  EXPECT_FALSE(CanEliminate(u, v));  // u.lo[1]=5 < v.hi[1]=1 fails
  EXPECT_FALSE(CanEliminate(v, u));
}

TEST(RegionPredicates, CompleteElimination) {
  Region u = MakeRegion(0, {0, 0}, {1, 1});
  Region v = MakeRegion(1, {2, 2}, {4, 4});
  EXPECT_TRUE(CompletelyEliminates(u, v));
  Region w = MakeRegion(2, {1, 1}, {4, 4});  // overlaps v's lower corner
  EXPECT_FALSE(CompletelyEliminates(w, v) && !CanEliminate(w, v));
}

TEST(Region, ActiveLifecycle) {
  Region region = MakeRegion(0, {0}, {1});
  EXPECT_TRUE(region.Active());
  region.pruned = true;
  EXPECT_FALSE(region.Active());
  region.pruned = false;
  region.processed = true;
  EXPECT_FALSE(region.Active());
  region.processed = false;
  region.discarded = true;
  EXPECT_FALSE(region.Active());
}

TEST(Region, BoxVolume) {
  Region region = MakeRegion(0, {1, 2, 3}, {2, 2, 5});
  EXPECT_EQ(region.BoxVolume(), 2 * 1 * 3);
}

std::vector<Region> RandomRegions(Rng* rng, int count, int dims,
                                  CellCoord cells) {
  std::vector<Region> regions;
  for (int i = 0; i < count; ++i) {
    std::vector<CellCoord> lo(static_cast<size_t>(dims));
    std::vector<CellCoord> hi(static_cast<size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      lo[static_cast<size_t>(d)] =
          static_cast<CellCoord>(rng->NextBelow(static_cast<uint64_t>(cells)));
      hi[static_cast<size_t>(d)] = static_cast<CellCoord>(
          lo[static_cast<size_t>(d)] +
          static_cast<CellCoord>(rng->NextBelow(3)));
      hi[static_cast<size_t>(d)] =
          std::min<CellCoord>(hi[static_cast<size_t>(d)], cells - 1);
    }
    regions.push_back(MakeRegion(static_cast<int32_t>(i), lo, hi));
  }
  return regions;
}

// An EL-Graph over `regions` on a dims x cells grid, with the output table
// whose coverage counters it reads.
struct GraphFixture {
  GraphFixture(const std::vector<Region>& regions, int dims, CellCoord cells)
      : geometry(std::vector<Interval>(static_cast<size_t>(dims),
                                       Interval(0, 1)),
                 cells),
        table(geometry,
              std::vector<uint8_t>(static_cast<size_t>(geometry.total_cells()),
                                   0),
              &stats) {
    table.InitCoverage(regions);
    graph = std::make_unique<ElGraph>(regions, &table);
  }

  /// Marks `region` processed and removes it from coverage and the graph.
  std::vector<int32_t> Remove(Region* region) {
    region->processed = true;
    lowered = table.ReleaseRegionCoverage(*region).lowered;
    return graph->OnRegionRemoved(region->id, lowered);
  }

  ProgXeStats stats;
  GridGeometry geometry;
  OutputTable table;
  std::unique_ptr<ElGraph> graph;
  std::vector<CellIndex> lowered;
};

TEST(ElGraph, IndegreesMatchBruteForce) {
  Rng rng(21);
  std::vector<Region> regions = RandomRegions(&rng, 40, 3, 6);
  GraphFixture fx(regions, 3, 6);
  ElGraph& graph = *fx.graph;
  for (const Region& v : regions) {
    int64_t expected = 0;
    for (const Region& u : regions) {
      if (u.id == v.id) continue;
      if (CanEliminate(u, v)) ++expected;
    }
    EXPECT_EQ(graph.indegree(v.id), expected);
  }
}

TEST(ElGraph, RootsHaveZeroIndegree) {
  Rng rng(5);
  std::vector<Region> regions = RandomRegions(&rng, 30, 2, 8);
  GraphFixture fx(regions, 2, 8);
  ElGraph& graph = *fx.graph;
  for (int32_t root : graph.InitialRoots(regions)) {
    EXPECT_EQ(graph.indegree(root), 0);
  }
}

TEST(ElGraph, RemovalPromotesNewRoots) {
  Rng rng(9);
  std::vector<Region> regions = RandomRegions(&rng, 50, 2, 10);
  GraphFixture fx(regions, 2, 10);
  ElGraph& graph = *fx.graph;
  std::set<int32_t> roots;
  for (int32_t r : graph.InitialRoots(regions)) roots.insert(r);

  // Remove regions one by one in id order; every removal's new roots must
  // previously have had positive indegree and now have zero.
  for (Region& region : regions) {
    if (!region.Active()) continue;
    for (int32_t nr : fx.Remove(&region)) {
      EXPECT_EQ(graph.indegree(nr), 0);
      EXPECT_TRUE(roots.insert(nr).second) << "root reported twice";
    }
  }
  // After removing everything, every region must have become a root at some
  // point (no region is permanently blocked unless cyclic; with removal of
  // all vertices, cycles also drain).
  size_t rooted = roots.size();
  size_t cyclic_leftover = regions.size() - rooted;
  // All regions were removed, so indegrees are consistent; any leftover
  // means mutual elimination cycles whose members were processed without
  // ever being roots — allowed, but their count must match NonRootCount of
  // an empty graph (0 active regions left).
  EXPECT_EQ(graph.NonRootCount(), 0u);
  EXPECT_LE(cyclic_leftover, regions.size());
}

TEST(ElGraph, DoubleRemovalIsIgnored) {
  Rng rng(2);
  std::vector<Region> regions = RandomRegions(&rng, 10, 2, 4);
  GraphFixture fx(regions, 2, 4);
  fx.Remove(&regions[0]);
  EXPECT_TRUE(fx.graph->OnRegionRemoved(0, fx.lowered).empty());
}

TEST(ElGraph, InactiveRegionsExcluded) {
  Rng rng(4);
  std::vector<Region> regions = RandomRegions(&rng, 20, 2, 6);
  regions[3].pruned = true;
  regions[7].discarded = true;
  GraphFixture fx(regions, 2, 6);
  auto roots = fx.graph->InitialRoots(regions);
  for (int32_t r : roots) {
    EXPECT_NE(r, 3);
    EXPECT_NE(r, 7);
  }
}

}  // namespace
}  // namespace progxe
