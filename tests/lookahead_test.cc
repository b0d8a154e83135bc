// Tests for output-space look-ahead (Section III-A): region bounds
// soundness, signature skipping, region pruning soundness (P4) and
// partition marking soundness.
#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "grid/input_grid.h"
#include "join/key_index.h"
#include "outputspace/lookahead.h"
#include "skyline/skyline.h"

namespace progxe {
namespace {

struct LaSetup {
  Relation r{Schema::Anonymous(0)};
  Relation t{Schema::Anonymous(0)};
  CanonicalMapper mapper;
  std::unique_ptr<ContributionTable> rc;
  std::unique_ptr<ContributionTable> tc;
  std::unique_ptr<InputGrid> r_grid;
  std::unique_ptr<InputGrid> t_grid;
  LookaheadResult la;
};

LaSetup MakeSetup(Distribution dist, size_t n, int d, double sigma,
                uint64_t seed, int input_cells = 3, int output_cells = 8) {
  LaSetup s;
  GeneratorOptions gen;
  gen.distribution = dist;
  gen.cardinality = n;
  gen.num_attributes = d;
  gen.join_selectivity = sigma;
  gen.seed = seed;
  s.r = GenerateRelation(gen).MoveValue();
  gen.seed = seed + 1;
  s.t = GenerateRelation(gen).MoveValue();
  s.mapper = CanonicalMapper(MapSpec::PairwiseSum(d),
                             Preference::AllLowest(d));
  s.rc = std::make_unique<ContributionTable>(s.r, s.mapper, Side::kR);
  s.tc = std::make_unique<ContributionTable>(s.t, s.mapper, Side::kT);
  InputGridOptions opts;
  opts.cells_per_dim = input_cells;
  s.r_grid = std::make_unique<InputGrid>(s.r, *s.rc, opts);
  s.t_grid = std::make_unique<InputGrid>(s.t, *s.tc, opts);
  LookaheadOptions la_opts;
  la_opts.output_cells_per_dim = output_cells;
  s.la = OutputSpaceLookahead(*s.r_grid, *s.t_grid, s.mapper, la_opts)
             .MoveValue();
  return s;
}

TEST(Lookahead, EveryJoinResultFallsInItsRegionBounds) {
  LaSetup s = MakeSetup(Distribution::kIndependent, 600, 3, 0.02, 42);
  const int k = 3;
  double buf[3];
  for (const Region& region : s.la.regions) {
    const InputPartition& pa =
        s.r_grid->partitions()[static_cast<size_t>(region.a)];
    const InputPartition& pb =
        s.t_grid->partitions()[static_cast<size_t>(region.b)];
    JoinIndexes(pa.key_index, pb.key_index, [&](RowId a, RowId b) {
      s.mapper.Combine(s.rc->vector(a), s.tc->vector(b), buf);
      for (int j = 0; j < k; ++j) {
        EXPECT_GE(buf[j], region.bounds[static_cast<size_t>(j)].lo - 1e-9);
        EXPECT_LE(buf[j], region.bounds[static_cast<size_t>(j)].hi + 1e-9);
      }
    });
  }
}

TEST(Lookahead, SkippedPairsProduceNoJoinResults) {
  LaSetup s = MakeSetup(Distribution::kIndependent, 600, 3, 0.0005, 7);
  ASSERT_GT(s.la.stats.pairs_skipped_signature, 0u)
      << "test needs at least one skipped pair to be meaningful";
  // Build the set of regions created and check complement pairs are empty.
  std::set<std::pair<int32_t, int32_t>> created;
  for (const Region& region : s.la.regions) {
    created.insert({region.a, region.b});
  }
  for (size_t a = 0; a < s.r_grid->num_partitions(); ++a) {
    for (size_t b = 0; b < s.t_grid->num_partitions(); ++b) {
      if (created.count({static_cast<int32_t>(a), static_cast<int32_t>(b)})) {
        continue;
      }
      const InputPartition& pa = s.r_grid->partitions()[a];
      const InputPartition& pb = s.t_grid->partitions()[b];
      size_t pairs = JoinIndexes(pa.key_index, pb.key_index,
                                 [](RowId, RowId) {});
      EXPECT_EQ(pairs, 0u) << "shared-key skip lost join results";
    }
  }
}

TEST(Lookahead, EveryRegionReallyProducesAResult) {
  LaSetup s = MakeSetup(Distribution::kCorrelated, 500, 2, 0.01, 3);
  for (const Region& region : s.la.regions) {
    const InputPartition& pa =
        s.r_grid->partitions()[static_cast<size_t>(region.a)];
    const InputPartition& pb =
        s.t_grid->partitions()[static_cast<size_t>(region.b)];
    size_t pairs =
        JoinIndexes(pa.key_index, pb.key_index, [](RowId, RowId) {});
    EXPECT_GT(pairs, 0u) << "region with empty join";
  }
}

// P4: no final-skyline tuple ever maps into a pruned region or a marked
// cell. Verified against a brute-force skyline of the full mapped join.
TEST(Lookahead, PruningSoundness) {
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAntiCorrelated,
        Distribution::kCorrelated}) {
    SCOPED_TRACE(DistributionName(dist));
    LaSetup s = MakeSetup(dist, 500, 3, 0.05, 11);
    const int k = 3;

    // Brute-force mapped join + skyline.
    std::vector<double> vals;
    double buf[3];
    JoinIndexes(KeyIndex(s.r), KeyIndex(s.t), [&](RowId a, RowId b) {
      s.mapper.Combine(s.rc->vector(a), s.tc->vector(b), buf);
      vals.insert(vals.end(), buf, buf + 3);
    });
    PointView view{vals.data(), vals.size() / 3, k};
    std::vector<uint32_t> sky = SkylineSFS(view);

    std::vector<CellCoord> coords(static_cast<size_t>(k));
    for (uint32_t idx : sky) {
      const double* p = view.point(idx);
      // Not inside any pruned region... a skyline tuple may map into several
      // regions' bounds; it must not be *only* producible by pruned ones.
      // Strong check: it must not fall in a marked cell.
      s.la.output_grid.CoordsOf(p, coords.data());
      const CellIndex cell = s.la.output_grid.IndexOf(coords.data());
      EXPECT_EQ(s.la.marked[static_cast<size_t>(cell)], 0)
          << "final skyline tuple in a marked cell";
    }

    // And: every pruned region's entire join output is dominated.
    for (const Region& region : s.la.regions) {
      if (!region.pruned) continue;
      const InputPartition& pa =
          s.r_grid->partitions()[static_cast<size_t>(region.a)];
      const InputPartition& pb =
          s.t_grid->partitions()[static_cast<size_t>(region.b)];
      JoinIndexes(pa.key_index, pb.key_index, [&](RowId a, RowId b) {
        s.mapper.Combine(s.rc->vector(a), s.tc->vector(b), buf);
        bool dominated = false;
        for (size_t i = 0; i < view.n && !dominated; ++i) {
          dominated = DominatesMin(view.point(i), buf, k);
        }
        EXPECT_TRUE(dominated)
            << "pruned region contained a non-dominated join result";
      });
    }
  }
}

TEST(Lookahead, RejectsOversizedOutputGrid) {
  LaSetup s;  // build manually to control options
  GeneratorOptions gen;
  gen.cardinality = 100;
  gen.num_attributes = 5;
  s.r = GenerateRelation(gen).MoveValue();
  gen.seed = 43;
  s.t = GenerateRelation(gen).MoveValue();
  s.mapper =
      CanonicalMapper(MapSpec::PairwiseSum(5), Preference::AllLowest(5));
  s.rc = std::make_unique<ContributionTable>(s.r, s.mapper, Side::kR);
  s.tc = std::make_unique<ContributionTable>(s.t, s.mapper, Side::kT);
  InputGridOptions opts;
  opts.cells_per_dim = 2;
  s.r_grid = std::make_unique<InputGrid>(s.r, *s.rc, opts);
  s.t_grid = std::make_unique<InputGrid>(s.t, *s.tc, opts);
  LookaheadOptions la_opts;
  la_opts.output_cells_per_dim = 64;  // 64^5 cells
  auto result = OutputSpaceLookahead(*s.r_grid, *s.t_grid, s.mapper, la_opts);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace progxe
