// Tests for output-space look-ahead (Section III-A): region bounds
// soundness, signature skipping, region pruning soundness (P4) and
// partition marking soundness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>

#include "common/rng.h"
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
  s.r_grid = std::make_unique<InputGrid>(s.r, *s.rc, KeyIndex(s.r), opts);
  s.t_grid = std::make_unique<InputGrid>(s.t, *s.tc, KeyIndex(s.t), opts);
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

// The marking predicate of Example 3, cell by cell: some guaranteed upper
// corner dominates the cell's lower corner.
std::vector<uint8_t> FrontierPredicateMarks(const LookaheadResult& la) {
  const GridGeometry& grid = la.output_grid;
  const int k = grid.dimensions();
  const size_t frontier_n = la.guaranteed_upper_frontier.size() /
                            static_cast<size_t>(k);
  std::vector<uint8_t> marks(static_cast<size_t>(grid.total_cells()), 0);
  std::vector<CellCoord> coords(static_cast<size_t>(k));
  std::vector<double> cell_lo(static_cast<size_t>(k));
  for (CellIndex c = 0; c < grid.total_cells(); ++c) {
    grid.CoordsOfIndex(c, coords.data());
    for (int j = 0; j < k; ++j) {
      cell_lo[static_cast<size_t>(j)] =
          grid.CellLower(j, coords[static_cast<size_t>(j)]);
    }
    for (size_t f = 0; f < frontier_n && !marks[static_cast<size_t>(c)];
         ++f) {
      marks[static_cast<size_t>(c)] = DominatesMin(
          la.guaranteed_upper_frontier.data() + f * static_cast<size_t>(k),
          cell_lo.data(), k);
    }
  }
  return marks;
}

LookaheadResult RunLookahead(const Relation& r, const Relation& t,
                             const CanonicalMapper& mapper, int input_cells,
                             int output_cells) {
  const ContributionTable rc(r, mapper, Side::kR);
  const ContributionTable tc(t, mapper, Side::kT);
  InputGridOptions opts;
  opts.cells_per_dim = input_cells;
  LookaheadOptions la_opts;
  la_opts.output_cells_per_dim = output_cells;
  return OutputSpaceLookahead(InputGrid(r, rc, KeyIndex(r), opts),
                              InputGrid(t, tc, KeyIndex(t), opts), mapper,
                              la_opts)
      .MoveValue();
}

/// Integer values in [0, 4] on a few join keys, with an all-0 and an all-4
/// row on a shared key so the output hull is exactly [0, 8] per dimension:
/// at 2, 4 or 8 output cells per dimension every cell boundary is an
/// integer, and many upper corners (integer sums) lie exactly on one.
/// With `flat`, dimension 0 is 2 everywhere: a zero-width dimension the
/// grid widens.
Relation IntegerRelation(Rng* rng, int d, size_t n, bool flat) {
  Relation rel(Schema::Anonymous(d));
  std::vector<double> v(static_cast<size_t>(d));
  for (size_t i = 0; i < n + 2; ++i) {
    for (int j = 0; j < d; ++j) {
      const double x = i == 0   ? 0.0
                       : i == 1 ? 4.0
                                : static_cast<double>(rng->NextBelow(5));
      v[static_cast<size_t>(j)] = flat && j == 0 ? 2.0 : x;
    }
    rel.Append(v, i < 2 ? 0 : static_cast<JoinKey>(rng->NextBelow(4)));
  }
  return rel;
}

// The look-ahead builds its marks as the up-closure of one seed per
// frontier point and dimension; that set must be exactly the cell-by-cell
// predicate's, ties on cell boundaries and zero-width dimensions included.
TEST(Lookahead, MarksEqualTheFrontierPredicate) {
  Rng rng(0x1a4e);
  for (int k : {2, 3, 4, 6, 8}) {
    const CanonicalMapper mapper(MapSpec::PairwiseSum(k),
                                 Preference::AllLowest(k));
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE("k=" + std::to_string(k) + " trial=" +
                   std::to_string(trial));
      const int input_cells = 1 + trial % 3;
      Relation r(Schema::Anonymous(k));
      Relation t(Schema::Anonymous(k));
      int output_cells = 0;
      if (trial < 3) {
        GeneratorOptions gen;
        gen.distribution = static_cast<Distribution>(trial);
        gen.cardinality = 150;
        gen.num_attributes = k;
        gen.join_selectivity = 0.05;
        gen.seed = rng.Next();
        r = GenerateRelation(gen).MoveValue();
        gen.seed = rng.Next();
        t = GenerateRelation(gen).MoveValue();
        output_cells = 3 + static_cast<int>(rng.NextBelow(k <= 4 ? 8 : 2));
      } else {
        const bool flat = trial == 5;
        r = IntegerRelation(&rng, k, 60, flat);
        t = IntegerRelation(&rng, k, 60, flat);
        output_cells = k <= 4 ? (trial == 3 ? 8 : 4) : 2 + 2 * (trial % 2);
      }
      const LookaheadResult la =
          RunLookahead(r, t, mapper, input_cells, output_cells);
      ASSERT_FALSE(la.guaranteed_upper_frontier.empty());
      const std::vector<uint8_t> expected = FrontierPredicateMarks(la);
      EXPECT_EQ(la.marked, expected);
      EXPECT_EQ(la.stats.cells_marked,
                static_cast<size_t>(
                    std::count(expected.begin(), expected.end(), 1)));
    }
  }
}

// A frontier corner exactly on a cell boundary: the cell whose lower corner
// equals it is not marked (no strict improvement); the cells above it in
// any dimension are.
TEST(Lookahead, CornerOnABoundaryMarksOnlyStrictlyAbove) {
  Relation r(Schema::Anonymous(2));
  Relation t(Schema::Anonymous(2));
  for (const auto& v : {std::array<double, 2>{1.0, 1.0},
                        std::array<double, 2>{0.0, 4.0},
                        std::array<double, 2>{4.0, 0.0}}) {
    r.Append(v, 0);
    t.Append(v, 0);
  }
  const CanonicalMapper mapper(MapSpec::PairwiseSum(2),
                               Preference::AllLowest(2));
  // Four input cells per dimension keep the three rows apart, so the
  // upper corners are the pairwise sums: the frontier holds (2, 2), and
  // the hull is [0, 8]^2, whose 4-cell grid has lines at 0, 2, 4 and 6.
  const LookaheadResult la = RunLookahead(r, t, mapper, 4, 4);
  EXPECT_EQ(la.marked, FrontierPredicateMarks(la));
  auto marked = [&la](CellCoord x, CellCoord y) {
    const CellCoord coords[2] = {x, y};
    return la.marked[static_cast<size_t>(la.output_grid.IndexOf(coords))];
  };
  EXPECT_EQ(marked(1, 1), 0);  // lower corner (2, 2) ties the frontier
  EXPECT_EQ(marked(2, 1), 1);
  EXPECT_EQ(marked(1, 2), 1);
  EXPECT_EQ(marked(3, 3), 1);
  EXPECT_EQ(marked(0, 3), 0);  // (0, 6): no corner is <= it
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
  s.r_grid = std::make_unique<InputGrid>(s.r, *s.rc, KeyIndex(s.r), opts);
  s.t_grid = std::make_unique<InputGrid>(s.t, *s.tc, KeyIndex(s.t), opts);
  LookaheadOptions la_opts;
  la_opts.output_cells_per_dim = 64;  // 64^5 cells
  auto result = OutputSpaceLookahead(*s.r_grid, *s.t_grid, s.mapper, la_opts);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace progxe
