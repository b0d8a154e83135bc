// Tests for source-level / group-level skylines and the push-through
// pruning's result-preservation property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "data/generator.h"
#include "join/key_index.h"
#include "skyline/group_skyline.h"
#include "skyline/skyline.h"

namespace progxe {
namespace {

Relation TinyRelation() {
  // attrs (2-d), key:
  //  0: (1, 1) k=1   group-1 skyline, source skyline
  //  1: (2, 2) k=1   dominated within group 1
  //  2: (1, 5) k=2   group-2 skyline (not dominated in group 2)
  //  3: (0, 9) k=2   group-2 skyline, source skyline (best a0)
  //  4: (9, 0) k=3   group-3 skyline, source skyline (best a1)
  Relation rel(Schema::Anonymous(2));
  const double rows[][2] = {{1, 1}, {2, 2}, {1, 5}, {0, 9}, {9, 0}};
  const JoinKey keys[] = {1, 1, 2, 2, 3};
  for (int i = 0; i < 5; ++i) rel.Append(rows[i], keys[i]);
  return rel;
}

// The table is filled column by column, term by term; every value must be
// bit-identical to the per-row ContributionVector it replaces, on both
// sides: constants (R side only), weights, several terms per function (one
// attribute twice), a side with no terms, transforms and mixed preference
// signs.
TEST(ContributionTable, MatchesPerRowContributionVectorBitForBit) {
  Rng rng(31);
  Relation rel(Schema::Anonymous(4));
  for (int i = 0; i < 300; ++i) {
    double attrs[4];
    for (double& a : attrs) {
      const uint64_t pick = rng.NextBelow(8);
      a = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.Uniform(-1e3, 1e3);
    }
    rel.Append(attrs, static_cast<JoinKey>(i % 7));
  }
  const MapSpec spec({
      MapFunc::Sum(0, 1),
      MapFunc::WeightedSum(2.5, 1, -0.75, 3, 1.25),
      MapFunc({{Side::kR, 0, 0.1},
               {Side::kT, 2, 3.0},
               {Side::kR, 3, -1.7},
               {Side::kR, 0, 0.3}},
              -4.5, Transform::kLog1p),
      MapFunc::Passthrough(Side::kT, 2),
      MapFunc({{Side::kT, 1, -2.0}, {Side::kT, 3, 1e-3}}, 7.0,
              Transform::kSqrt),
  });
  const Preference pref({Direction::kLowest, Direction::kHighest,
                         Direction::kHighest, Direction::kLowest,
                         Direction::kHighest});
  const CanonicalMapper mapper(spec, pref);
  const int k = mapper.output_dimensions();
  std::vector<double> expected(static_cast<size_t>(k));
  for (Side side : {Side::kR, Side::kT}) {
    const ContributionTable table(rel, mapper, side);
    ASSERT_EQ(table.size(), rel.size());
    for (RowId i = 0; i < rel.size(); ++i) {
      mapper.ContributionVector(side, rel.attrs(i), expected.data());
      EXPECT_EQ(std::memcmp(table.vector(i), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << "row " << i << " side " << static_cast<int>(side);
    }
  }
}

TEST(SourceLists, HandCase) {
  Relation rel = TinyRelation();
  CanonicalMapper mapper(MapSpec::PairwiseSum(2), Preference::AllLowest(2));
  ContributionTable contribs(rel, mapper, Side::kR);
  SourceLists lists = ComputeSourceLists(rel, contribs);

  EXPECT_EQ(lists.source_skyline, (std::vector<RowId>{0, 3, 4}));
  EXPECT_EQ(lists.group_skyline, (std::vector<RowId>{0, 2, 3, 4}));
  EXPECT_TRUE(lists.in_source_skyline[0]);
  EXPECT_FALSE(lists.in_source_skyline[2]);
  EXPECT_TRUE(lists.in_group_skyline[2]);
  EXPECT_FALSE(lists.in_group_skyline[1]);
}

TEST(SourceLists, SourceSkylineIsSubsetOfGroupSkyline) {
  GeneratorOptions gen;
  gen.cardinality = 1000;
  gen.num_attributes = 3;
  gen.join_selectivity = 0.05;
  Relation rel = GenerateRelation(gen).MoveValue();
  CanonicalMapper mapper(MapSpec::PairwiseSum(3), Preference::AllLowest(3));
  ContributionTable contribs(rel, mapper, Side::kR);
  SourceLists lists = ComputeSourceLists(rel, contribs);
  for (RowId id : lists.source_skyline) {
    EXPECT_TRUE(lists.in_group_skyline[id])
        << "LS(S) member " << id << " missing from LS(N)";
  }
  EXPECT_GE(lists.group_skyline.size(), lists.source_skyline.size());
}

// The central safety property of partial push-through: pruning both sources
// to LS(N) does not change the skyline of the mapped join.
TEST(PushThroughProperty, PreservesSkyMapJoinResult) {
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAntiCorrelated}) {
    SCOPED_TRACE(DistributionName(dist));
    GeneratorOptions gen;
    gen.distribution = dist;
    gen.cardinality = 400;
    gen.num_attributes = 3;
    gen.join_selectivity = 0.05;
    gen.seed = 7;
    Relation r = GenerateRelation(gen).MoveValue();
    gen.seed = 8;
    Relation t = GenerateRelation(gen).MoveValue();

    MapSpec map = MapSpec::PairwiseSum(3);
    Preference pref = Preference::AllLowest(3);
    CanonicalMapper mapper(map, pref);
    ContributionTable rc(r, mapper, Side::kR);
    ContributionTable tc(t, mapper, Side::kT);

    // Full-join skyline (reference).
    auto skyline_of = [&](const Relation& rr, const Relation& tt,
                          const ContributionTable& rcc,
                          const ContributionTable& tcc) {
      std::vector<double> vals;
      std::vector<std::pair<RowId, RowId>> ids;
      double buf[3];
      JoinIndexes(KeyIndex(rr), KeyIndex(tt), [&](RowId a, RowId b) {
        mapper.Combine(rcc.vector(a), tcc.vector(b), buf);
        vals.insert(vals.end(), buf, buf + 3);
        ids.emplace_back(a, b);
      });
      PointView view{vals.data(), ids.size(), 3};
      std::set<std::pair<double, double>> sig;  // value signature
      std::vector<std::pair<RowId, RowId>> members;
      for (uint32_t i : SkylineSFS(view)) members.push_back(ids[i]);
      std::sort(members.begin(), members.end());
      return members;
    };

    auto reference = skyline_of(r, t, rc, tc);

    std::vector<RowId> r_keep_ids = PushThroughPrune(r, rc);
    std::vector<RowId> t_keep_ids = PushThroughPrune(t, tc);
    std::vector<RowId> r_map, t_map;
    Relation rp = r.Select(r_keep_ids, &r_map);
    Relation tp = t.Select(t_keep_ids, &t_map);
    ContributionTable rpc(rp, mapper, Side::kR);
    ContributionTable tpc(tp, mapper, Side::kT);
    auto pruned = skyline_of(rp, tp, rpc, tpc);
    // Translate back to original ids.
    for (auto& pr : pruned) {
      pr = {r_map[pr.first], t_map[pr.second]};
    }
    std::sort(pruned.begin(), pruned.end());
    EXPECT_EQ(pruned, reference);
  }
}

TEST(PushThrough, PrunesDominatedGroupMembers) {
  Relation rel = TinyRelation();
  CanonicalMapper mapper(MapSpec::PairwiseSum(2), Preference::AllLowest(2));
  ContributionTable contribs(rel, mapper, Side::kR);
  std::vector<RowId> kept = PushThroughPrune(rel, contribs);
  EXPECT_EQ(kept, (std::vector<RowId>{0, 2, 3, 4}));  // row 1 pruned
}

TEST(PushThrough, EqualTuplesWithinGroupAllSurvive) {
  Relation rel(Schema::Anonymous(2));
  const double row[] = {1.0, 1.0};
  rel.Append(row, 1);
  rel.Append(row, 1);
  CanonicalMapper mapper(MapSpec::PairwiseSum(2), Preference::AllLowest(2));
  ContributionTable contribs(rel, mapper, Side::kR);
  EXPECT_EQ(PushThroughPrune(rel, contribs).size(), 2u);
}

}  // namespace
}  // namespace progxe
