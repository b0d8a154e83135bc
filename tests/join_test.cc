// Unit tests for the join substrate: the key-run index, its joins and the
// measured join selectivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>

#include "common/rng.h"
#include "data/generator.h"
#include "join/key_index.h"
#include "progxe/prepare.h"

namespace progxe {
namespace {

Relation MakeRelation(const std::vector<JoinKey>& keys) {
  Relation rel(Schema::Anonymous(1));
  for (size_t i = 0; i < keys.size(); ++i) {
    double v = static_cast<double>(i);
    rel.Append({&v, 1}, keys[i]);
  }
  return rel;
}

using Match = std::tuple<JoinKey, RowId, RowId>;

TEST(KeyIndex, JoinMatchesNestedLoopInKeyOrder) {
  // Random relations with many duplicate (and negative) keys, joined over
  // random, unsorted row subsets (sometimes all rows, sometimes none):
  // JoinIndexes must emit exactly the nested-loop pairs, in (key, r, t)
  // order, and SharesKeyWith must say whether that join is non-empty.
  // A third of the trials move the small key domain into one byte
  // position (up to the top byte, so keys differ only in their high
  // bytes), and a third draw from INT64_MIN/INT64_MAX, their neighbours,
  // -1/0/1 and random 64-bit keys, so every radix pass runs.
  Rng rng(19);
  for (int trial = 0; trial < 600; ++trial) {
    const int64_t domain = 1 + static_cast<int64_t>(rng.NextBelow(12));
    const int mode = trial % 3;
    const int shift = 8 * ((trial / 3) % 8);
    constexpr JoinKey kMin = std::numeric_limits<JoinKey>::min();
    constexpr JoinKey kMax = std::numeric_limits<JoinKey>::max();
    const std::vector<JoinKey> palette = {
        kMin,     kMin + 1, kMax, kMax - 1, -1, 0, 1,
        static_cast<JoinKey>(rng.Next()), static_cast<JoinKey>(rng.Next())};
    auto draw = [&]() -> JoinKey {
      if (mode == 2) return palette[rng.NextBelow(palette.size())];
      const JoinKey v = rng.UniformInt(-domain, domain);
      return mode == 1 ? v * (JoinKey{1} << shift) : v;
    };
    auto make = [&] {
      std::vector<JoinKey> keys(rng.NextBelow(30));
      for (JoinKey& key : keys) key = draw();
      return MakeRelation(keys);
    };
    const Relation r = make();
    const Relation t = make();
    auto subset = [&](const Relation& rel) {
      std::vector<RowId> rows;
      const double keep = rng.NextDouble();
      for (RowId id = 0; id < rel.size(); ++id) {
        if (rng.Bernoulli(keep)) rows.push_back(id);
      }
      rng.Shuffle(&rows);
      return rows;
    };
    const bool whole = trial % 4 == 0;
    const std::vector<RowId> r_rows = subset(r);
    const std::vector<RowId> t_rows = subset(t);
    const KeyIndex ir = whole ? KeyIndex(r) : KeyIndex(r, r_rows);
    const KeyIndex it = whole ? KeyIndex(t) : KeyIndex(t, t_rows);

    std::vector<RowId> r_all(r.size());
    std::iota(r_all.begin(), r_all.end(), 0u);
    std::vector<RowId> t_all(t.size());
    std::iota(t_all.begin(), t_all.end(), 0u);
    std::vector<Match> expected;
    for (RowId a : whole ? r_all : r_rows) {
      for (RowId b : whole ? t_all : t_rows) {
        if (r.join_key(a) == t.join_key(b)) {
          expected.emplace_back(r.join_key(a), a, b);
        }
      }
    }
    std::sort(expected.begin(), expected.end());

    std::vector<Match> got;
    const size_t count = JoinIndexes(ir, it, [&](RowId a, RowId b) {
      got.emplace_back(r.join_key(a), a, b);
    });
    EXPECT_EQ(got, expected) << "trial " << trial;
    EXPECT_EQ(count, expected.size()) << "trial " << trial;
    EXPECT_EQ(ir.SharesKeyWith(it), !expected.empty()) << "trial " << trial;
    EXPECT_EQ(it.SharesKeyWith(ir), !expected.empty()) << "trial " << trial;
    if (whole && !r.empty() && !t.empty()) {
      EXPECT_DOUBLE_EQ(MeasuredJoinSelectivity(r, t),
                       static_cast<double>(expected.size()) /
                           static_cast<double>(r.size() * t.size()))
          << "trial " << trial;
    }
  }
}

TEST(KeyIndex, ForEachVisitsKeyRunsInOrder) {
  Relation rel = MakeRelation({3, 1, 3, 2, 1, 3});
  KeyIndex index(rel, {5, 0, 4, 3, 2});
  std::vector<std::pair<JoinKey, std::vector<RowId>>> runs;
  index.ForEach([&](JoinKey key, std::span<const RowId> rows) {
    runs.emplace_back(key, std::vector<RowId>(rows.begin(), rows.end()));
  });
  const std::vector<std::pair<JoinKey, std::vector<RowId>>> expected{
      {1, {4}}, {2, {3}}, {3, {0, 2, 5}}};
  EXPECT_EQ(runs, expected);
}

TEST(MeasuredJoinSelectivity, CountsPairsOverSharedKeys) {
  Relation r = MakeRelation({1, 2, 3, 4, 1});
  Relation t = MakeRelation({1, 1, 9});
  EXPECT_DOUBLE_EQ(MeasuredJoinSelectivity(r, t), 4.0 / 15.0);
  Relation empty = MakeRelation({});
  EXPECT_DOUBLE_EQ(MeasuredJoinSelectivity(r, empty), 0.0);
  // Keys at the ends of the int64 range.
  const JoinKey big = std::numeric_limits<JoinKey>::max();
  const JoinKey small = std::numeric_limits<JoinKey>::min();
  Relation sparse_r = MakeRelation({small, 7, big, 7});
  Relation sparse_t = MakeRelation({7, big, 3});
  EXPECT_DOUBLE_EQ(MeasuredJoinSelectivity(sparse_r, sparse_t), 3.0 / 12.0);
}

TEST(GeneratedSelectivity, TracksRequestedSigma) {
  // The generator's join-domain construction should yield a measured
  // selectivity close to the requested sigma.
  for (double sigma : {0.1, 0.01, 0.001}) {
    GeneratorOptions opts;
    opts.cardinality = 5000;
    opts.num_attributes = 2;
    opts.join_selectivity = sigma;
    opts.seed = 1;
    Relation r = GenerateRelation(opts).MoveValue();
    opts.seed = 2;
    Relation t = GenerateRelation(opts).MoveValue();
    const double measured = MeasuredJoinSelectivity(r, t);
    EXPECT_GT(measured, sigma * 0.8);
    EXPECT_LT(measured, sigma * 1.2);
  }
}

}  // namespace
}  // namespace progxe
