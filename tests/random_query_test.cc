// Randomized end-to-end property tests: for randomly generated SkyMapJoin
// queries — random term weights, constants, strictly-increasing transforms,
// mixed LOWEST/HIGHEST directions, random data distributions and join
// selectivities — every engine configuration must return exactly the
// brute-force skyline of the mapped join.
//
// This is the widest net in the suite: it exercises canonical sign folding,
// interval propagation through transforms, shared-key skipping,
// look-ahead pruning, ordering, ProgDetermine and push-through all
// at once, against an oracle that shares no code with the engine beyond
// MapSpec::Eval.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/jf_sl.h"
#include "baselines/saj.h"
#include "baselines/ssmj.h"
#include "common/rng.h"
#include "data/generator.h"
#include "equivalence_common.h"
#include "prefs/dominance.h"
#include "progxe/executor.h"
#include "progxe/stream.h"

namespace progxe {
namespace {

struct RandomQuery {
  Relation r{Schema::Anonymous(0)};
  Relation t{Schema::Anonymous(0)};
  MapSpec map;
  Preference pref;

  SkyMapJoinQuery query() const {
    SkyMapJoinQuery q;
    q.r = &r;
    q.t = &t;
    q.map = map;
    q.pref = pref;
    return q;
  }
};

RandomQuery MakeRandomQuery(Rng* rng) {
  RandomQuery q;
  const int src_dims = 2 + static_cast<int>(rng->NextBelow(3));  // 2..4
  const int out_dims = 2 + static_cast<int>(rng->NextBelow(2));  // 2..3
  const auto dist = static_cast<Distribution>(rng->NextBelow(3));
  const double sigma = 0.01 + rng->NextDouble() * 0.19;

  GeneratorOptions gen;
  gen.distribution = dist;
  gen.cardinality = 150 + rng->NextBelow(250);
  gen.num_attributes = src_dims;
  gen.join_selectivity = sigma;
  gen.seed = rng->Next();
  q.r = GenerateRelation(gen).MoveValue();
  gen.seed = rng->Next();
  gen.cardinality = 150 + rng->NextBelow(250);
  q.t = GenerateRelation(gen).MoveValue();

  std::vector<MapFunc> funcs;
  std::vector<Direction> dirs;
  for (int j = 0; j < out_dims; ++j) {
    std::vector<MapTerm> terms;
    const int nterms = 1 + static_cast<int>(rng->NextBelow(3));
    for (int i = 0; i < nterms; ++i) {
      terms.push_back(
          MapTerm{rng->Bernoulli(0.5) ? Side::kR : Side::kT,
                  static_cast<int>(rng->NextBelow(
                      static_cast<uint64_t>(src_dims))),
                  rng->Uniform(0.2, 3.0)});
    }
    // Ensure both sides appear somewhere in the spec overall; individual
    // functions may be one-sided (Passthrough-style).
    const auto transform = static_cast<Transform>(rng->NextBelow(4));
    funcs.push_back(MapFunc(terms, rng->Uniform(0.0, 10.0), transform));
    dirs.push_back(rng->Bernoulli(0.3) ? Direction::kHighest
                                       : Direction::kLowest);
  }
  q.map = MapSpec(std::move(funcs));
  q.pref = Preference(std::move(dirs));
  return q;
}

/// Oracle: materialize the join, evaluate the raw map, run the O(n^2)
/// preference-directed skyline.
std::vector<std::pair<RowId, RowId>> OracleSkyline(const RandomQuery& q) {
  const int k = q.map.output_dimensions();
  std::vector<std::vector<double>> vals;
  std::vector<std::pair<RowId, RowId>> ids;
  for (RowId a = 0; a < q.r.size(); ++a) {
    for (RowId b = 0; b < q.t.size(); ++b) {
      if (q.r.join_key(a) != q.t.join_key(b)) continue;
      std::vector<double> v(static_cast<size_t>(k));
      q.map.Eval(q.r.attrs(a), q.t.attrs(b), v.data());
      vals.push_back(std::move(v));
      ids.emplace_back(a, b);
    }
  }
  std::vector<std::pair<RowId, RowId>> skyline;
  for (size_t i = 0; i < ids.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < ids.size() && !dominated; ++j) {
      if (i == j) continue;
      dominated = Dominates(vals[j], vals[i], q.pref);
    }
    if (!dominated) skyline.push_back(ids[i]);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

std::vector<std::pair<RowId, RowId>> Sorted(
    const std::vector<ResultTuple>& results) {
  std::vector<std::pair<RowId, RowId>> ids;
  for (const auto& r : results) ids.emplace_back(r.r_id, r.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

class RandomQuerySweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomQuerySweep, EveryEngineMatchesTheOracle) {
  Rng rng(0xabcd00 + static_cast<uint64_t>(GetParam()));
  RandomQuery q = MakeRandomQuery(&rng);
  const auto oracle = OracleSkyline(q);

  // ProgXe in several configurations, each over the auto-sized output grid
  // and a coarse and a fine explicit one: the result set must not depend
  // on the partition size delta.
  for (int cfg = 0; cfg < 4; ++cfg) {
    ProgXeOptions options;
    options.push_through = (cfg & 1) != 0;
    options.ordering = (cfg & 2) != 0 ? OrderingMode::kRandom
                                      : OrderingMode::kProgOrder;
    options.seed = rng.Next();
    for (int output_cells : {0, 4, 24}) {
      options.output_cells_per_dim = output_cells;
      std::vector<ResultTuple> results;
      ProgXeExecutor exec(q.query(), options);
      ASSERT_TRUE(exec.Run([&](const ResultTuple& r) {
                        results.push_back(r);
                      }).ok());
      EXPECT_EQ(Sorted(results), oracle)
          << "ProgXe cfg=" << cfg << " output_cells_per_dim=" << output_cells;
    }
  }

  // Baselines.
  {
    std::vector<ResultTuple> results;
    ASSERT_TRUE(RunJfSl(q.query(), [&](const ResultTuple& r) {
                  results.push_back(r);
                }).ok());
    EXPECT_EQ(Sorted(results), oracle) << "JF-SL";
  }
  {
    std::vector<ResultTuple> results;
    ASSERT_TRUE(RunJfSlPlus(q.query(), [&](const ResultTuple& r) {
                  results.push_back(r);
                }).ok());
    EXPECT_EQ(Sorted(results), oracle) << "JF-SL+";
  }
  {
    std::vector<ResultTuple> results;
    ASSERT_TRUE(RunSaj(q.query(), [&](const ResultTuple& r) {
                  results.push_back(r);
                }).ok());
    EXPECT_EQ(Sorted(results), oracle) << "SAJ";
  }
  {
    SsmjResult ssmj;
    ASSERT_TRUE(
        RunSsmj(q.query(), [](const ResultTuple&) {}, nullptr, &ssmj).ok());
    EXPECT_EQ(Sorted(ssmj.final_results), oracle) << "SSMJ";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQuerySweep, ::testing::Range(0, 24));

// The dimensionality axis: default options at k = 5, 6 and 8 output
// dimensions, unsharded (K=1) and over four shards (K=4), against the
// SkylineReference oracle.
class HighDimSweep : public ::testing::TestWithParam<int> {};

TEST_P(HighDimSweep, DefaultOptionsMatchTheReference) {
  const int k = GetParam();
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    test::Config cfg;
    GeneratorOptions gen;
    gen.distribution = dist;
    gen.cardinality = 200;
    gen.num_attributes = k;
    gen.join_selectivity = 0.05;
    gen.seed = 500 + static_cast<uint64_t>(k);
    cfg.r = GenerateRelation(gen).MoveValue();
    gen.seed += 1000;
    cfg.t = GenerateRelation(gen).MoveValue();
    cfg.map = MapSpec::PairwiseSum(k);
    cfg.pref = Preference::AllLowest(k);
    const auto oracle = test::Oracle(cfg);
    for (int shards : {1, 4}) {
      ShardOptions shard_options;
      shard_options.num_shards = shards;
      auto stream =
          OpenProgXeStream(cfg.query(), ProgXeOptions(), shard_options);
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      std::vector<ResultTuple> results;
      std::vector<ResultTuple> batch;
      while (!(*stream)->Finished()) {
        (*stream)->NextBatch(0, 0, &batch);
        results.insert(results.end(), batch.begin(), batch.end());
      }
      EXPECT_EQ(Sorted(results), oracle)
          << "k=" << k << " " << DistributionName(dist) << " K=" << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HighDimSweep, ::testing::Values(5, 6, 8));

// More than 8000 regions: ProgOrder orders them through the EL-Graph as it
// does any smaller set, and the result set must still be the oracle's.
TEST(RandomQuery, LargeRegionSetMatchesTheOracle) {
  RandomQuery q;
  GeneratorOptions gen;
  gen.distribution = Distribution::kIndependent;
  gen.cardinality = 1000;
  gen.num_attributes = 2;
  gen.join_selectivity = 0.03;
  gen.seed = 81;
  q.r = GenerateRelation(gen).MoveValue();
  gen.seed = 82;
  q.t = GenerateRelation(gen).MoveValue();
  q.map = MapSpec::PairwiseSum(2);
  q.pref = Preference::AllLowest(2);

  ProgXeOptions options;
  options.input_cells_per_dim = 10;
  std::vector<ResultTuple> results;
  ProgXeExecutor exec(q.query(), options);
  ASSERT_TRUE(exec.Run([&](const ResultTuple& r) {
                    results.push_back(r);
                  }).ok());
  EXPECT_GT(exec.stats().regions_created, 8000u);
  EXPECT_EQ(Sorted(results), OracleSkyline(q));
}

}  // namespace
}  // namespace progxe
