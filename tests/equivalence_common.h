// Shared helpers for the executor-equivalence test suites
// (batched_equivalence_test, session_test, shard_test, ...): randomized
// and fixed SkyMapJoin config generators, the brute-force skyline oracle
// and the ProgXeStats counter-identity assertion. Keeping these in one
// place means a counter added to ProgXeStats is guarded by every
// equivalence suite at once.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "progxe/executor.h"
#include "skyline/skyline.h"

namespace progxe {
namespace test {

struct Config {
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

/// Random query in the style of random_query_test, plus two stress knobs:
/// `tied` forces one output dimension to a constant (every join result ties
/// on it) and `high_sigma` pushes join selectivity into the 0.2-0.5 range.
inline Config MakeConfig(Rng* rng, bool tied, bool high_sigma) {
  Config cfg;
  const int src_dims = 2 + static_cast<int>(rng->NextBelow(3));
  const int out_dims = 2 + static_cast<int>(rng->NextBelow(2));
  const double sigma = high_sigma ? 0.2 + rng->NextDouble() * 0.3
                                  : 0.01 + rng->NextDouble() * 0.19;

  GeneratorOptions gen;
  gen.distribution = static_cast<Distribution>(rng->NextBelow(3));
  gen.cardinality = 120 + rng->NextBelow(200);
  gen.num_attributes = src_dims;
  gen.join_selectivity = sigma;
  gen.seed = rng->Next();
  cfg.r = GenerateRelation(gen).MoveValue();
  gen.seed = rng->Next();
  gen.cardinality = 120 + rng->NextBelow(200);
  cfg.t = GenerateRelation(gen).MoveValue();

  std::vector<MapFunc> funcs;
  std::vector<Direction> dirs;
  for (int j = 0; j < out_dims; ++j) {
    std::vector<MapTerm> terms;
    const int nterms = 1 + static_cast<int>(rng->NextBelow(3));
    for (int i = 0; i < nterms; ++i) {
      // Weight 0 on every term of a tied dimension: the dimension becomes
      // the constant, so all join results collide there.
      const double weight =
          tied && j == 0 ? 0.0 : rng->Uniform(0.2, 3.0);
      terms.push_back(MapTerm{
          rng->Bernoulli(0.5) ? Side::kR : Side::kT,
          static_cast<int>(rng->NextBelow(static_cast<uint64_t>(src_dims))),
          weight});
    }
    funcs.push_back(MapFunc(terms, rng->Uniform(0.0, 10.0),
                            static_cast<Transform>(rng->NextBelow(4))));
    dirs.push_back(rng->Bernoulli(0.3) ? Direction::kHighest
                                       : Direction::kLowest);
  }
  cfg.map = MapSpec(std::move(funcs));
  cfg.pref = Preference(std::move(dirs));
  return cfg;
}

/// A larger fixed-shape query (anticorrelated d=2, sigma=0.02, pairwise
/// sum): enough regions that a sharded run pumps each shard many times.
inline Config MakeLargeConfig(uint64_t seed, size_t cardinality) {
  Config cfg;
  GeneratorOptions gen;
  gen.distribution = Distribution::kAntiCorrelated;
  gen.cardinality = cardinality;
  gen.num_attributes = 2;
  gen.join_selectivity = 0.02;
  gen.seed = seed;
  cfg.r = GenerateRelation(gen).MoveValue();
  gen.seed = seed + 1;
  cfg.t = GenerateRelation(gen).MoveValue();
  cfg.map = MapSpec::PairwiseSum(2);
  cfg.pref = Preference::AllLowest(2);
  return cfg;
}

/// Oracle: materialize the join, canonicalize the mapped values under the
/// preference, and run the O(n^2) SkylineReference. Sorted (r, t) ids.
inline std::vector<std::pair<RowId, RowId>> Oracle(const Config& cfg) {
  const int k = cfg.map.output_dimensions();
  std::vector<double> canon;
  std::vector<std::pair<RowId, RowId>> ids;
  std::vector<double> v(static_cast<size_t>(k));
  for (RowId a = 0; a < cfg.r.size(); ++a) {
    for (RowId b = 0; b < cfg.t.size(); ++b) {
      if (cfg.r.join_key(a) != cfg.t.join_key(b)) continue;
      cfg.map.Eval(cfg.r.attrs(a), cfg.t.attrs(b), v.data());
      for (int j = 0; j < k; ++j) {
        canon.push_back(cfg.pref.Canonicalize(j, v[static_cast<size_t>(j)]));
      }
      ids.emplace_back(a, b);
    }
  }
  PointView view{canon.data(), ids.size(), k};
  std::vector<std::pair<RowId, RowId>> skyline;
  for (uint32_t idx : SkylineReference(view)) {
    skyline.push_back(ids[idx]);
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

/// The counters that define the pipeline's observable work. Every
/// equivalent execution mode (per-tuple / batched / parallel / session)
/// must reproduce all of them exactly, comparisons included.
inline void ExpectSameStats(const ProgXeStats& a, const ProgXeStats& b,
                            const char* label) {
  EXPECT_EQ(a.join_pairs_generated, b.join_pairs_generated) << label;
  EXPECT_EQ(a.tuples_discarded_marked, b.tuples_discarded_marked) << label;
  EXPECT_EQ(a.tuples_dominated_on_insert, b.tuples_dominated_on_insert)
      << label;
  EXPECT_EQ(a.tuples_evicted, b.tuples_evicted) << label;
  EXPECT_EQ(a.dominance_comparisons, b.dominance_comparisons) << label;
  EXPECT_EQ(a.results_emitted, b.results_emitted) << label;
  EXPECT_EQ(a.results_emitted_early, b.results_emitted_early) << label;
  EXPECT_EQ(a.regions_processed, b.regions_processed) << label;
  EXPECT_EQ(a.regions_discarded_runtime, b.regions_discarded_runtime)
      << label;
  EXPECT_EQ(a.regions_discarded_seed, b.regions_discarded_seed) << label;
  EXPECT_EQ(a.cells_flushed, b.cells_flushed) << label;
}

}  // namespace test
}  // namespace progxe
