// ProgXe executor unit tests: API contracts, edge cases and option handling.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "progxe/executor.h"

namespace progxe {
namespace {

Relation MakeRows(const std::vector<std::pair<std::vector<double>, JoinKey>>&
                      rows,
                  int width) {
  Relation rel(Schema::Anonymous(width));
  for (const auto& [attrs, key] : rows) {
    rel.Append(attrs, key);
  }
  return rel;
}

SkyMapJoinQuery QueryOver(const Relation& r, const Relation& t, int dims) {
  SkyMapJoinQuery q;
  q.r = &r;
  q.t = &t;
  q.map = MapSpec::PairwiseSum(dims);
  q.pref = Preference::AllLowest(dims);
  return q;
}

TEST(Executor, RejectsNullSources) {
  SkyMapJoinQuery q;
  q.map = MapSpec::PairwiseSum(2);
  q.pref = Preference::AllLowest(2);
  ProgXeExecutor exec(q, ProgXeOptions());
  EXPECT_TRUE(exec.Run([](const ResultTuple&) {}).IsInvalidArgument());
}

TEST(Executor, RejectsDimensionMismatch) {
  Relation r = MakeRows({{{1, 2}, 0}}, 2);
  Relation t = MakeRows({{{1, 2}, 0}}, 2);
  SkyMapJoinQuery q = QueryOver(r, t, 2);
  q.pref = Preference::AllLowest(3);
  ProgXeExecutor exec(q, ProgXeOptions());
  EXPECT_TRUE(exec.Run([](const ResultTuple&) {}).IsInvalidArgument());
}

TEST(Executor, RejectsOutOfRangeMapIndices) {
  Relation r = MakeRows({{{1, 2}, 0}}, 2);
  Relation t = MakeRows({{{1, 2}, 0}}, 2);
  SkyMapJoinQuery q = QueryOver(r, t, 2);
  q.map = MapSpec({MapFunc::Sum(0, 5)});
  q.pref = Preference::AllLowest(1);
  ProgXeExecutor exec(q, ProgXeOptions());
  EXPECT_TRUE(exec.Run([](const ResultTuple&) {}).IsInvalidArgument());
}

TEST(Executor, RunIsReusable) {
  // The same executor object runs the same query repeatedly, and every run
  // reproduces the same result sequence and the same counters from scratch.
  GeneratorOptions gen;
  gen.distribution = Distribution::kAntiCorrelated;
  gen.cardinality = 400;
  gen.num_attributes = 3;
  gen.join_selectivity = 0.05;
  gen.seed = 7;
  Relation r = GenerateRelation(gen).MoveValue();
  gen.seed = 8;
  Relation t = GenerateRelation(gen).MoveValue();
  ProgXeExecutor exec(QueryOver(r, t, 3), ProgXeOptions());

  std::vector<std::pair<RowId, RowId>> first_ids;
  ASSERT_TRUE(exec.Run([&](const ResultTuple& res) {
                    first_ids.emplace_back(res.r_id, res.t_id);
                  })
                  .ok());
  const ProgXeStats first = exec.stats();
  ASSERT_GT(first.results_emitted, 0u);

  std::vector<std::pair<RowId, RowId>> second_ids;
  ASSERT_TRUE(exec.Run([&](const ResultTuple& res) {
                    second_ids.emplace_back(res.r_id, res.t_id);
                  })
                  .ok());
  const ProgXeStats& second = exec.stats();

  EXPECT_EQ(first_ids, second_ids);
  EXPECT_EQ(first.results_emitted, second.results_emitted);
  EXPECT_EQ(first.join_pairs_generated, second.join_pairs_generated);
  EXPECT_EQ(first.dominance_comparisons, second.dominance_comparisons);
  EXPECT_EQ(first.regions_processed, second.regions_processed);
  EXPECT_EQ(first.regions_discarded_runtime, second.regions_discarded_runtime);
  EXPECT_EQ(first.cells_flushed, second.cells_flushed);
  EXPECT_EQ(first.tuples_evicted, second.tuples_evicted);
}

TEST(Executor, EmptySourcesYieldNoResults) {
  Relation r(Schema::Anonymous(2));
  Relation t(Schema::Anonymous(2));
  size_t count = 0;
  ProgXeExecutor exec(QueryOver(r, t, 2), ProgXeOptions());
  EXPECT_TRUE(exec.Run([&](const ResultTuple&) { ++count; }).ok());
  EXPECT_EQ(count, 0u);
}

TEST(Executor, DisjointJoinDomainsYieldNoResults) {
  Relation r = MakeRows({{{1, 1}, 1}, {{2, 2}, 2}}, 2);
  Relation t = MakeRows({{{1, 1}, 7}, {{2, 2}, 8}}, 2);
  size_t count = 0;
  ProgXeExecutor exec(QueryOver(r, t, 2), ProgXeOptions());
  EXPECT_TRUE(exec.Run([&](const ResultTuple&) { ++count; }).ok());
  EXPECT_EQ(count, 0u);
}

TEST(Executor, SingleRowSources) {
  Relation r = MakeRows({{{3, 4}, 5}}, 2);
  Relation t = MakeRows({{{10, 20}, 5}}, 2);
  std::vector<ResultTuple> results;
  ProgXeExecutor exec(QueryOver(r, t, 2), ProgXeOptions());
  ASSERT_TRUE(
      exec.Run([&](const ResultTuple& x) { results.push_back(x); }).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].r_id, 0u);
  EXPECT_EQ(results[0].t_id, 0u);
  EXPECT_EQ(results[0].values[0], 13.0);
  EXPECT_EQ(results[0].values[1], 24.0);
}

TEST(Executor, OneDimensionalOutput) {
  // k = 1: the skyline is the set of all minimum-value results.
  Relation r = MakeRows({{{1}, 0}, {{2}, 0}, {{1}, 0}}, 1);
  Relation t = MakeRows({{{5}, 0}, {{6}, 0}}, 1);
  std::vector<ResultTuple> results;
  ProgXeExecutor exec(QueryOver(r, t, 1), ProgXeOptions());
  ASSERT_TRUE(
      exec.Run([&](const ResultTuple& x) { results.push_back(x); }).ok());
  // Minimum sum is 1+5 = 6, achieved by rows {0,2} x {0}.
  ASSERT_EQ(results.size(), 2u);
  for (const auto& res : results) {
    EXPECT_EQ(res.values[0], 6.0);
  }
}

TEST(Executor, AllRowsIdenticalAllSurvive) {
  Relation r = MakeRows({{{2, 2}, 1}, {{2, 2}, 1}, {{2, 2}, 1}}, 2);
  Relation t = MakeRows({{{3, 3}, 1}, {{3, 3}, 1}}, 2);
  size_t count = 0;
  ProgXeExecutor exec(QueryOver(r, t, 2), ProgXeOptions());
  ASSERT_TRUE(exec.Run([&](const ResultTuple&) { ++count; }).ok());
  EXPECT_EQ(count, 6u);  // every pair is Pareto-equivalent
}

TEST(Executor, HighestPreferenceEmitsTrueMaxima) {
  Relation r = MakeRows({{{1, 1}, 0}, {{9, 9}, 0}}, 2);
  Relation t = MakeRows({{{1, 1}, 0}, {{9, 9}, 0}}, 2);
  SkyMapJoinQuery q = QueryOver(r, t, 2);
  q.pref = Preference::AllHighest(2);
  std::vector<ResultTuple> results;
  ProgXeExecutor exec(q, ProgXeOptions());
  ASSERT_TRUE(
      exec.Run([&](const ResultTuple& x) { results.push_back(x); }).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].r_id, 1u);
  EXPECT_EQ(results[0].t_id, 1u);
  EXPECT_EQ(results[0].values[0], 18.0);
}

TEST(Executor, StatsAreCoherent) {
  GeneratorOptions gen;
  gen.cardinality = 500;
  gen.num_attributes = 3;
  gen.join_selectivity = 0.02;
  gen.seed = 1;
  Relation r = GenerateRelation(gen).MoveValue();
  gen.seed = 2;
  Relation t = GenerateRelation(gen).MoveValue();
  ProgXeExecutor exec(QueryOver(r, t, 3), ProgXeOptions());
  size_t emitted = 0;
  ASSERT_TRUE(exec.Run([&](const ResultTuple&) { ++emitted; }).ok());
  const ProgXeStats& s = exec.stats();

  EXPECT_EQ(s.r_rows, 500u);
  EXPECT_EQ(s.results_emitted, emitted);
  EXPECT_GT(s.join_pairs_generated, 0u);
  // Every generated pair is accounted for: discarded, dominated, or kept.
  EXPECT_GE(s.join_pairs_generated,
            s.tuples_discarded_marked + s.tuples_dominated_on_insert);
  EXPECT_EQ(s.regions_created,
            s.regions_processed + s.regions_pruned_lookahead +
                s.regions_discarded_runtime);
  EXPECT_FALSE(s.ToString().empty());
}

/// Gives field i of kProgXeStatsFields the value base + i (plus a half on
/// the one double, so it prints with a fraction).
ProgXeStats DistinctStats(uint64_t base) {
  ProgXeStats s;
  uint64_t value = base;
  for (const StatField<ProgXeStats>& f : kProgXeStatsFields) {
    if (f.real != nullptr) {
      s.*f.real = static_cast<double>(value++) + 0.5;
    } else {
      s.*f.count = value++;
    }
  }
  return s;
}

// A stats dump names every counter as name=value; the static_assert next
// to kProgXeStatsFields keeps the list complete.
TEST(Executor, StatsToStringPrintsEveryCounter) {
  const ProgXeStats s = DistinctStats(1001);
  const std::string dump = s.ToString();
  ASSERT_EQ(dump.substr(0, 12), "ProgXeStats{");
  ASSERT_EQ(dump.back(), '}');
  std::vector<std::string> tokens;
  std::istringstream in(dump.substr(12, dump.size() - 13));
  for (std::string token; in >> token;) tokens.push_back(token);
  ASSERT_EQ(tokens.size(), std::size(kProgXeStatsFields)) << dump;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const StatField<ProgXeStats>& f = kProgXeStatsFields[i];
    const std::string value =
        f.real != nullptr
            ? std::to_string(static_cast<uint64_t>(s.*f.real)) + ".5"
            : std::to_string(s.*f.count);
    EXPECT_EQ(tokens[i], std::string(f.name) + "=" + value);
  }
}

TEST(Executor, AccumulateSumsEveryField) {
  ProgXeStats sum = DistinctStats(1001);
  const ProgXeStats other = DistinctStats(5000);
  sum.Accumulate(other);
  uint64_t i = 0;
  for (const StatField<ProgXeStats>& f : kProgXeStatsFields) {
    if (f.real != nullptr) {
      EXPECT_EQ(sum.*f.real, static_cast<double>(1001 + 5000 + 2 * i) + 1.0)
          << f.name;
    } else {
      EXPECT_EQ(sum.*f.count, 1001 + 5000 + 2 * i) << f.name;
    }
    ++i;
  }
}

TEST(Executor, PushThroughShrinksSources) {
  GeneratorOptions gen;
  gen.distribution = Distribution::kCorrelated;
  gen.cardinality = 2000;
  gen.num_attributes = 3;
  gen.join_selectivity = 0.01;
  gen.seed = 1;
  Relation r = GenerateRelation(gen).MoveValue();
  gen.seed = 2;
  Relation t = GenerateRelation(gen).MoveValue();
  ProgXeOptions opts;
  opts.push_through = true;
  ProgXeExecutor exec(QueryOver(r, t, 3), opts);
  ASSERT_TRUE(exec.Run([](const ResultTuple&) {}).ok());
  EXPECT_LT(exec.stats().r_rows_after_push_through, 2000u);
  EXPECT_LT(exec.stats().t_rows_after_push_through, 2000u);
}

TEST(Executor, SequentialOrderingModeWorks) {
  GeneratorOptions gen;
  gen.cardinality = 400;
  gen.num_attributes = 2;
  gen.join_selectivity = 0.05;
  gen.seed = 9;
  Relation r = GenerateRelation(gen).MoveValue();
  gen.seed = 10;
  Relation t = GenerateRelation(gen).MoveValue();
  ProgXeOptions opts;
  opts.ordering = OrderingMode::kSequential;
  size_t count = 0;
  ProgXeExecutor exec(QueryOver(r, t, 2), opts);
  ASSERT_TRUE(exec.Run([&](const ResultTuple&) { ++count; }).ok());
  EXPECT_GT(count, 0u);
}

TEST(Executor, ExplicitGridSizesRespected) {
  GeneratorOptions gen;
  gen.cardinality = 200;
  gen.num_attributes = 2;
  gen.seed = 11;
  Relation r = GenerateRelation(gen).MoveValue();
  gen.seed = 12;
  Relation t = GenerateRelation(gen).MoveValue();
  ProgXeOptions opts;
  opts.input_cells_per_dim = 2;
  opts.output_cells_per_dim = 5;
  ProgXeExecutor exec(QueryOver(r, t, 2), opts);
  ASSERT_TRUE(exec.Run([](const ResultTuple&) {}).ok());
  // 2 cells/dim over 2 dims = at most 4 partitions per source => <= 16 pairs.
  EXPECT_LE(exec.stats().partition_pairs_total, 16u);
}

TEST(RunProgXeHelper, CollectsResultsAndStats) {
  GeneratorOptions gen;
  gen.cardinality = 300;
  gen.num_attributes = 2;
  gen.seed = 21;
  Relation r = GenerateRelation(gen).MoveValue();
  gen.seed = 22;
  Relation t = GenerateRelation(gen).MoveValue();
  ProgXeStats stats;
  auto results = RunProgXe(QueryOver(r, t, 2), ProgXeOptions(), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), stats.results_emitted);
}

}  // namespace
}  // namespace progxe
