// Randomized equivalence tests for the batched tuple pipeline: across many
// seeded configs — including heavy ties, high join selectivity and
// max_results early termination — the batched executor must emit exactly
// the same result multiset as SkylineReference applied to the full
// materialized join, and its ProgXeStats counters must be identical to the
// per-tuple legacy path (insert_batch_size <= 1). The batching changes
// cost, never semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "equivalence_common.h"

namespace progxe {
namespace {

using test::Config;
using test::ExpectSameStats;
using test::MakeConfig;
using test::Oracle;

std::vector<std::pair<RowId, RowId>> Sorted(
    const std::vector<ResultTuple>& results) {
  std::vector<std::pair<RowId, RowId>> ids;
  for (const auto& r : results) ids.emplace_back(r.r_id, r.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<ResultTuple>> RunConfig(const Config& cfg, size_t batch_size,
                                     ProgXeStats* stats,
                                     size_t max_results = 0) {
  ProgXeOptions options;
  options.insert_batch_size = batch_size;
  options.max_results = max_results;
  options.seed = 0xfeed;
  return RunProgXe(cfg.query(), options, stats);
}

class BatchedEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchedEquivalenceSweep, BatchedMatchesOracleAndLegacyCounters) {
  const int param = GetParam();
  Rng rng(0xba7c4 + static_cast<uint64_t>(param));
  // Every third config is heavily tied; every fourth has high sigma.
  const Config cfg = MakeConfig(&rng, param % 3 == 0, param % 4 == 0);
  const auto oracle = Oracle(cfg);

  ProgXeStats legacy_stats;
  auto legacy = RunConfig(cfg, 1, &legacy_stats);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(Sorted(legacy.value()), oracle) << "legacy path, param=" << param;

  // Default block size plus an odd size that exercises ragged tails.
  for (size_t batch : {size_t{256}, size_t{7}}) {
    ProgXeStats batched_stats;
    auto batched = RunConfig(cfg, batch, &batched_stats);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(Sorted(batched.value()), oracle)
        << "batch=" << batch << ", param=" << param;
    ExpectSameStats(legacy_stats, batched_stats, "full run");
  }

  // max_results early termination: the emitted prefix must be identical
  // between the legacy and batched pipelines, and a subset of the oracle.
  if (!oracle.empty()) {
    const size_t limit = 1 + oracle.size() / 2;
    ProgXeStats legacy_early_stats;
    auto legacy_early = RunConfig(cfg, 1, &legacy_early_stats, limit);
    ASSERT_TRUE(legacy_early.ok());
    ProgXeStats batched_early_stats;
    auto batched_early = RunConfig(cfg, 256, &batched_early_stats, limit);
    ASSERT_TRUE(batched_early.ok());
    const auto legacy_ids = Sorted(legacy_early.value());
    EXPECT_EQ(legacy_ids, Sorted(batched_early.value()))
        << "early termination, param=" << param;
    ExpectSameStats(legacy_early_stats, batched_early_stats, "early run");
    EXPECT_LE(legacy_ids.size(), limit);
    EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(),
                              legacy_ids.begin(), legacy_ids.end()))
        << "emitted prefix must be final skyline members, param=" << param;
  }
}

// 56 random configs; with the per-config legacy/256/7/early variants this
// sweeps well over 50 seeded executor configurations.
INSTANTIATE_TEST_SUITE_P(Seeds, BatchedEquivalenceSweep,
                         ::testing::Range(0, 56));

}  // namespace
}  // namespace progxe
