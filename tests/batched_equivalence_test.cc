// Randomized equivalence tests for the batched tuple pipeline: across many
// seeded configs — including heavy ties, high join selectivity and
// max_results early termination — the executor must emit exactly the same
// result multiset as SkylineReference applied to the full materialized
// join, and an early-terminated run must emit a subset of it. That the
// counters do not depend on slice boundaries is SessionBudgetSweep's check
// (session_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "equivalence_common.h"

namespace progxe {
namespace {

using test::Config;
using test::MakeConfig;
using test::Oracle;

std::vector<std::pair<RowId, RowId>> Sorted(
    const std::vector<ResultTuple>& results) {
  std::vector<std::pair<RowId, RowId>> ids;
  for (const auto& r : results) ids.emplace_back(r.r_id, r.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::vector<ResultTuple>> RunConfig(const Config& cfg,
                                           size_t max_results = 0) {
  ProgXeOptions options;
  options.max_results = max_results;
  options.seed = 0xfeed;
  return RunProgXe(cfg.query(), options);
}

class BatchedEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchedEquivalenceSweep, MatchesOracle) {
  const int param = GetParam();
  Rng rng(0xba7c4 + static_cast<uint64_t>(param));
  // Every third config is heavily tied; every fourth has high sigma.
  const Config cfg = MakeConfig(&rng, param % 3 == 0, param % 4 == 0);
  const auto oracle = Oracle(cfg);

  auto full = RunConfig(cfg);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(Sorted(full.value()), oracle) << "param=" << param;

  // max_results early termination: the emitted prefix must respect the
  // limit and be a subset of the oracle.
  if (!oracle.empty()) {
    const size_t limit = 1 + oracle.size() / 2;
    auto early = RunConfig(cfg, limit);
    ASSERT_TRUE(early.ok());
    const auto early_ids = Sorted(early.value());
    EXPECT_LE(early_ids.size(), limit);
    EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(),
                              early_ids.begin(), early_ids.end()))
        << "emitted prefix must be final skyline members, param=" << param;
  }
}

// 56 random configs, each run in full and early-terminated.
INSTANTIATE_TEST_SUITE_P(Seeds, BatchedEquivalenceSweep,
                         ::testing::Range(0, 56));

}  // namespace
}  // namespace progxe
