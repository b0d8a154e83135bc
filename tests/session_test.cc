// ProgXeSession tests: incremental NextBatch consumption must deliver
// exactly the one-shot Run emission sequence with identical ProgXeStats
// counters, across randomized seeded configs, batch granularities, pair
// budgets and early termination.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "equivalence_common.h"
#include "harness/workload.h"
#include "progxe/prepare.h"
#include "progxe/session.h"
#include "shard/sharded_stream.h"

namespace progxe {
namespace {

using test::Config;
using test::ExpectSameStats;
using test::MakeConfig;

using IdSeq = std::vector<std::pair<RowId, RowId>>;

/// One-shot Run reference: emission sequence + stats.
IdSeq RunReference(const Config& cfg, const ProgXeOptions& options,
                   ProgXeStats* stats) {
  IdSeq seq;
  ProgXeExecutor exec(cfg.query(), options);
  EXPECT_TRUE(exec.Run([&](const ResultTuple& res) {
                    seq.emplace_back(res.r_id, res.t_id);
                  })
                  .ok());
  *stats = exec.stats();
  return seq;
}

/// Drains a session with the given per-call cap; checks the cap is honored.
IdSeq DrainSession(const Config& cfg, const ProgXeOptions& options,
                   size_t per_call, ProgXeStats* stats) {
  IdSeq seq;
  auto session = ProgXeSession::Open(cfg.query(), options);
  EXPECT_TRUE(session.ok());
  std::vector<ResultTuple> batch;
  while (!(*session)->Finished()) {
    const size_t n = (*session)->NextBatch(per_call, &batch);
    EXPECT_EQ(n, batch.size());
    if (per_call != 0) {
      EXPECT_LE(n, per_call);
    }
    for (const auto& res : batch) seq.emplace_back(res.r_id, res.t_id);
    if (n == 0) break;
  }
  EXPECT_TRUE((*session)->Finished());
  EXPECT_EQ((*session)->NextBatch(0, &batch), 0u);
  *stats = (*session)->stats();
  return seq;
}

class SessionEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(SessionEquivalenceSweep, NextBatchMatchesRun) {
  const int param = GetParam();
  Rng rng(0x5e55 + static_cast<uint64_t>(param));
  // Every fifth config is heavily tied; every fourth has high sigma.
  const Config cfg = MakeConfig(&rng, param % 5 == 0, param % 4 == 0);

  ProgXeOptions options;
  options.seed = 0xfeed;
  // A third of the configs run with an early-termination cap.
  if (param % 3 == 2) options.max_results = 1 + static_cast<size_t>(param);

  ProgXeStats run_stats;
  const IdSeq reference = RunReference(cfg, options, &run_stats);

  // Tuple-at-a-time, a small odd granularity, and drain-everything.
  for (size_t per_call : {size_t{1}, size_t{3}, size_t{0}}) {
    ProgXeStats session_stats;
    const IdSeq seq = DrainSession(cfg, options, per_call, &session_stats);
    EXPECT_EQ(seq, reference) << "per_call=" << per_call
                              << ", param=" << param;
    ExpectSameStats(run_stats, session_stats, "session vs run");
  }
}

// 24 seeded configs x 3 consumption granularities (>= 20 required by the
// session-API coverage criterion), a third parallel, a third early-capped.
INSTANTIATE_TEST_SUITE_P(Seeds, SessionEquivalenceSweep,
                         ::testing::Range(0, 24));

/// Drains a session with a per-call join-pair budget. Budgeted calls may
/// legitimately return 0 while !Finished() (a mid-region yield).
IdSeq DrainSessionBudgeted(const Config& cfg, const ProgXeOptions& options,
                           size_t max_pairs, ProgXeStats* stats,
                           size_t* yields) {
  IdSeq seq;
  auto session = ProgXeSession::Open(cfg.query(), options);
  EXPECT_TRUE(session.ok());
  std::vector<ResultTuple> batch;
  while (!(*session)->Finished()) {
    const size_t n = (*session)->NextBatch(0, max_pairs, &batch);
    EXPECT_EQ(n, batch.size());
    if (n == 0 && !(*session)->Finished()) ++*yields;
    for (const auto& res : batch) seq.emplace_back(res.r_id, res.t_id);
  }
  EXPECT_EQ((*session)->NextBatch(0, max_pairs, &batch), 0u);
  *stats = (*session)->stats();
  return seq;
}

class SessionBudgetSweep : public ::testing::TestWithParam<int> {};

// The serving-layer yield point: slicing NextBatch by any join-pair budget
// must reproduce the Run stream and every counter bit-identically, and
// small budgets must actually yield mid-region.
TEST_P(SessionBudgetSweep, BudgetedNextBatchMatchesRun) {
  const int param = GetParam();
  Rng rng(0xb0d6 + static_cast<uint64_t>(param));
  const Config cfg = MakeConfig(&rng, param % 5 == 0, param % 4 == 0);

  ProgXeOptions options;
  options.seed = 0xfeed;
  if (param % 3 == 2) options.max_results = 1 + static_cast<size_t>(param);

  ProgXeStats run_stats;
  const IdSeq reference = RunReference(cfg, options, &run_stats);

  size_t total_yields = 0;
  for (size_t max_pairs : {size_t{1}, size_t{37}, size_t{1000}}) {
    ProgXeStats session_stats;
    size_t yields = 0;
    const IdSeq seq =
        DrainSessionBudgeted(cfg, options, max_pairs, &session_stats, &yields);
    EXPECT_EQ(seq, reference)
        << "max_pairs=" << max_pairs << ", param=" << param;
    ExpectSameStats(run_stats, session_stats, "budgeted session vs run");
    total_yields += yields;
  }
  // A 1-pair budget on any non-trivial join must pause mid-region at least
  // once; otherwise the yield point is dead code.
  if (run_stats.join_pairs_generated > 50) {
    EXPECT_GT(total_yields, 0u) << "param=" << param;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionBudgetSweep, ::testing::Range(0, 12));

TEST(Session, CloseReleasesAndFinishes) {
  Rng rng(0xc105e);
  const Config cfg = MakeConfig(&rng, false, true);

  // Consume a strict prefix, then Close: the session must report Finished,
  // deliver nothing further, and keep its stats readable.
  auto session = ProgXeSession::Open(cfg.query(), ProgXeOptions());
  ASSERT_TRUE(session.ok());
  std::vector<ResultTuple> batch;
  ASSERT_GT((*session)->NextBatch(3, &batch), 0u);
  const size_t emitted_before = (*session)->stats().results_emitted;
  (*session)->Close();
  EXPECT_TRUE((*session)->closed());
  EXPECT_TRUE((*session)->Finished());
  EXPECT_EQ((*session)->NextBatch(0, &batch), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ((*session)->stats().results_emitted, emitted_before);
  (*session)->Close();  // idempotent
  EXPECT_TRUE((*session)->Finished());
}

TEST(Session, CloseMidRegionIsClean) {
  Rng rng(0xc106);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;

  // Yield mid-region with a tiny budget, then Close while the pipeline
  // still holds an open region: teardown must be clean.
  auto session = ProgXeSession::Open(cfg.query(), options);
  ASSERT_TRUE(session.ok());
  std::vector<ResultTuple> batch;
  (*session)->NextBatch(0, /*max_pairs=*/1, &batch);
  EXPECT_FALSE((*session)->Finished());
  (*session)->Close();
  EXPECT_TRUE((*session)->Finished());

  // Destructor-only teardown of a yielded session must be clean too.
  auto session2 = ProgXeSession::Open(cfg.query(), options);
  ASSERT_TRUE(session2.ok());
  (*session2)->NextBatch(0, /*max_pairs=*/1, &batch);
}

TEST(Session, EmptySourcesFinishImmediately) {
  Config cfg;
  cfg.r = Relation(Schema::Anonymous(2));
  cfg.t = Relation(Schema::Anonymous(2));
  cfg.map = MapSpec::PairwiseSum(2);
  cfg.pref = Preference::AllLowest(2);
  auto session = ProgXeSession::Open(cfg.query(), ProgXeOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE((*session)->Finished());
  std::vector<ResultTuple> batch;
  EXPECT_EQ((*session)->NextBatch(10, &batch), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(Session, OpenValidatesQuery) {
  Config cfg;
  cfg.r = Relation(Schema::Anonymous(2));
  cfg.t = Relation(Schema::Anonymous(2));
  cfg.map = MapSpec::PairwiseSum(2);
  cfg.pref = Preference::AllLowest(3);  // dimensionality mismatch
  auto session = ProgXeSession::Open(cfg.query(), ProgXeOptions());
  EXPECT_TRUE(session.status().IsInvalidArgument());
}

// A Bloom filter with no probes sets no bits and would skip every
// partition pair: the query would end with 0 results and status OK. Open
// (local and sharded) rejects out-of-range Bloom options instead.
TEST(Session, OpenRejectsOutOfRangeBloomOptions) {
  Rng rng(0xb100);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions bloom;
  bloom.signature_mode = SharedKeyTest::kBloom;
  std::vector<ProgXeOptions> bad(5, bloom);
  bad[0].bloom_hashes = 0;
  bad[1].bloom_hashes = -1;
  bad[2].bloom_hashes = kMaxBloomHashes + 1;
  bad[3].bloom_bits = 0;
  bad[4].bloom_bits = size_t{1} << 40;
  ShardOptions shards;
  shards.num_shards = 2;
  for (const ProgXeOptions& options : bad) {
    auto session = ProgXeSession::Open(cfg.query(), options);
    EXPECT_TRUE(session.status().IsInvalidArgument())
        << session.status().ToString();
    auto sharded = ShardedStream::Open(cfg.query(), options, shards);
    EXPECT_TRUE(sharded.status().IsInvalidArgument())
        << sharded.status().ToString();
  }

  // The ceilings themselves are accepted, and exact mode ignores the
  // Bloom fields.
  ProgXeOptions widest = bloom;
  widest.bloom_bits = kMaxBloomBits;
  widest.bloom_hashes = kMaxBloomHashes;
  ProgXeOptions exact;
  exact.bloom_hashes = 0;
  ProgXeStats reference;
  const IdSeq expected = RunReference(cfg, ProgXeOptions(), &reference);
  for (const ProgXeOptions& options : {widest, exact}) {
    ProgXeStats stats;
    IdSeq got = DrainSession(cfg, options, 0, &stats);
    std::sort(got.begin(), got.end());
    IdSeq want = expected;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST(Session, StatsVisibleBeforeFirstBatch) {
  Rng rng(0xabcd);
  const Config cfg = MakeConfig(&rng, false, false);
  auto session = ProgXeSession::Open(cfg.query(), ProgXeOptions());
  ASSERT_TRUE(session.ok());
  // PreparePhase counters are already populated at Open.
  EXPECT_EQ((*session)->stats().r_rows, cfg.r.size());
  EXPECT_EQ((*session)->stats().t_rows, cfg.t.size());
  EXPECT_GT((*session)->stats().regions_created, 0u);
  EXPECT_EQ((*session)->stats().results_emitted, 0u);
}

// --- Output-grid resolution (the partition size delta) --------------------

/// An anticorrelated n x n workload with join selectivity 0.001.
Result<Workload> AntiWorkload(size_t n, int dims) {
  WorkloadParams params;
  params.distribution = Distribution::kAntiCorrelated;
  params.cardinality = n;
  params.dims = dims;
  params.sigma = 0.001;
  params.seed = 7;
  return Workload::Make(params);
}

/// The output grid the session's prepare resolved over AntiWorkload(n,
/// dims). `sigma_hint` pins the modelled sigma (0 = measure it).
int ResolvedOutputCells(size_t n, int dims, double sigma_hint,
                        int requested = 0) {
  Result<Workload> workload = AntiWorkload(n, dims);
  EXPECT_TRUE(workload.ok());
  ProgXeOptions options;
  options.sigma_hint = sigma_hint;
  options.output_cells_per_dim = requested;
  auto session = ProgXeSession::Open(workload->query(), options);
  EXPECT_TRUE(session.ok());
  const int resolved =
      (*session)->prepared_inputs()->resolved_output_cells_per_dim;
  // The resolution is written back into the session's options, where the
  // region loop's cost model reads it.
  EXPECT_EQ((*session)->options().output_cells_per_dim, resolved);
  return resolved;
}

// delta = AutoCellsPerDim(k, min(60000, 16 sqrt(|R'| |T'| sigma)), 4, 24).
TEST(OutputGridResolution, FollowsTheExpectedJoinOutput) {
  // 16 sqrt(25000) = 2530 cells -> 7 per dimension at d=4.
  EXPECT_EQ(ResolvedOutputCells(5000, 4, 0.001), 7);
  // 16 sqrt(400000) = 10119 cells -> 10 per dimension.
  EXPECT_EQ(ResolvedOutputCells(20000, 4, 0.001), 10);
  // 16 sqrt(2.5e7) = 80000 cells, capped at the 60000-cell budget -> 15.
  EXPECT_EQ(ResolvedOutputCells(5000, 4, 1.0), 15);
  // d=2: sqrt(2530) = 50 per dimension, clamped to the 24 ceiling.
  EXPECT_EQ(ResolvedOutputCells(5000, 2, 0.001), 24);
}

TEST(OutputGridResolution, ExplicitValuePassesThrough) {
  EXPECT_EQ(ResolvedOutputCells(5000, 4, 0.001, /*requested=*/9), 9);
  EXPECT_EQ(ResolvedOutputCells(5000, 4, 1.0, /*requested=*/3), 3);
}

TEST(OutputGridResolution, EmptySourceStillResolves) {
  Config cfg;
  cfg.r = Relation(Schema::Anonymous(2));
  cfg.t = Relation(Schema::Anonymous(2));
  cfg.map = MapSpec::PairwiseSum(2);
  cfg.pref = Preference::AllLowest(2);
  auto session = ProgXeSession::Open(cfg.query(), ProgXeOptions());
  ASSERT_TRUE(session.ok());
  // No expected output: the coarsest grid.
  EXPECT_EQ((*session)->options().output_cells_per_dim, 4);
}

// Each shard prepares its own slice, so it sizes its own, smaller grid:
// a K-way slice expects ~1/K of the join output.
TEST(OutputGridResolution, ShardsSizeTheirOwnGrid) {
  Result<Workload> workload = AntiWorkload(5000, 4);
  ASSERT_TRUE(workload.ok());

  auto parent = ProgXeSession::Open(workload->query(), ProgXeOptions());
  ASSERT_TRUE(parent.ok());
  const int parent_cells =
      (*parent)->prepared_inputs()->resolved_output_cells_per_dim;

  ShardOptions shard_options;
  shard_options.num_shards = 4;
  auto sharded =
      ShardedStream::Open(workload->query(), ProgXeOptions(), shard_options);
  ASSERT_TRUE(sharded.ok());
  const std::vector<int> shard_cells = (*sharded)->output_cells_per_dim();
  ASSERT_EQ(shard_cells.size(), 4u);
  for (int cells : shard_cells) {
    EXPECT_GE(cells, 4);
    EXPECT_LT(cells, parent_cells);
  }
}

}  // namespace
}  // namespace progxe
