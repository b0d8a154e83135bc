// ProgXeSession tests: incremental NextBatch consumption must deliver
// exactly the one-shot Run emission sequence with identical ProgXeStats
// counters, across randomized seeded configs, batch granularities, pair
// budgets and early termination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "equivalence_common.h"
#include "grid/grid_geometry.h"
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

/// An anticorrelated n x n workload with join selectivity `sigma` (one
/// join key at sigma = 1).
Result<Workload> AntiWorkload(size_t n, int dims, double sigma) {
  WorkloadParams params;
  params.distribution = Distribution::kAntiCorrelated;
  params.cardinality = n;
  params.dims = dims;
  params.sigma = sigma;
  params.seed = 7;
  return Workload::Make(params);
}

/// The output grid the session's prepare resolved over AntiWorkload(n,
/// dims, sigma), and the join selectivity it measured.
struct Resolution {
  int cells = 0;
  double sigma_used = 0.0;
};

Resolution ResolveOutputGrid(size_t n, int dims, double sigma,
                             int requested = 0) {
  Result<Workload> workload = AntiWorkload(n, dims, sigma);
  EXPECT_TRUE(workload.ok());
  ProgXeOptions options;
  options.output_cells_per_dim = requested;
  auto session = ProgXeSession::Open(workload->query(), options);
  EXPECT_TRUE(session.ok());
  Resolution out;
  out.cells = (*session)->prepared_inputs()->resolved_output_cells_per_dim;
  out.sigma_used = (*session)->stats().sigma_used;
  // The resolution is written back into the session's options, where the
  // region loop's cost model reads it.
  EXPECT_EQ((*session)->options().output_cells_per_dim, out.cells);
  return out;
}

/// delta = AutoCellsPerDim(k, min(60000, 16 sqrt(|R'| |T'| sigma)), 4, 24)
/// for an n x n join (no push-through) at the measured sigma.
int ExpectedCells(size_t n, int dims, double sigma_used) {
  const double pairs =
      static_cast<double>(n) * static_cast<double>(n) * sigma_used;
  return AutoCellsPerDim(dims, std::min(60000.0, 16.0 * std::sqrt(pairs)),
                         4, 24);
}

TEST(OutputGridResolution, FollowsTheExpectedJoinOutput) {
  // At the measured sigma (~0.001): 16 sqrt(25000) = 2530 cells -> 7 per
  // dimension at d=4; 16 sqrt(400000) = 10119 -> 10; at d=2, sqrt(2530) =
  // 50 per dimension, clamped to the 24 ceiling.
  struct Shape {
    size_t n;
    int dims;
    int cells;
  };
  for (const Shape& shape :
       {Shape{5000, 4, 7}, Shape{20000, 4, 10}, Shape{5000, 2, 24}}) {
    const Resolution got = ResolveOutputGrid(shape.n, shape.dims, 0.001);
    EXPECT_EQ(got.cells, ExpectedCells(shape.n, shape.dims, got.sigma_used))
        << "n=" << shape.n << " d=" << shape.dims
        << " sigma_used=" << got.sigma_used;
    EXPECT_EQ(got.cells, shape.cells) << "n=" << shape.n << " d=" << shape.dims;
  }
  // One join key: sigma = 1 and 16 sqrt(2.5e7) = 80000 cells, capped at the
  // 60000-cell budget -> 15 per dimension.
  const Resolution dense = ResolveOutputGrid(5000, 4, 1.0);
  EXPECT_EQ(dense.sigma_used, 1.0);
  EXPECT_EQ(dense.cells, 15);
}

TEST(OutputGridResolution, ExplicitValuePassesThrough) {
  EXPECT_EQ(ResolveOutputGrid(5000, 4, 0.001, /*requested=*/9).cells, 9);
  EXPECT_EQ(ResolveOutputGrid(5000, 4, 1.0, /*requested=*/3).cells, 3);
}

// At k=4, 65536 cells per dimension is 2^64 cells: an unchecked count
// wraps to 0, passes the output-cell cap and crashes the query. Either
// grid's cells_per_dim^k must fit the 64-bit cell index; 55108^4 < 2^63 <=
// 55109^4. At k=32 even the coarsest auto-sized output grid (2 cells per
// dimension, 2^32 cells) passes the 8M-cell cap.
TEST(OutputGridResolution, RejectsCellCountOverflow) {
  Result<Workload> workload = AntiWorkload(500, 4, 0.01);
  ASSERT_TRUE(workload.ok());
  ShardOptions shards;
  shards.num_shards = 2;
  for (int cells : {65536, 55109}) {
    ProgXeOptions output_overflow;
    output_overflow.output_cells_per_dim = cells;
    ProgXeOptions input_overflow;
    input_overflow.input_cells_per_dim = cells;
    for (const ProgXeOptions& options : {output_overflow, input_overflow}) {
      auto session = ProgXeSession::Open(workload->query(), options);
      EXPECT_TRUE(session.status().IsInvalidArgument())
          << cells << ": " << session.status().ToString();
      auto sharded = ShardedStream::Open(workload->query(), options, shards);
      EXPECT_TRUE(sharded.status().IsInvalidArgument())
          << cells << ": " << sharded.status().ToString();
    }
  }
  // The largest fitting input resolution is accepted.
  ProgXeOptions widest;
  widest.input_cells_per_dim = 55108;
  EXPECT_TRUE(ProgXeSession::Open(workload->query(), widest).ok());

  // An explicit overflow is rejected even when the input is empty and no
  // grid is ever built.
  Config empty;
  empty.r = Relation(Schema::Anonymous(4));
  empty.t = Relation(Schema::Anonymous(4));
  empty.map = MapSpec::PairwiseSum(4);
  empty.pref = Preference::AllLowest(4);
  ProgXeOptions empty_overflow;
  empty_overflow.output_cells_per_dim = 65536;
  auto empty_session = ProgXeSession::Open(empty.query(), empty_overflow);
  EXPECT_TRUE(empty_session.status().IsInvalidArgument())
      << empty_session.status().ToString();

  Result<Workload> wide = AntiWorkload(200, 32, 0.01);
  ASSERT_TRUE(wide.ok());
  auto session = ProgXeSession::Open(wide->query(), ProgXeOptions());
  EXPECT_TRUE(session.status().IsInvalidArgument())
      << session.status().ToString();
  auto sharded = ShardedStream::Open(wide->query(), ProgXeOptions(), shards);
  EXPECT_TRUE(sharded.status().IsInvalidArgument())
      << sharded.status().ToString();
}

// Up to k = 11 the auto grid keeps at least 4 cells per dimension; above,
// 4^k would pass the 8M-cell cap, so the floor drops to 3 (k = 12..14) and
// 2 (k = 15..16) and every dimensionality the submission keys accept opens
// with default options, with the reference skyline as its result.
TEST(OutputGridResolution, HighDimensionalityOpensWithDefaults) {
  struct Shape {
    int dims;
    int cells;
  };
  for (const Shape& shape : {Shape{12, 3}, Shape{16, 2}}) {
    Config cfg;
    GeneratorOptions gen;
    gen.cardinality = 300;
    gen.num_attributes = shape.dims;
    gen.join_selectivity = 0.01;
    gen.seed = 12;
    cfg.r = GenerateRelation(gen).MoveValue();
    gen.seed = 13;
    cfg.t = GenerateRelation(gen).MoveValue();
    cfg.map = MapSpec::PairwiseSum(shape.dims);
    cfg.pref = Preference::AllLowest(shape.dims);

    auto session = ProgXeSession::Open(cfg.query(), ProgXeOptions());
    ASSERT_TRUE(session.ok()) << "d=" << shape.dims << ": "
                              << session.status().ToString();
    EXPECT_EQ((*session)->options().output_cells_per_dim, shape.cells)
        << "d=" << shape.dims;
    IdSeq got;
    std::vector<ResultTuple> batch;
    while (!(*session)->Finished()) {
      (*session)->NextBatch(0, &batch);
      for (const auto& res : batch) got.emplace_back(res.r_id, res.t_id);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, test::Oracle(cfg)) << "d=" << shape.dims;
  }
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
  Result<Workload> workload = AntiWorkload(5000, 4, 0.001);
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
