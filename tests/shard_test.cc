// ShardedStream tests: serving a query through K hash-partitioned engine
// shards must deliver exactly the unsharded result *set* — only
// guaranteed-final tuples, no retractions, no duplicates — with the
// aggregate ProgXeStats equal to the per-shard counters summed, for any
// K, consumption granularity and pair budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "equivalence_common.h"
#include "net/worker_service.h"
#include "progxe/session.h"
#include "progxe/stream.h"
#include "shard/shard_planner.h"
#include "shard/sharded_stream.h"

namespace progxe {
namespace {

using test::Config;
using test::ExpectSameStats;
using test::MakeConfig;
using test::Oracle;

using IdSet = std::vector<std::pair<RowId, RowId>>;

IdSet SortedIds(const std::vector<ResultTuple>& results) {
  IdSet ids;
  ids.reserve(results.size());
  for (const ResultTuple& res : results) ids.emplace_back(res.r_id, res.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Drains a stream through the abstract interface. With a budget, counts
/// the yields (0-result non-final calls); without one, a 0 return means
/// Finished.
std::vector<ResultTuple> DrainStream(ProgXeStream* stream, size_t max_results,
                                     size_t max_pairs,
                                     size_t* yields = nullptr) {
  std::vector<ResultTuple> all;
  std::vector<ResultTuple> batch;
  while (!stream->Finished()) {
    const size_t n = stream->NextBatch(max_results, max_pairs, &batch);
    EXPECT_EQ(n, batch.size());
    if (max_results != 0) {
      EXPECT_LE(n, max_results);
    }
    if (n == 0) {
      if (max_pairs == 0) break;
      if (!stream->Finished() && yields != nullptr) ++*yields;
      continue;
    }
    for (ResultTuple& res : batch) all.push_back(std::move(res));
  }
  EXPECT_TRUE(stream->Finished());
  EXPECT_EQ(stream->NextBatch(0, 0, &batch), 0u);
  return all;
}

/// Unsharded reference: full result set + stats through a plain session.
IdSet UnshardedReference(const Config& cfg, const ProgXeOptions& options,
                         ProgXeStats* stats) {
  auto session = ProgXeSession::Open(cfg.query(), options);
  EXPECT_TRUE(session.ok());
  std::vector<ResultTuple> all = DrainStream(session->get(), 0, 0);
  *stats = (*session)->stats();
  return SortedIds(all);
}

/// Per-shard solo runs (each shard drained alone, unsliced), counters
/// summed — the "summed per-shard counters" side of the additivity check.
ProgXeStats SumOfSoloShardRuns(const Config& cfg,
                               const ProgXeOptions& options, int num_shards) {
  ProgXeStats sum;
  for (QueryShard& shard : PlanShards(cfg.r, cfg.t, num_shards)) {
    auto session = ProgXeSession::Open(shard.Query(cfg.query()), options);
    EXPECT_TRUE(session.ok());
    DrainStream(session->get(), 0, 0);
    sum.Accumulate((*session)->stats());
  }
  return sum;
}

class ShardedEquivalenceSweep : public ::testing::TestWithParam<int> {};

// The acceptance criterion: for K in {1, 2, 4, 8} over seeded configs
// (incl. ties, high sigma and per-shard worker pools), the sharded stream
// emits exactly the unsharded result set with additive ProgXeStats.
TEST_P(ShardedEquivalenceSweep, ShardedSetEqualsUnsharded) {
  const int param = GetParam();
  Rng rng(0x51a2d + static_cast<uint64_t>(param));
  const Config cfg = MakeConfig(&rng, param % 5 == 0, param % 4 == 0);

  ProgXeOptions options;
  options.seed = 0xfeed + static_cast<uint64_t>(param);
  // Push-through stacks a second id remap (pruned -> shard -> original).
  if (param % 4 == 2) options.push_through = true;

  ProgXeStats unsharded_stats;
  const IdSet reference = UnshardedReference(cfg, options, &unsharded_stats);

  for (int num_shards : {1, 2, 4, 8}) {
    ShardOptions shard_options;
    shard_options.num_shards = num_shards;
    auto stream = OpenProgXeStream(cfg.query(), options, shard_options);
    ASSERT_TRUE(stream.ok()) << "K=" << num_shards;
    const IdSet sharded = SortedIds(DrainStream(stream->get(), 0, 0));

    // Exactly the unsharded set: nothing lost, nothing extra, no
    // duplicates (a duplicate would break the sorted-set equality).
    EXPECT_EQ(sharded, reference)
        << "K=" << num_shards << ", param=" << param;

    // Additive stats: the aggregate equals the per-shard solo counters
    // summed (slice boundaries never change engine counters). Under an
    // ambient PROGXE_FAULT_SITES soak the delivered *set* above must still
    // match exactly — that is the recovery guarantee — but replayed shard
    // incarnations redo work, so counter additivity only holds fault-free.
    if (FaultInjector::FromEnv() == nullptr) {
      ProgXeStats expected;
      if (num_shards == 1) {
        expected = unsharded_stats;
      } else {
        expected = SumOfSoloShardRuns(cfg, options, num_shards);
      }
      ExpectSameStats(expected, (*stream)->stats(), "sharded aggregate");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalenceSweep,
                         ::testing::Range(0, 12));

class ShardedBudgetSweep : public ::testing::TestWithParam<int> {};

// Budgeted, capped consumption through the interface: any slicing of the
// sharded stream delivers the same set, and small budgets actually yield.
TEST_P(ShardedBudgetSweep, BudgetedConsumptionDeliversSameSet) {
  const int param = GetParam();
  Rng rng(0xb1a5 + static_cast<uint64_t>(param));
  const Config cfg = MakeConfig(&rng, param % 3 == 0, param % 2 == 0);

  ProgXeOptions options;
  options.seed = 0xfeed;

  ProgXeStats unsharded_stats;
  const IdSet reference = UnshardedReference(cfg, options, &unsharded_stats);

  size_t total_yields = 0;
  for (size_t max_pairs : {size_t{16}, size_t{256}}) {
    ShardOptions shard_options;
    shard_options.num_shards = 4;
    auto stream = OpenProgXeStream(cfg.query(), options, shard_options);
    ASSERT_TRUE(stream.ok());
    size_t yields = 0;
    const IdSet sharded =
        SortedIds(DrainStream(stream->get(), 5, max_pairs, &yields));
    EXPECT_EQ(sharded, reference)
        << "max_pairs=" << max_pairs << ", param=" << param;
    total_yields += yields;
  }
  // A 16-pair budget over a non-trivial join must pause without a globally
  // final result at least once; otherwise the yield path is dead code.
  if (unsharded_stats.join_pairs_generated > 200) {
    EXPECT_GT(total_yields, 0u) << "param=" << param;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedBudgetSweep, ::testing::Range(0, 6));

// options.max_results is enforced at the merge sink: the capped sharded
// stream delivers exactly min(cap, |skyline|) distinct members of the full
// skyline (the *which* prefix is scheduling-dependent, membership is not).
TEST(ShardedStream, MaxResultsCapsAtMergeWithOnlyFinalTuples) {
  Rng rng(0xca95);
  const Config cfg = MakeConfig(&rng, false, true);

  ProgXeOptions options;
  options.seed = 0xfeed;
  ProgXeStats unsharded_stats;
  const IdSet full = UnshardedReference(cfg, options, &unsharded_stats);
  ASSERT_GT(full.size(), 3u) << "config too small to exercise the cap";

  for (size_t cap : {size_t{1}, size_t{3}, full.size() + 10}) {
    ProgXeOptions capped = options;
    capped.max_results = cap;
    ShardOptions shard_options;
    shard_options.num_shards = 4;
    auto stream = OpenProgXeStream(cfg.query(), capped, shard_options);
    ASSERT_TRUE(stream.ok());
    const IdSet got = SortedIds(DrainStream(stream->get(), 0, 128));
    EXPECT_EQ(got.size(), std::min(cap, full.size())) << "cap=" << cap;
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
        << "duplicate delivery, cap=" << cap;
    for (const auto& id : got) {
      EXPECT_TRUE(std::binary_search(full.begin(), full.end(), id))
          << "non-final tuple delivered (r=" << id.first
          << ", t=" << id.second << "), cap=" << cap;
    }
  }
}

// Every intermediate delivery is already final: a prefix of the sharded
// stream is always a subset of the full skyline, so nothing would ever
// need retracting.
TEST(ShardedStream, ProgressiveDeliveriesAreFinal) {
  Rng rng(0xf17a1);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  ProgXeStats unsharded_stats;
  const IdSet full = UnshardedReference(cfg, options, &unsharded_stats);

  ShardOptions shard_options;
  shard_options.num_shards = 4;
  auto opened = ShardedStream::Open(cfg.query(), options, shard_options);
  ASSERT_TRUE(opened.ok());
  ShardedStream* stream = opened->get();
  std::vector<ResultTuple> batch;
  size_t delivered = 0;
  while (!stream->Finished()) {
    const size_t n = stream->NextBatch(3, 64, &batch);
    delivered += n;
    for (const ResultTuple& res : batch) {
      EXPECT_TRUE(std::binary_search(full.begin(), full.end(),
                                     std::make_pair(res.r_id, res.t_id)))
          << "delivered tuple outside the final skyline";
    }
    if (n == 0 && stream->Finished()) break;
  }
  EXPECT_EQ(delivered, full.size());
  EXPECT_EQ(stream->held_candidates(), 0u);
}

// Adversarial high-K config: K far above the useful shard count, two of
// three output dimensions tied to constants (every join result collides on
// them, so the accepted set is dominated by point-equal ties) and a tiny
// join selectivity (most shards see a handful of keys, exhausting at very
// different times — maximal pressure on the release gate). The sharded set
// must still equal the unsharded skyline exactly: accepted-frontier
// pruning may only ever drop candidates a surviving entry dominates, so a
// lost non-dominated result here would be a pruning soundness bug.
TEST(ShardedStream, HighShardCountHeavyTiesTinySigma) {
  Rng rng(0xad5e);
  Config cfg;
  const int src_dims = 3;
  GeneratorOptions gen;
  gen.distribution = Distribution::kAntiCorrelated;
  gen.cardinality = 400;
  gen.num_attributes = src_dims;
  gen.join_selectivity = 0.004;  // ~a couple of rows per key class
  gen.seed = rng.Next();
  cfg.r = GenerateRelation(gen).MoveValue();
  gen.seed = rng.Next();
  cfg.t = GenerateRelation(gen).MoveValue();

  // Dimensions 0 and 1 are constants (weight-0 terms): heavy ties.
  std::vector<MapFunc> funcs;
  funcs.push_back(MapFunc({MapTerm{Side::kR, 0, 0.0}}, 1.0));
  funcs.push_back(MapFunc({MapTerm{Side::kT, 0, 0.0}}, 2.0));
  funcs.push_back(MapFunc({MapTerm{Side::kR, 1, 1.0}, MapTerm{Side::kT, 1, 1.0}},
                          0.0));
  cfg.map = MapSpec(std::move(funcs));
  cfg.pref = Preference::AllLowest(3);

  ProgXeOptions options;
  options.seed = 0xfeed;
  ProgXeStats unsharded_stats;
  const IdSet reference = UnshardedReference(cfg, options, &unsharded_stats);
  ASSERT_GT(reference.size(), 0u);

  for (int num_shards : {1, 16}) {
    ShardOptions shard_options;
    shard_options.num_shards = num_shards;
    auto opened = ShardedStream::Open(cfg.query(), options, shard_options);
    ASSERT_TRUE(opened.ok()) << "K=" << num_shards;
    ShardedStream* stream = opened->get();
    const IdSet sharded = SortedIds(DrainStream(stream, 0, 0));
    EXPECT_EQ(sharded, reference) << "K=" << num_shards;
    // Nothing may be stranded in the merge: a candidate held forever would
    // mean the frontier pruning or the release gate dropped/blocked a
    // non-dominated result.
    EXPECT_EQ(stream->held_candidates(), 0u) << "K=" << num_shards;
  }
}

// Planner invariants: shards partition both sources exactly (every row in
// exactly one shard) and group whole join-key classes.
TEST(ShardPlanner, DisjointCompleteKeyPartition) {
  Rng rng(0x9a27);
  const Config cfg = MakeConfig(&rng, false, false);
  constexpr int kShards = 4;
  const std::vector<QueryShard> shards = PlanShards(cfg.r, cfg.t, kShards);
  ASSERT_EQ(shards.size(), static_cast<size_t>(kShards));

  std::vector<int> r_owner(cfg.r.size(), -1);
  for (int s = 0; s < kShards; ++s) {
    const QueryShard& shard = shards[static_cast<size_t>(s)];
    ASSERT_EQ(shard.r.size(), shard.r_orig_ids.size());
    for (size_t i = 0; i < shard.r.size(); ++i) {
      const RowId orig = shard.r_orig_ids[i];
      EXPECT_EQ(r_owner[orig], -1) << "row in two shards";
      r_owner[orig] = s;
      // Attribute payload and key survive the move intact, and the row's
      // key hashes to this shard.
      const RowId local = static_cast<RowId>(i);
      EXPECT_EQ(shard.r.join_key(local), cfg.r.join_key(orig));
      EXPECT_EQ(ShardOfKey(shard.r.join_key(local), kShards), s);
    }
  }
  for (int owner : r_owner) EXPECT_NE(owner, -1) << "row lost";
}

TEST(ShardedStream, CloseMidStreamReleasesAndFinishes) {
  Rng rng(0xc1053);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  auto stream = OpenProgXeStream(cfg.query(), options, shard_options);
  ASSERT_TRUE(stream.ok());
  std::vector<ResultTuple> batch;
  (*stream)->NextBatch(0, /*max_pairs=*/8, &batch);
  (*stream)->Close();
  EXPECT_TRUE((*stream)->Finished());
  EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
  // Counters stay readable after Close.
  EXPECT_GT((*stream)->stats().r_rows, 0u);
}

// --- Concurrent shard pumping ----------------------------------------------
//
// The stream pumps its shards on a pool and applies their results in
// round-robin order, so the merge input — and everything derived from it —
// must not depend on the interleaving.

std::unique_ptr<WorkerServer> StartLoopbackWorker() {
  WorkerServerOptions options;
  options.port = 0;
  auto server = WorkerServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return server.ok() ? server.MoveValue() : nullptr;
}

/// Counters of one shard's slice drained alone, unbudgeted: after the open
/// (index 0) and after every NextBatch(0, 0) pump that followed.
std::vector<ProgXeStats> SoloPumpSnapshots(const QueryShard& shard,
                                           const Config& cfg,
                                           const ProgXeOptions& options) {
  auto session = ProgXeSession::Open(shard.Query(cfg.query()), options);
  EXPECT_TRUE(session.ok());
  std::vector<ProgXeStats> snapshots = {(*session)->stats()};
  std::vector<ResultTuple> batch;
  while (!(*session)->Finished()) {
    (*session)->NextBatch(0, 0, &batch);
    snapshots.push_back((*session)->stats());
  }
  return snapshots;
}

bool SameWork(const ProgXeStats& a, const ProgXeStats& b) {
  return a.join_pairs_generated == b.join_pairs_generated &&
         a.dominance_comparisons == b.dominance_comparisons &&
         a.results_emitted == b.results_emitted &&
         a.regions_processed == b.regions_processed &&
         a.cells_flushed == b.cells_flushed;
}

/// An unbudgeted stream applies exactly one pump per live shard per round.
/// So after R rounds each shard's counters must be its solo session's after
/// min(R, its pump count) pumps — with one R for every shard. And every
/// result a live shard's counters claim must have reached the merge: the
/// replay-dedup sets hold exactly the tuples ingested from shards that have
/// not finished. Counting a pump a shard ran ahead but the stream never
/// applied breaks the second check even when every shard ran equally far.
void ExpectAppliedRoundsOnly(const ShardedStream& stream,
                             const std::vector<QueryShard>& slices,
                             const Config& cfg, const ProgXeOptions& options,
                             const std::string& label) {
  std::vector<std::vector<ProgXeStats>> solo;
  size_t longest = 0;
  for (const QueryShard& slice : slices) {
    solo.push_back(SoloPumpSnapshots(slice, cfg, options));
    longest = std::max(longest, solo.back().size());
  }
  auto at = [&solo](size_t s, size_t round) -> const ProgXeStats& {
    return solo[s][std::min(round, solo[s].size() - 1)];
  };
  for (size_t round = 0; round < longest; ++round) {
    bool all = true;
    for (size_t s = 0; s < solo.size() && all; ++s) {
      all = SameWork(stream.shard_stats(static_cast<int>(s)), at(s, round));
    }
    if (!all) continue;
    size_t ingested = 0;
    for (size_t s = 0; s < solo.size(); ++s) {
      const ProgXeStats applied = stream.shard_stats(static_cast<int>(s));
      ExpectSameStats(at(s, round), applied, label.c_str());
      if (round + 1 < solo[s].size()) ingested += applied.results_emitted;
    }
    EXPECT_GT(ingested, 0u) << label << ": every shard already finished";
    EXPECT_EQ(stream.dedup_entries(), ingested) << label;
    return;
  }
  ADD_FAILURE() << label << ": shard counters match no common round count";
}

// The acceptance matrix: K in {2, 4, 8} x unbudgeted / 97-pair budgeted x
// in-process / loopback workers. The delivered set is the brute-force
// skyline, every shard's counters are its standalone session's, and the
// merge's own deterministic counters repeat exactly.
TEST(ShardedConcurrency, MatrixMatchesOracleAndRepeatsExactly) {
  Rng rng(0xc0c0);
  const Config cfg = MakeConfig(&rng, false, true);
  const auto oracle = Oracle(cfg);
  ASSERT_GT(oracle.size(), 10u) << "config too small to exercise the merge";
  ProgXeOptions options;
  options.seed = 0xfeed;
  // Exact counters only hold fault-free: under an ambient soak, replayed
  // incarnations redo work, so only the delivered set is checked.
  const bool fault_free = FaultInjector::FromEnv() == nullptr;
  constexpr int kRepeats = 20;

  auto worker_a = StartLoopbackWorker();
  auto worker_b = StartLoopbackWorker();
  ASSERT_TRUE(worker_a != nullptr && worker_b != nullptr);
  const std::vector<std::string> endpoints = {
      "127.0.0.1:" + std::to_string(worker_a->port()),
      "127.0.0.1:" + std::to_string(worker_b->port())};

  for (int num_shards : {2, 4, 8}) {
    std::vector<ProgXeStats> solo;
    for (const QueryShard& slice : PlanShards(cfg.r, cfg.t, num_shards)) {
      solo.push_back(SoloPumpSnapshots(slice, cfg, options).back());
    }
    for (size_t max_pairs : {size_t{0}, size_t{97}}) {
      for (bool remote : {false, true}) {
        const std::string label = "K=" + std::to_string(num_shards) +
                                  " max_pairs=" + std::to_string(max_pairs) +
                                  (remote ? " loopback" : " in-process");
        ShardOptions shard_options;
        shard_options.num_shards = num_shards;
        if (remote) shard_options.workers = endpoints;
        uint64_t merge_comparisons = 0;
        size_t held_peak = 0;
        for (int rep = 0; rep < kRepeats; ++rep) {
          auto stream = ShardedStream::Open(cfg.query(), options,
                                            shard_options);
          ASSERT_TRUE(stream.ok()) << label;
          EXPECT_EQ(SortedIds(DrainStream(stream->get(), 0, max_pairs)),
                    oracle)
              << label << " rep=" << rep;
          if (!fault_free) continue;
          if (rep == 0) {
            for (int s = 0; s < num_shards; ++s) {
              ExpectSameStats(solo[static_cast<size_t>(s)],
                              (*stream)->shard_stats(s), label.c_str());
            }
            merge_comparisons = (*stream)->merge_comparisons();
            held_peak = (*stream)->held_peak();
          } else {
            EXPECT_EQ((*stream)->merge_comparisons(), merge_comparisons)
                << label << " rep=" << rep;
            EXPECT_EQ((*stream)->held_peak(), held_peak)
                << label << " rep=" << rep;
          }
        }
      }
    }
  }
}

// A result cap reached while every shard has pumps in flight: the stream
// finishes without hanging, and stats() holds exactly the applied rounds —
// never the work shards ran ahead. Odd repeats take the two results one
// call at a time and let the run-ahead pumps finish in between, so the
// unapplied work differs between repeats while the applied rounds do not.
TEST(ShardedConcurrency, CapWithPumpsInFlightCountsAppliedPumpsOnly) {
  if (FaultInjector::FromEnv() != nullptr) {
    GTEST_SKIP() << "exact round accounting holds fault-free only";
  }
  const Config cfg = test::MakeLargeConfig(0xcab5, 1500);
  const auto oracle = Oracle(cfg);
  ASSERT_GT(oracle.size(), 2u);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;
  const std::vector<QueryShard> slices = PlanShards(cfg.r, cfg.t, kShards);
  ProgXeStats first;
  for (int rep = 0; rep < 6; ++rep) {
    ProgXeOptions capped = options;
    capped.max_results = 2;
    ShardOptions shard_options;
    shard_options.num_shards = kShards;
    auto stream = ShardedStream::Open(cfg.query(), capped, shard_options);
    ASSERT_TRUE(stream.ok());
    std::vector<ResultTuple> all;
    if (rep % 2 == 1) {
      ASSERT_EQ((*stream)->NextBatch(1, 0, &all), 1u);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (ResultTuple& res : DrainStream(stream->get(), 0, 0)) {
      all.push_back(std::move(res));
    }
    const IdSet got = SortedIds(all);
    EXPECT_EQ(got.size(), 2u);
    for (const auto& id : got) {
      EXPECT_TRUE(std::binary_search(oracle.begin(), oracle.end(), id));
    }
    ExpectAppliedRoundsOnly(**stream, slices, cfg, options, "capped");
    if (rep == 0) first = (*stream)->stats();
    ExpectSameStats(first, (*stream)->stats(), "capped repeat");
  }
}

// Close after the first unbudgeted batch, with up to two pumps per shard
// still running ahead: Close waits them out, drops their results and the
// counters stay at the applied rounds — whether the run-ahead pumps had
// finished (odd repeats wait for them) or were still running.
TEST(ShardedConcurrency, CloseWithPumpsInFlightCountsAppliedPumpsOnly) {
  if (FaultInjector::FromEnv() != nullptr) {
    GTEST_SKIP() << "exact round accounting holds fault-free only";
  }
  const Config cfg = test::MakeLargeConfig(0xc105e, 1500);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 8;
  const std::vector<QueryShard> slices = PlanShards(cfg.r, cfg.t, kShards);
  ProgXeStats first;
  for (int rep = 0; rep < 6; ++rep) {
    ShardOptions shard_options;
    shard_options.num_shards = kShards;
    auto stream = ShardedStream::Open(cfg.query(), options, shard_options);
    ASSERT_TRUE(stream.ok());
    std::vector<ResultTuple> batch;
    EXPECT_GT((*stream)->NextBatch(0, 0, &batch), 0u);
    if (rep % 2 == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    (*stream)->Close();
    EXPECT_TRUE((*stream)->Finished());
    EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
    ExpectAppliedRoundsOnly(**stream, slices, cfg, options, "closed");
    if (rep == 0) first = (*stream)->stats();
    ExpectSameStats(first, (*stream)->stats(), "closed repeat");
  }
}

// A budgeted call after an unbudgeted one. The unbudgeted call applied R
// pumps per shard and left the next two running ahead; the budgeted calls
// that follow apply exactly those leftovers first — one per shard per call,
// charged to the call, so these calls exceed their budget — before any
// budgeted pump is issued. From then on every call is an ordinary budgeted
// one, no larger than the largest call of a stream that was never
// unbudgeted.
TEST(ShardedConcurrency, BudgetedCallsAfterUnbudgetedApplyLeftoversFirst) {
  if (FaultInjector::FromEnv() != nullptr) {
    GTEST_SKIP() << "exact pump accounting holds fault-free only";
  }
  const Config cfg = test::MakeLargeConfig(0xb0d9e7, 1500);
  const auto oracle = Oracle(cfg);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;
  constexpr size_t kBudget = 97;
  ShardOptions shard_options;
  shard_options.num_shards = kShards;

  // Pairs of each solo unbudgeted pump, per shard.
  std::vector<std::vector<uint64_t>> pumps;
  for (const QueryShard& slice : PlanShards(cfg.r, cfg.t, kShards)) {
    const std::vector<ProgXeStats> snaps =
        SoloPumpSnapshots(slice, cfg, options);
    pumps.emplace_back();
    for (size_t p = 1; p < snaps.size(); ++p) {
      pumps.back().push_back(snaps[p].join_pairs_generated -
                             snaps[p - 1].join_pairs_generated);
    }
  }
  auto pump_pairs = [&pumps](size_t round) {
    uint64_t sum = 0;
    for (const std::vector<uint64_t>& shard : pumps) {
      if (round < shard.size()) sum += shard[round];
    }
    return sum;
  };

  auto budgeted_only = ShardedStream::Open(cfg.query(), options, shard_options);
  ASSERT_TRUE(budgeted_only.ok());
  std::vector<ResultTuple> batch;
  uint64_t largest_call = 0;
  while (!(*budgeted_only)->Finished()) {
    const uint64_t before = (*budgeted_only)->stats().join_pairs_generated;
    (*budgeted_only)->NextBatch(0, kBudget, &batch);
    largest_call = std::max(
        largest_call, (*budgeted_only)->stats().join_pairs_generated - before);
  }

  auto stream = ShardedStream::Open(cfg.query(), options, shard_options);
  ASSERT_TRUE(stream.ok());
  std::vector<ResultTuple> all;
  ASSERT_GT((*stream)->NextBatch(0, 0, &all), 0u);
  // R: the unbudgeted call's rounds, one pump per shard each.
  size_t rounds = 0;
  uint64_t applied = 0;
  while (applied < (*stream)->stats().join_pairs_generated) {
    applied += pump_pairs(rounds++);
  }
  ASSERT_EQ(applied, (*stream)->stats().join_pairs_generated);
  size_t call = 0;
  while (!(*stream)->Finished()) {
    const uint64_t before = (*stream)->stats().join_pairs_generated;
    (*stream)->NextBatch(0, kBudget, &batch);
    all.insert(all.end(), batch.begin(), batch.end());
    const uint64_t pairs = (*stream)->stats().join_pairs_generated - before;
    if (call < 2) {
      EXPECT_EQ(pairs, pump_pairs(rounds + call)) << "leftover call " << call;
      EXPECT_GT(pairs, kBudget) << "leftover call " << call;
    } else {
      EXPECT_LE(pairs, largest_call) << "call " << call;
    }
    ++call;
  }
  EXPECT_GT(call, 2u);
  EXPECT_EQ(SortedIds(all), oracle);
}

TEST(ShardedStream, InvalidQueryFailsOpenAndEmptySourcesFinish) {
  if (FaultInjector::FromEnv() != nullptr) {
    GTEST_SKIP() << "ambient fault injection turns open-time errors into "
                    "quarantine/retry; open-failure semantics are covered "
                    "fault-free";
  }
  Config bad;
  bad.r = Relation(Schema::Anonymous(2));
  bad.t = Relation(Schema::Anonymous(2));
  bad.map = MapSpec::PairwiseSum(2);
  bad.pref = Preference::AllLowest(3);  // dimensionality mismatch
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  EXPECT_TRUE(OpenProgXeStream(bad.query(), ProgXeOptions(), shard_options)
                  .status()
                  .IsInvalidArgument());

  Config empty = std::move(bad);
  empty.pref = Preference::AllLowest(2);
  auto stream =
      OpenProgXeStream(empty.query(), ProgXeOptions(), shard_options);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE((*stream)->Finished());
  std::vector<ResultTuple> batch;
  EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
}

}  // namespace
}  // namespace progxe
