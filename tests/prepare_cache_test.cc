// PrepareCache tests: the cross-query prepared-state cache must be
// semantically invisible. A cache hit skips the prepare phase but the
// session it feeds must deliver the exact cold-run emission sequence with
// bit-identical ProgXeStats; the fingerprint must separate every
// prepare-affecting input (sources, mapping, preference, prepare options)
// while ignoring consumption-side options; the LRU budget must be honored
// on both axes; and concurrent submitters must converge on one shared
// entry. Refinement seeding rides the same contract: a seeded run may only
// change cost counters, never the result set.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "equivalence_common.h"
#include "harness/workload.h"
#include "mapping/canonical.h"
#include "progxe/prepare_cache.h"
#include "progxe/session.h"
#include "shard/shard_planner.h"

namespace progxe {
namespace {

using test::Config;
using test::ExpectSameStats;
using test::MakeConfig;

using IdSeq = std::vector<std::pair<RowId, RowId>>;

/// Drains a session to completion, recording the emission sequence (and
/// optionally the full tuples, for seed construction).
IdSeq Drain(const Config& cfg, const ProgXeOptions& options,
            ProgXeStats* stats, std::vector<ResultTuple>* tuples = nullptr) {
  IdSeq seq;
  auto session = ProgXeSession::Open(cfg.query(), options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  std::vector<ResultTuple> batch;
  while (!(*session)->Finished()) {
    if ((*session)->NextBatch(0, &batch) == 0) break;
    for (ResultTuple& res : batch) {
      seq.emplace_back(res.r_id, res.t_id);
      if (tuples != nullptr) tuples->push_back(std::move(res));
    }
  }
  if (stats != nullptr) *stats = (*session)->stats();
  return seq;
}

IdSeq Sorted(IdSeq seq) {
  std::sort(seq.begin(), seq.end());
  return seq;
}

/// Rebuilds `spec` with the first term's weight nudged: same shape, same
/// sources — a different canonical mapping that must miss the cache.
MapSpec PerturbFirstWeight(const MapSpec& spec) {
  std::vector<MapFunc> funcs;
  for (int j = 0; j < spec.output_dimensions(); ++j) {
    const MapFunc& f = spec.func(j);
    std::vector<MapTerm> terms = f.terms();
    if (j == 0 && !terms.empty()) terms[0].weight += 0.5;
    funcs.push_back(MapFunc(terms, f.constant(), f.transform()));
  }
  return MapSpec(std::move(funcs));
}

/// Folds a parent run's output tuples under the *child's* mapper — the
/// same construction the scheduler uses for SubmitOptions::seed_from_parent.
std::shared_ptr<const RefinementSeed> SeedFrom(
    const Config& child, const std::vector<ResultTuple>& parent_results) {
  CanonicalMapper mapper(child.map, child.pref);
  auto seed = std::make_shared<RefinementSeed>();
  seed->k = child.map.output_dimensions();
  for (const ResultTuple& res : parent_results) {
    for (int j = 0; j < seed->k; ++j) {
      seed->canonical.push_back(mapper.Canonicalize(j, res.values[j]));
    }
  }
  return seed;
}

// Every prepare-affecting input moves the fingerprint; every
// consumption-side option leaves it alone. In particular the ISSUE case:
// the same sources under a different mapping MUST miss.
TEST(PrepareCacheFingerprint, SeparatesPrepareInputsIgnoresConsumption) {
  Rng rng(0x9ca0);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;

  const std::string fp = PrepareCache::Fingerprint(cfg.query(), options);
  // Deterministic: recomputing yields the same key.
  EXPECT_EQ(fp, PrepareCache::Fingerprint(cfg.query(), options));

  // Content-addressed, not identity-addressed: distinct Relation objects
  // with equal contents hash equal.
  Config copy;
  copy.r = cfg.r;
  copy.t = cfg.t;
  copy.map = cfg.map;
  copy.pref = cfg.pref;
  EXPECT_EQ(fp, PrepareCache::Fingerprint(copy.query(), options));

  // Same sources, different mapping: must be a different key.
  Config remapped = copy;
  remapped.map = PerturbFirstWeight(cfg.map);
  EXPECT_NE(fp, PrepareCache::Fingerprint(remapped.query(), options));

  // Preference directions fold into the canonical mapper's signs, which
  // the contribution tables bake in — flipping one must move the key.
  Config flipped = copy;
  std::vector<Direction> dirs = cfg.pref.directions();
  dirs[0] = dirs[0] == Direction::kLowest ? Direction::kHighest
                                          : Direction::kLowest;
  flipped.pref = Preference(std::move(dirs));
  EXPECT_NE(fp, PrepareCache::Fingerprint(flipped.query(), options));

  // Prepare-affecting options move the key...
  ProgXeOptions pushed = options;
  pushed.push_through = !options.push_through;
  EXPECT_NE(fp, PrepareCache::Fingerprint(cfg.query(), pushed));

  // ...while consumption-side options (ordering, budgets, seed) never
  // change what the prepare phase builds, so they share the entry.
  ProgXeOptions consumer = options;
  consumer.seed = 0xbeef;
  consumer.ordering = OrderingMode::kRandom;
  consumer.max_results = 7;
  EXPECT_EQ(fp, PrepareCache::Fingerprint(cfg.query(), consumer));
}

// LRU behavior under the byte budget, end to end through
// ProgXeSession::Open: hits bump recency, evictions drop the
// least-recently-used entry, and an entry larger than the whole budget is
// served back uncached without poisoning the cache.
TEST(PrepareCache, HitMissEvictionUnderByteBudget) {
  Rng rng(0x9ca1);
  const Config a = MakeConfig(&rng, false, false);
  const Config b = MakeConfig(&rng, false, true);
  const Config c = MakeConfig(&rng, true, false);

  auto open = [](const Config& cfg, std::shared_ptr<PrepareCache> cache) {
    ProgXeOptions options;
    options.seed = 0xfeed;
    options.prepare_cache = std::move(cache);
    return Sorted(Drain(cfg, options, nullptr));
  };

  // Measure each entry alone, then size the cache so any two of the three
  // fit but not all three.
  auto measure = std::make_shared<PrepareCache>(/*max_bytes=*/0);
  size_t bytes[3];
  size_t total = 0;
  const Config* configs[3] = {&a, &b, &c};
  for (int i = 0; i < 3; ++i) {
    open(*configs[i], measure);
    bytes[i] = measure->stats().bytes - total;
    total = measure->stats().bytes;
    ASSERT_GT(bytes[i], 0u);
  }
  const size_t budget = std::max(
      {bytes[0] + bytes[1], bytes[0] + bytes[2], bytes[1] + bytes[2]});

  auto cache = std::make_shared<PrepareCache>(budget);
  const IdSeq ref_a = open(a, cache);  // miss -> [A]
  open(b, cache);                      // miss -> [B, A]
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().entries, 2u);

  open(a, cache);  // hit, bumps recency -> [A, B]
  EXPECT_EQ(cache->stats().hits, 1u);

  open(c, cache);  // miss, evicts LRU = B -> [C, A]
  EXPECT_EQ(cache->stats().misses, 3u);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->stats().entries, 2u);

  // A survived the eviction (it was bumped), B did not.
  EXPECT_EQ(open(a, cache), ref_a);  // hit
  EXPECT_EQ(cache->stats().hits, 2u);
  open(b, cache);  // miss again: B was the one evicted -> [B, A]
  EXPECT_EQ(cache->stats().misses, 4u);
  EXPECT_EQ(cache->stats().evictions, 2u);
  EXPECT_EQ(cache->stats().entries, 2u);
  EXPECT_LE(cache->stats().bytes, budget);

  // An entry larger than the whole byte budget is served back uncached:
  // the query still runs (and returns the right set), the cache stays
  // empty instead of thrashing.
  auto tiny = std::make_shared<PrepareCache>(/*max_bytes=*/1);
  EXPECT_EQ(open(a, tiny), ref_a);
  EXPECT_EQ(tiny->stats().entries, 0u);
  EXPECT_EQ(tiny->stats().bytes, 0u);
  EXPECT_EQ(tiny->stats().misses, 1u);
}

// The byte estimate counts every partition's key runs (its rows, plus the
// keys and run offsets) and bounds.
TEST(PrepareCache, ApproxBytesCountsKeyRuns) {
  WorkloadParams params;
  params.distribution = Distribution::kAntiCorrelated;
  params.cardinality = 2000;
  params.dims = 4;
  params.sigma = 0.001;
  params.seed = 7;
  auto workload = Workload::Make(params);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  PreparedInputs inputs;
  ASSERT_TRUE(BuildPreparedInputs(workload->query(), ProgXeOptions(),
                                  /*own_sources=*/true, &inputs)
                  .ok());
  ASSERT_FALSE(inputs.trivially_empty);
  size_t grid_bytes = 0;
  for (const InputGrid* grid : {&inputs.r_grid, &inputs.t_grid}) {
    size_t floor = 0;
    for (const InputPartition& p : grid->partitions()) {
      EXPECT_GE(p.key_index.ApproxBytes(),
                p.size() * sizeof(RowId) + sizeof(JoinKey) +
                    2 * sizeof(uint32_t));
      floor += p.bounds.capacity() * sizeof(Interval) +
               p.key_index.ApproxBytes();
    }
    EXPECT_GE(grid->ApproxBytes(), floor);
    grid_bytes += grid->ApproxBytes();
  }
  EXPECT_GT(inputs.ApproxBytes(), grid_bytes);
}

// Concurrent submitters of the same query converge on one shared entry —
// both through the insert race (first writer wins, everyone else keeps an
// equivalent instance) and through the steady state (all hits). Run under
// TSan in CI; the assertions here are the functional half of the check.
TEST(PrepareCache, ConcurrentSessionsConvergeOnOneEntry) {
  Rng rng(0x9ca2);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions cold;
  cold.seed = 0xfeed;
  const IdSeq reference = Sorted(Drain(cfg, cold, nullptr));
  constexpr int kThreads = 8;

  // Phase 1: cold insert race. All threads miss-or-hit but the cache ends
  // with exactly one entry and every thread served the exact skyline.
  {
    auto cache = std::make_shared<PrepareCache>(/*max_bytes=*/0);
    std::vector<IdSeq> served(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ProgXeOptions options;
        options.seed = 0xfeed;
        options.prepare_cache = cache;
        served[static_cast<size_t>(i)] = Sorted(Drain(cfg, options, nullptr));
      });
    }
    for (std::thread& th : threads) th.join();
    for (const IdSeq& seq : served) EXPECT_EQ(seq, reference);
    const PrepareCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GE(stats.misses, 1u);
    EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  }

  // Phase 2: prepopulated steady state. Every concurrent open is a hit on
  // the one shared immutable entry.
  {
    auto cache = std::make_shared<PrepareCache>(/*max_bytes=*/0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    options.prepare_cache = cache;
    Drain(cfg, options, nullptr);  // populate
    std::vector<IdSeq> served(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ProgXeOptions opts;
        opts.seed = 0xfeed;
        opts.prepare_cache = cache;
        served[static_cast<size_t>(i)] = Sorted(Drain(cfg, opts, nullptr));
      });
    }
    for (std::thread& th : threads) th.join();
    for (const IdSeq& seq : served) EXPECT_EQ(seq, reference);
    const PrepareCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads));
  }
}

// The semantic guard, swept across the same 12-config matrix as the
// session-equivalence suite: a cache-hit run must reproduce the cold run's
// emission sequence and every ProgXeStats counter bit for bit.
class PrepareCacheEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrepareCacheEquivalenceSweep, CachedHitMatchesColdRun) {
  const int param = GetParam();
  Rng rng(0x9ca9 + static_cast<uint64_t>(param));
  const Config cfg = MakeConfig(&rng, param % 5 == 0, param % 4 == 0);

  ProgXeOptions options;
  options.seed = 0xfeed;
  if (param % 3 == 2) options.max_results = 1 + static_cast<size_t>(param);

  ProgXeStats cold_stats;
  const IdSeq cold = Drain(cfg, options, &cold_stats);

  auto cache = std::make_shared<PrepareCache>(/*max_bytes=*/0);
  ProgXeOptions cached = options;
  cached.prepare_cache = cache;

  // The populating miss must already be equivalent (it builds the same
  // inputs, only shared), then the hit skips the prepare phase entirely.
  ProgXeStats miss_stats;
  EXPECT_EQ(Drain(cfg, cached, &miss_stats), cold) << "param=" << param;
  ExpectSameStats(cold_stats, miss_stats, "populating miss vs cold");

  ProgXeStats hit_stats;
  EXPECT_EQ(Drain(cfg, cached, &hit_stats), cold) << "param=" << param;
  ExpectSameStats(cold_stats, hit_stats, "cache hit vs cold");

  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

INSTANTIATE_TEST_SUITE_P(Matrix, PrepareCacheEquivalenceSweep,
                         ::testing::Range(0, 12));

// Refinement seeding is cost-only: a run seeded from a finished parent's
// frontier — even a parent with a *flipped* preference, whose outputs are
// still genuine output points of the same (sources, mapping) — delivers
// exactly the unseeded result set. And under the same seeding config, a
// warm (cache-hit) run stays bit-identical to its cold counterpart.
TEST(PrepareCache, SeededRunMatchesUnseededSet) {
  for (uint64_t salt : {uint64_t{0}, uint64_t{3}}) {
    Rng rng(0x9cb0 + salt);
    const Config cfg = MakeConfig(&rng, salt == 3, salt == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;

    std::vector<ResultTuple> parent_results;
    const IdSeq unseeded = Sorted(Drain(cfg, options, nullptr,
                                        &parent_results));

    // Self-refinement: seed the query from its own accepted frontier.
    ProgXeOptions seeded = options;
    seeded.refinement_seed = SeedFrom(cfg, parent_results);
    ProgXeStats seeded_cold_stats;
    const IdSeq seeded_cold = Drain(cfg, seeded, &seeded_cold_stats);
    EXPECT_EQ(Sorted(seeded_cold), unseeded) << "salt=" << salt;

    // Pref-flip parent: its skyline members are genuine output points of
    // the same join + mapping, so they are sound discard witnesses for the
    // child once folded under the child's mapper.
    Config parent = cfg;
    std::vector<Direction> dirs = cfg.pref.directions();
    dirs[0] = dirs[0] == Direction::kLowest ? Direction::kHighest
                                            : Direction::kLowest;
    parent.pref = Preference(std::move(dirs));
    std::vector<ResultTuple> flipped_results;
    Drain(parent, options, nullptr, &flipped_results);

    ProgXeOptions cross_seeded = options;
    cross_seeded.refinement_seed = SeedFrom(cfg, flipped_results);
    EXPECT_EQ(Sorted(Drain(cfg, cross_seeded, nullptr)), unseeded)
        << "salt=" << salt;

    // Warm == cold under identical seeding: sequence and stats —
    // including regions_discarded_seed — bit for bit.
    auto cache = std::make_shared<PrepareCache>(/*max_bytes=*/0);
    ProgXeOptions warm = seeded;
    warm.prepare_cache = cache;
    Drain(cfg, warm, nullptr);  // populate
    ProgXeStats warm_stats;
    EXPECT_EQ(Drain(cfg, warm, &warm_stats), seeded_cold) << "salt=" << salt;
    ExpectSameStats(seeded_cold_stats, warm_stats, "seeded warm vs cold");
    EXPECT_EQ(cache->stats().hits, 1u);
  }
}

// Refinement seeds discard through the marked set: each seed point marks
// the cells strictly above its own, and the first Step's discard sweep
// removes the active regions whose lo_cell is marked. That must be exactly
// the regions whose best corner (lo_cell's lower edges) some seed point
// lies strictly below in every dimension, on unsharded and sharded (K=4,
// one global seed per shard) loops alike, with the marked set up-closed.
TEST(RefinementSeed, DiscardsMatchBestCornerRule) {
  size_t discarded = 0;
  for (uint64_t salt = 0; salt < 6; ++salt) {
    Rng rng(0x5eed5 + salt);
    const Config cfg = MakeConfig(&rng, salt % 3 == 2, salt % 2 == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    std::vector<ResultTuple> self_results;
    Drain(cfg, options, nullptr, &self_results);
    Config flipped = cfg;
    std::vector<Direction> dirs = cfg.pref.directions();
    dirs[0] = dirs[0] == Direction::kLowest ? Direction::kHighest
                                            : Direction::kLowest;
    flipped.pref = Preference(std::move(dirs));
    std::vector<ResultTuple> flipped_results;
    Drain(flipped, options, nullptr, &flipped_results);

    for (const auto* parent : {&self_results, &flipped_results}) {
      ProgXeOptions seeded = options;
      seeded.refinement_seed = SeedFrom(cfg, *parent);
      const RefinementSeed& seed = *seeded.refinement_seed;
      for (int num_shards : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "salt=" << salt << " flip=" << (parent != &self_results)
                     << " K=" << num_shards);
        std::vector<QueryShard> shards;
        std::vector<SkyMapJoinQuery> queries{cfg.query()};
        if (num_shards > 1) {
          shards = PlanShards(cfg.r, cfg.t, num_shards);
          queries.clear();
          for (const QueryShard& shard : shards) {
            queries.push_back(shard.Query(cfg.query()));
          }
        }
        for (const SkyMapJoinQuery& query : queries) {
          auto session = ProgXeSession::Open(query, seeded);
          ASSERT_TRUE(session.ok()) << session.status().ToString();
          const RegionLoop* loop = (*session)->region_loop();
          if (loop == nullptr) continue;
          const OutputTable& table = loop->table();
          const GridGeometry& geom = table.geometry();
          const int k = geom.dimensions();
          ASSERT_EQ(k, seed.k);

          // The deleted best-corner rule, against the marks the seed left.
          size_t expected = 0;
          for (const Region& region : loop->regions()) {
            if (!region.Active()) continue;
            bool dominated = false;
            for (size_t p = 0; p < seed.points() && !dominated; ++p) {
              const double* pt =
                  seed.canonical.data() + p * static_cast<size_t>(k);
              dominated = true;
              for (int j = 0; j < k; ++j) {
                const CellCoord lo = region.lo_cell[static_cast<size_t>(j)];
                dominated &= pt[j] < geom.CellLower(j, lo);
              }
            }
            EXPECT_EQ(table.marked(geom.IndexOf(region.lo_cell.data())),
                      dominated)
                << "region " << region.id;
            expected += dominated ? 1 : 0;
          }

          // Up-closure: a marked cell's upper neighbours are marked.
          std::vector<CellCoord> coords(static_cast<size_t>(k));
          for (CellIndex c = 0; c < geom.total_cells(); ++c) {
            if (!table.marked(c)) continue;
            geom.CoordsOfIndex(c, coords.data());
            for (int d = 0; d < k; ++d) {
              if (coords[static_cast<size_t>(d)] + 1 < geom.cells_per_dim()) {
                ASSERT_TRUE(table.marked(c + geom.stride(d)))
                    << "cell " << c << " dim " << d;
              }
            }
          }

          std::vector<ResultTuple> batch;
          while ((*session)->NextBatch(0, &batch) > 0) {
          }
          EXPECT_EQ((*session)->stats().regions_discarded_seed, expected);
          discarded += expected;
        }
      }
    }
  }
  EXPECT_GT(discarded, 0u) << "no seed discarded any region";
}

}  // namespace
}  // namespace progxe
