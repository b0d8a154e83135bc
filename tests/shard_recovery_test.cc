// Shard fault-recovery tests: a ShardedStream hit by injected faults must
// quarantine the failing shard, re-open it with bounded backoff, and — via
// idempotent replay — deliver a result set bit-identical to the fault-free
// run, with zero retractions. When retries are exhausted the stream either
// fails with the real error (default) or, under ShardOptions::allow_partial,
// completes with an accurate per-shard coverage report; either way no
// scheduler worker is ever wedged.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "equivalence_common.h"
#include "progxe/session.h"
#include "progxe/stream.h"
#include "service/scheduler.h"
#include "shard/shard_planner.h"
#include "shard/sharded_stream.h"

namespace progxe {
namespace {

using test::Config;
using test::MakeConfig;

using IdSet = std::vector<std::pair<RowId, RowId>>;

IdSet SortedIds(const std::vector<ResultTuple>& results) {
  IdSet ids;
  ids.reserve(results.size());
  for (const ResultTuple& res : results) ids.emplace_back(res.r_id, res.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ResultTuple> DrainStream(ProgXeStream* stream, size_t max_results,
                                     size_t max_pairs) {
  std::vector<ResultTuple> all;
  std::vector<ResultTuple> batch;
  while (!stream->Finished()) {
    const size_t n = stream->NextBatch(max_results, max_pairs, &batch);
    if (n == 0) {
      if (max_pairs == 0) break;
      continue;
    }
    for (ResultTuple& res : batch) all.push_back(std::move(res));
  }
  return all;
}

IdSet UnshardedReference(const Config& cfg, const ProgXeOptions& options) {
  auto session = ProgXeSession::Open(cfg.query(), options);
  EXPECT_TRUE(session.ok());
  return SortedIds(DrainStream(session->get(), 0, 0));
}

std::shared_ptr<FaultInjector> MustParse(const std::string& spec,
                                         uint64_t seed) {
  auto injector = FaultInjector::Parse(spec, seed);
  EXPECT_TRUE(injector.ok()) << injector.status().ToString();
  return injector.MoveValue();
}

// The acceptance sweep: shard-local fault sites x seeds x K in {2, 4, 8}.
// Every faulted-and-recovered run must deliver exactly the fault-free set
// (sorted-vector equality doubles as the no-duplicate / no-retraction
// check), report complete coverage, and leave no error behind. Transient
// failures are consumed silently by the retry machinery — the only trace is
// ShardCoverage::retries.
TEST(ShardRecovery, RetriedRunsDeliverTheFaultFreeSet) {
  int64_t total_fires = 0;
  uint64_t total_retries = 0;
  for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{23}}) {
    Rng rng(0x5eed + seed);
    const Config cfg = MakeConfig(&rng, seed % 2 == 0, seed % 3 == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    const IdSet reference = UnshardedReference(cfg, options);

    // kPrepareBuild fails inside the shard session's prepare phase (an open
    // failure to the recovery layer); kPipelineChunk kills the region loop
    // mid-stream through the session's error channel (a next_batch
    // failure). Both must ride the same quarantine/re-open/replay path as
    // the shard-seam sites.
    for (const char* site :
         {fault_sites::kShardOpen, fault_sites::kShardNextBatch,
          fault_sites::kPrepareBuild, fault_sites::kPipelineChunk}) {
      for (int num_shards : {2, 4, 8}) {
        ProgXeOptions faulty = options;
        // max=6 bounds the fire budget under max_retries=8, so a shard can
        // never see enough consecutive failures to exhaust its retries:
        // recovery is guaranteed, making the sweep deterministic-green.
        faulty.faults = MustParse(std::string(site) + ":p=0.3,max=6", seed);
        ShardOptions shard_options;
        shard_options.num_shards = num_shards;
        shard_options.max_retries = 8;
        shard_options.retry_backoff = std::chrono::milliseconds(0);

        auto stream = OpenProgXeStream(cfg.query(), faulty, shard_options);
        ASSERT_TRUE(stream.ok())
            << "site=" << site << " K=" << num_shards << " seed=" << seed;
        const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 0));
        EXPECT_EQ(delivered, reference)
            << "site=" << site << " K=" << num_shards << " seed=" << seed;
        EXPECT_TRUE((*stream)->last_status().ok());
        const ShardCoverage coverage = (*stream)->coverage();
        EXPECT_TRUE(coverage.complete());
        EXPECT_EQ(coverage.shards, num_shards);
        EXPECT_EQ(coverage.completed, num_shards);
        total_fires += faulty.faults->fires();
        total_retries += coverage.retries;
      }
    }
  }
  // The sweep must actually have exercised the recovery path — a spec that
  // never fires (or retries that never happen) would make it vacuous.
  EXPECT_GT(total_fires, 0);
  EXPECT_GT(total_retries, 0u);
}

// Budgeted (sliced) consumption across a fault: the backoff window turns
// into yields, never into a wedge, and the delivered set is still exact.
TEST(ShardRecovery, BudgetedDrainAcrossFaultsYieldsAndRecovers) {
  Rng rng(0x5eedb);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  const IdSet reference = UnshardedReference(cfg, options);

  ProgXeOptions faulty = options;
  faulty.faults = MustParse("shard.next_batch:p=1,max=3", 3);
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.max_retries = 8;
  shard_options.retry_backoff = std::chrono::milliseconds(1);
  auto stream = OpenProgXeStream(cfg.query(), faulty, shard_options);
  ASSERT_TRUE(stream.ok());
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 5, 64));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->coverage().complete());
  EXPECT_GT((*stream)->coverage().retries, 0u);
}

// Retry exhaustion without allow_partial: the stream dies with the real
// error, terminally and observably — NextBatch 0, Finished true, the
// injected code on last_status, stats still readable.
TEST(ShardRecovery, RetryExhaustionFailsTheStream) {
  Rng rng(0x5eedc);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions faulty;
  faulty.faults = MustParse("shard.open:p=1", 0);
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.max_retries = 1;
  shard_options.retry_backoff = std::chrono::milliseconds(0);
  auto stream = OpenProgXeStream(cfg.query(), faulty, shard_options);
  ASSERT_TRUE(stream.ok()) << "transient open failures must not fail Open";

  std::vector<ResultTuple> batch;
  EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
  EXPECT_TRUE((*stream)->Finished());
  const Status death = (*stream)->last_status();
  ASSERT_FALSE(death.ok());
  EXPECT_TRUE(death.IsUnavailable());
  // No shard ran to completion. (complete() itself only tracks *abandoned*
  // shards — the kPartial contract — and a failed stream abandons nothing;
  // last_status is the authoritative failure signal here.)
  EXPECT_EQ((*stream)->coverage().completed, 0);
  // Sticky: the dead stream stays dead and quiet.
  EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
  EXPECT_EQ((*stream)->last_status().code(), death.code());
}

// A non-retryable injected code is a decision, not a transient: it
// propagates straight out of Open instead of entering quarantine.
TEST(ShardRecovery, NonRetryableOpenFaultPropagates) {
  Rng rng(0x5eedd);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions faulty;
  faulty.faults = MustParse("shard.open:p=1,code=invalid_argument", 0);
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  auto stream = OpenProgXeStream(cfg.query(), faulty, shard_options);
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsInvalidArgument());
}

// A merge.release fault is not shard-local (the shared merge state is
// suspect), so the whole stream fails — no retry, no partial.
TEST(ShardRecovery, MergeReleaseFaultFailsWholeStream) {
  Rng rng(0x5eede);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions faulty;
  faulty.faults = MustParse("merge.release:p=1,code=io_error", 0);
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.allow_partial = true;  // must not rescue a merge fault
  auto stream = OpenProgXeStream(cfg.query(), faulty, shard_options);
  ASSERT_TRUE(stream.ok());
  std::vector<ResultTuple> batch;
  EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
  EXPECT_TRUE((*stream)->Finished());
  EXPECT_TRUE((*stream)->last_status().IsIOError());
}

// Graceful degradation, crisp case: shard 0 abandoned at its very first
// open (nothing ever observed from it), so the delivered set must be
// *exactly* the skyline of the covered shards' data — computed here as an
// independent unsharded run over the original relations with shard 0's
// rows removed, compared by original row ids.
TEST(ShardRecovery, AllowPartialDeliversExactlyTheCoveredSkyline) {
  Rng rng(0x5eedf);
  const Config cfg = MakeConfig(&rng, false, true);
  constexpr int kShards = 4;

  // Abandon a shard that actually owns rows (high sigma means few join-key
  // classes, so some shards can be empty): the one holding row 0's key.
  const int victim = ShardOfKey(cfg.r.join_key(0), kShards);

  // Covered-only reference: drop every row whose join key hashes to the
  // abandoned shard, run unsharded, map the renumbered ids back.
  std::vector<RowId> keep_r, keep_t;
  for (RowId i = 0; i < static_cast<RowId>(cfg.r.size()); ++i) {
    if (ShardOfKey(cfg.r.join_key(i), kShards) != victim) keep_r.push_back(i);
  }
  for (RowId i = 0; i < static_cast<RowId>(cfg.t.size()); ++i) {
    if (ShardOfKey(cfg.t.join_key(i), kShards) != victim) keep_t.push_back(i);
  }
  ASSERT_LT(keep_r.size(), cfg.r.size());
  std::vector<RowId> r_orig, t_orig;
  Config covered;
  covered.r = cfg.r.Select(keep_r, &r_orig);
  covered.t = cfg.t.Select(keep_t, &t_orig);
  covered.map = cfg.map;
  covered.pref = cfg.pref;
  ProgXeOptions options;
  options.seed = 0xfeed;
  IdSet reference;
  for (const auto& [r_id, t_id] : UnshardedReference(covered, options)) {
    reference.emplace_back(r_orig[r_id], t_orig[t_id]);
  }
  std::sort(reference.begin(), reference.end());

  ProgXeOptions faulty = options;
  faulty.faults = MustParse(
      "shard.open:p=1,shard=" + std::to_string(victim), 0);
  ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.max_retries = 0;
  shard_options.allow_partial = true;
  auto stream = OpenProgXeStream(cfg.query(), faulty, shard_options);
  ASSERT_TRUE(stream.ok());
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 0));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());

  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_FALSE(coverage.complete());
  EXPECT_EQ(coverage.shards, kShards);
  EXPECT_EQ(coverage.completed, kShards - 1);
  EXPECT_EQ(coverage.abandoned, 1);
  ASSERT_EQ(coverage.abandoned_shards.size(), 1u);
  EXPECT_EQ(coverage.abandoned_shards[0], victim);
  EXPECT_FALSE(coverage.ToString().empty());
}

/// Restores PROGXE_FAULT_RETRIES on scope exit even when an ASSERT bails
/// (the soak CI job sets it process-wide; clobbering it would change the
/// behavior of every later test in this binary).
struct ScopedRetryEnv {
  explicit ScopedRetryEnv(const char* value) {
    const char* prev = std::getenv("PROGXE_FAULT_RETRIES");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("PROGXE_FAULT_RETRIES", value, 1);
  }
  ~ScopedRetryEnv() {
    if (had_prev_) {
      setenv("PROGXE_FAULT_RETRIES", prev_.c_str(), 1);
    } else {
      unsetenv("PROGXE_FAULT_RETRIES");
    }
  }
  std::string prev_;
  bool had_prev_ = false;
};

// PROGXE_FAULT_RETRIES raises max_retries from the environment — the soak
// job's survivability knob: an ambient fault spec must not kill suites that
// configured no retries of their own.
TEST(ShardRecovery, EnvRetryOverrideRescuesZeroRetryStreams) {
  ScopedRetryEnv env("8");
  Rng rng(0x5eed0);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  const IdSet reference = UnshardedReference(cfg, options);

  ProgXeOptions faulty = options;
  faulty.faults = MustParse("shard.open:p=1,max=2", 0);
  ShardOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.max_retries = 0;  // would fail immediately without the env
  shard_options.retry_backoff = std::chrono::milliseconds(0);
  auto stream = OpenProgXeStream(cfg.query(), faulty, shard_options);
  ASSERT_TRUE(stream.ok());
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 0));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->coverage().complete());
}

/// Sink recording terminal state; asserts exactly one OnDone.
class PartialSink : public QuerySink {
 public:
  void OnBatch(const std::vector<ResultTuple>& batch) override {
    results_ += batch.size();
  }
  void OnDone(QueryState state, const Status& status,
              const ProgXeStats&) override {
    EXPECT_FALSE(done_) << "OnDone fired twice";
    done_ = true;
    state_ = state;
    status_ = status;
  }
  bool done() const { return done_; }
  QueryState state() const { return state_; }
  const Status& status() const { return status_; }
  size_t results() const { return results_; }

 private:
  bool done_ = false;
  QueryState state_ = QueryState::kQueued;
  Status status_;
  size_t results_ = 0;
};

// End-to-end through the serving layer: retry exhaustion becomes kFailed
// with the real error by default, kPartial with accurate handle coverage
// under SubmitOptions::allow_partial — and Drain() returns either way (an
// exhausted shard must never wedge a scheduler worker).
TEST(ShardRecovery, SchedulerDegradesOrFailsOnExhaustion) {
  Rng rng(0x5eed1);
  const Config cfg = MakeConfig(&rng, false, true);

  for (bool allow_partial : {false, true}) {
    ServiceOptions sopts;
    sopts.num_workers = 2;
    sopts.batch_budget = 64;
    QueryScheduler scheduler(sopts);

    ProgXeOptions faulty;
    faulty.faults = MustParse("shard.open:p=1,shard=0", 0);
    SubmitOptions submit;
    submit.shards.num_shards = 4;
    submit.shards.max_retries = 0;
    submit.shards.retry_backoff = std::chrono::milliseconds(0);
    submit.shards.allow_partial = allow_partial;

    PartialSink sink;
    auto handle = scheduler.Submit(cfg.query(), faulty, &sink, submit);
    ASSERT_TRUE(handle.ok());
    scheduler.Drain();
    ASSERT_TRUE(sink.done());

    const SchedulerStats stats = scheduler.stats();
    if (allow_partial) {
      EXPECT_EQ(handle->state(), QueryState::kPartial);
      EXPECT_EQ(sink.state(), QueryState::kPartial);
      EXPECT_TRUE(sink.status().ok());
      const ShardCoverage& coverage = handle->coverage();
      EXPECT_EQ(coverage.completed, 3);
      EXPECT_EQ(coverage.abandoned, 1);
      EXPECT_EQ(stats.partial, 1u);
      EXPECT_EQ(stats.shards_planned, 4u);
      EXPECT_EQ(stats.shards_completed, 3u);
      EXPECT_EQ(stats.shards_abandoned, 1u);
      EXPECT_EQ(stats.failed, 0u);
    } else {
      EXPECT_EQ(handle->state(), QueryState::kFailed);
      EXPECT_EQ(sink.state(), QueryState::kFailed);
      EXPECT_TRUE(sink.status().IsUnavailable());
      EXPECT_TRUE(handle->status().IsUnavailable());
      EXPECT_EQ(sink.results(), 0u);
      EXPECT_EQ(stats.failed, 1u);
      EXPECT_EQ(stats.partial, 0u);
    }
  }
}

// Recovered queries through the scheduler: transient faults are invisible
// in the outcome (kFinished, exact set) but counted in shard_retries.
TEST(ShardRecovery, SchedulerServedRetriesAreExactAndCounted) {
  Rng rng(0x5eed2);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  const IdSet reference = UnshardedReference(cfg, options);

  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.batch_budget = 64;
  QueryScheduler scheduler(sopts);

  struct CollectingSink : PartialSink {
    IdSet seq;
    void OnBatch(const std::vector<ResultTuple>& batch) override {
      PartialSink::OnBatch(batch);
      for (const ResultTuple& res : batch) seq.emplace_back(res.r_id, res.t_id);
    }
  };
  CollectingSink sink;
  ProgXeOptions faulty = options;
  faulty.faults = MustParse("shard.open:p=1,max=2", 11);
  SubmitOptions submit;
  submit.shards.num_shards = 4;
  submit.shards.max_retries = 8;
  submit.shards.retry_backoff = std::chrono::milliseconds(1);
  auto handle = scheduler.Submit(cfg.query(), faulty, &sink, submit);
  ASSERT_TRUE(handle.ok());
  scheduler.Drain();

  EXPECT_EQ(handle->state(), QueryState::kFinished);
  IdSet served = sink.seq;
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served, reference);
  EXPECT_TRUE(handle->coverage().complete());
  EXPECT_GT(handle->coverage().retries, 0u);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.shard_retries, handle->coverage().retries);
  EXPECT_EQ(stats.shards_planned, 4u);
  EXPECT_EQ(stats.shards_completed, 4u);
  EXPECT_EQ(stats.shards_abandoned, 0u);
}

// The backoff schedule is a pure function of (options, seed, shard,
// consecutive_failures): the same seed reproduces the same schedule bit for
// bit, every delay stays inside the documented ±25% jitter envelope
// around the capped exponential base, and distinct shards land on distinct
// offsets so simultaneously-sick shards desynchronize their re-opens.
TEST(ShardRecovery, JitteredBackoffIsDeterministicAndBounded) {
  ShardOptions opts;
  opts.retry_backoff = std::chrono::milliseconds(10);

  std::vector<std::chrono::nanoseconds> first_attempts;
  for (uint64_t seed : {uint64_t{0}, uint64_t{42}, uint64_t{0xfeed}}) {
    for (int shard = 0; shard < 4; ++shard) {
      for (int failures = 1; failures <= 10; ++failures) {
        const auto delay = JitteredRetryBackoff(opts, seed, shard, failures);
        // Deterministic: the same arguments always yield the same delay.
        EXPECT_EQ(delay, JitteredRetryBackoff(opts, seed, shard, failures));
        // Bounded: base * [1 - jitter, 1 + jitter], base doubling per
        // failure and capped at 64x the configured backoff.
        const auto base =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                opts.retry_backoff) *
            (1 << std::min(failures - 1, 6));
        EXPECT_GE(delay, base * 3 / 4)
            << "seed=" << seed << " shard=" << shard << " cf=" << failures;
        EXPECT_LE(delay, base * 5 / 4)
            << "seed=" << seed << " shard=" << shard << " cf=" << failures;
        if (seed == 0 && failures == 1) first_attempts.push_back(delay);
      }
    }
  }
  // Desynchronization: four shards' first re-opens must not collapse onto
  // one instant (at least two distinct offsets under a shared seed).
  std::sort(first_attempts.begin(), first_attempts.end());
  const auto distinct =
      std::unique(first_attempts.begin(), first_attempts.end()) -
      first_attempts.begin();
  EXPECT_GT(distinct, 1);

  // A zero base backoff stays zero regardless of jitter.
  opts.retry_backoff = std::chrono::milliseconds(0);
  EXPECT_EQ(JitteredRetryBackoff(opts, 7, 2, 3).count(), 0);
}

// --- Replay after a mid-run kill -------------------------------------------

// A shard killed after real progress re-opens from its cached prepared
// inputs and replays its slice from scratch: the re-delivered prefix is
// dropped by the dedup set and the delivered set stays bit-identical to
// the fault-free reference, whether the kill lands early or late.
TEST(ShardRecovery, MidRunKillReplaysExactly) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{11}, uint64_t{27}}) {
    Rng rng(0xc4ee + seed);
    const Config cfg = MakeConfig(&rng, false, seed % 2 == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    const IdSet reference = UnshardedReference(cfg, options);

    for (int kill_after : {1, 3}) {
      ProgXeOptions faulty = options;
      faulty.faults = MustParse("shard.next_batch:shard=0,skip=" +
                                    std::to_string(kill_after) + ",max=1",
                                seed);
      ShardOptions shard_options;
      shard_options.num_shards = 4;
      shard_options.max_retries = 4;
      shard_options.retry_backoff = std::chrono::milliseconds(0);

      auto stream = ShardedStream::Open(cfg.query(), faulty, shard_options);
      ASSERT_TRUE(stream.ok())
          << "seed=" << seed << " kill_after=" << kill_after;
      const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 192));
      EXPECT_EQ(delivered, reference)
          << "seed=" << seed << " kill_after=" << kill_after;
      EXPECT_TRUE((*stream)->last_status().ok());
      EXPECT_TRUE((*stream)->coverage().complete());
    }
  }
}

struct KilledRun {
  IdSet delivered;
  uint64_t retries = 0;
  std::vector<std::string> shard_stats;  // ProgXeStats::ToString per shard
  std::vector<uint64_t> shard_pairs;
};

KilledRun RunKilled(const Config& cfg, const ProgXeOptions& options,
                    const std::string& faults) {
  // A programmatic injector, even the never-firing "p=0" one of the clean
  // run, keeps an ambient fault spec out of both runs.
  ProgXeOptions run_options = options;
  run_options.faults = MustParse(faults, 0x5eed);
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.max_retries = 2;
  shard_options.retry_backoff = std::chrono::milliseconds(0);
  KilledRun run;
  auto stream = ShardedStream::Open(cfg.query(), run_options, shard_options);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  if (!stream.ok()) return run;
  run.delivered = SortedIds(DrainStream(stream->get(), 0, 64));
  EXPECT_TRUE((*stream)->last_status().ok());
  run.retries = (*stream)->coverage().retries;
  for (int i = 0; i < (*stream)->num_shards(); ++i) {
    const ProgXeStats stats = (*stream)->shard_stats(i);
    run.shard_stats.push_back(stats.ToString());
    run.shard_pairs.push_back(stats.join_pairs_generated);
  }
  return run;
}

// One deterministic kill: shard 1's fourth applied pump draws the fault.
// The other shards never notice (their counters match the fault-free run
// field for field), shard 1 replays in full, so its join pairs are the
// fault-free total plus the dead incarnation's three applied pumps —
// counted once, more than nothing and less than a whole run — and the same
// spec reproduces every counter.
TEST(ShardRecovery, DeterministicKillReplaysInFullAndCountsOnce) {
  Rng rng(0xc4f0);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  const std::string spec = "shard.next_batch:p=1,shard=1,skip=3,max=1";

  const KilledRun clean =
      RunKilled(cfg, options, "shard.next_batch:p=0");
  const KilledRun killed = RunKilled(cfg, options, spec);
  ASSERT_EQ(clean.shard_stats.size(), 4u);
  ASSERT_EQ(killed.shard_stats.size(), 4u);
  EXPECT_EQ(clean.retries, 0u);
  EXPECT_EQ(killed.retries, 1u);
  EXPECT_EQ(killed.delivered, clean.delivered);
  EXPECT_EQ(killed.delivered, UnshardedReference(cfg, options));
  for (int shard : {0, 2, 3}) {
    EXPECT_EQ(killed.shard_stats[static_cast<size_t>(shard)],
              clean.shard_stats[static_cast<size_t>(shard)])
        << "shard " << shard;
  }
  const uint64_t full = clean.shard_pairs[1];
  const uint64_t extra = killed.shard_pairs[1] - full;
  EXPECT_GT(killed.shard_pairs[1], full);
  EXPECT_GT(extra, 0u);
  EXPECT_LT(extra, full);

  const KilledRun again = RunKilled(cfg, options, spec);
  EXPECT_EQ(again.retries, killed.retries);
  EXPECT_EQ(again.delivered, killed.delivered);
  EXPECT_EQ(again.shard_stats, killed.shard_stats);
}

// The per-shard replay-dedup set is sized by delivered results, so it must
// be freed eagerly: as each shard drains healthy its set drops to zero
// instead of lingering until stream teardown.
TEST(ShardRecovery, DedupSetsFreeAsShardsFinishHealthy) {
  Rng rng(0xc4ef);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  const IdSet reference = UnshardedReference(cfg, options);

  ShardOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.max_retries = 2;  // enables the dedup sets
  shard_options.retry_backoff = std::chrono::milliseconds(0);
  auto stream = ShardedStream::Open(cfg.query(), options, shard_options);
  ASSERT_TRUE(stream.ok());

  size_t peak = 0;
  std::vector<ResultTuple> batch;
  IdSet delivered;
  while (!(*stream)->Finished()) {
    (*stream)->NextBatch(0, 256, &batch);
    peak = std::max(peak, (*stream)->dedup_entries());
    for (const ResultTuple& res : batch) {
      delivered.emplace_back(res.r_id, res.t_id);
    }
  }
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, reference);
  EXPECT_GT(peak, 0u) << "dedup sets never filled - vacuous test";
  EXPECT_EQ((*stream)->dedup_entries(), 0u)
      << "healthy-finished shards must free their dedup sets";
}

}  // namespace
}  // namespace progxe
