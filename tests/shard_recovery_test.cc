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
#include <set>
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
  EXPECT_GT(scheduler.stats().shard_retries, 0u);
  EXPECT_EQ(scheduler.stats().shards_abandoned, 0u);
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

// --- Checkpointed recovery -------------------------------------------------

// Session-level resume round trip: a session abandoned mid-drain exports a
// resume point at a region boundary; a session opened from it skips the
// finished regions and the union of pre-checkpoint and resumed deliveries
// covers the reference skyline. When a *processed* region was skipped the
// resumed incarnation provably re-joins fewer pairs than a from-scratch
// replay, and reports the savings.
TEST(CheckpointRecovery, SessionRoundTripCoversTheReference) {
  int resumed_with_savings = 0;
  for (uint64_t seed : {uint64_t{2}, uint64_t{9}, uint64_t{31}, uint64_t{40},
                        uint64_t{57}}) {
    Rng rng(0xc4ec + seed);
    const Config cfg = MakeConfig(&rng, seed % 2 == 1, seed % 3 == 1);
    ProgXeOptions options;
    options.seed = 0xfeed;

    auto reference_session = ProgXeSession::Open(cfg.query(), options);
    ASSERT_TRUE(reference_session.ok());
    const IdSet reference =
        SortedIds(DrainStream(reference_session->get(), 0, 0));
    const uint64_t full_pairs =
        (*reference_session)->stats().join_pairs_generated;

    auto first = ProgXeSession::Open(cfg.query(), options);
    ASSERT_TRUE(first.ok());
    std::vector<ResultTuple> batch;
    IdSet before;
    SessionCheckpoint checkpoint;
    bool have_checkpoint = false;
    // Pump in small slices, keeping the freshest exportable resume point;
    // stop part-way so the checkpoint is a genuine mid-run snapshot.
    for (int pumps = 0; pumps < 5 && !(*first)->Finished(); ++pumps) {
      (*first)->NextBatch(0, 512, &batch);
      for (const ResultTuple& res : batch) {
        before.emplace_back(res.r_id, res.t_id);
      }
      if ((*first)->ExportCheckpoint(&checkpoint)) have_checkpoint = true;
    }
    if (!have_checkpoint || (*first)->Finished()) continue;

    auto resumed = ProgXeSession::Open(cfg.query(), options, &checkpoint);
    ASSERT_TRUE(resumed.ok()) << "seed=" << seed;
    EXPECT_EQ((*resumed)->resumed(), !checkpoint.skip_regions.empty());
    EXPECT_EQ((*resumed)->resumed_regions_skipped(),
              static_cast<uint32_t>(checkpoint.skip_regions.size()));
    const IdSet after = SortedIds(DrainStream(resumed->get(), 0, 0));
    EXPECT_TRUE((*resumed)->last_status().ok());

    // Union covers the reference: every skyline member was either already
    // delivered before the checkpoint or is re-delivered by the resume. (A
    // standalone resumed session may emit a few extra dominated tuples —
    // per-point suppression state of skipped regions is not rebuilt; the
    // sharded merge filters those via its accepted frontier.)
    IdSet uni = before;
    uni.insert(uni.end(), after.begin(), after.end());
    std::sort(uni.begin(), uni.end());
    uni.erase(std::unique(uni.begin(), uni.end()), uni.end());
    EXPECT_TRUE(
        std::includes(uni.begin(), uni.end(), reference.begin(),
                      reference.end()))
        << "seed=" << seed;

    if ((*resumed)->replay_pairs_saved() > 0) {
      ++resumed_with_savings;
      EXPECT_LT((*resumed)->stats().join_pairs_generated, full_pairs)
          << "seed=" << seed;
    }
  }
  // The sweep must actually exercise a resume that skipped processed
  // regions, or the savings contract is untested.
  EXPECT_GT(resumed_with_savings, 0);
}

// A corrupt or stale checkpoint must be rejected as InvalidArgument — a
// full replay is always sound, resuming from garbage never is — and the
// rejection must not poison later clean opens.
TEST(CheckpointRecovery, CorruptCheckpointRejectedCleanOpenStillWorks) {
  Rng rng(0xc4ed);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;

  auto first = ProgXeSession::Open(cfg.query(), options);
  ASSERT_TRUE(first.ok());
  std::vector<ResultTuple> batch;
  SessionCheckpoint checkpoint;
  bool have_checkpoint = false;
  for (int pumps = 0; pumps < 12 && !(*first)->Finished(); ++pumps) {
    (*first)->NextBatch(0, 512, &batch);
    if ((*first)->ExportCheckpoint(&checkpoint) &&
        !checkpoint.skip_regions.empty()) {
      have_checkpoint = true;
      break;
    }
  }
  ASSERT_TRUE(have_checkpoint) << "workload never exported a resume point";

  auto expect_rejected = [&](const SessionCheckpoint& bad, const char* what) {
    auto opened = ProgXeSession::Open(cfg.query(), options, &bad);
    ASSERT_FALSE(opened.ok()) << what;
    EXPECT_TRUE(opened.status().IsInvalidArgument()) << what;
  };
  SessionCheckpoint bad = checkpoint;
  bad.k += 1;
  expect_rejected(bad, "wrong k");
  bad = checkpoint;
  bad.region_count += 7;
  expect_rejected(bad, "wrong region_count");
  bad = checkpoint;
  bad.skip_regions[0] = static_cast<int32_t>(bad.region_count) + 10;
  expect_rejected(bad, "skip id out of range");
  if (checkpoint.skip_regions.size() >= 2) {
    bad = checkpoint;
    std::swap(bad.skip_regions[0], bad.skip_regions[1]);
    expect_rejected(bad, "skip ids not increasing");
  }

  // The rejections above must not leave residue: a clean open of the same
  // query still delivers the exact skyline.
  const IdSet reference = UnshardedReference(cfg, options);
  auto clean = ProgXeSession::Open(cfg.query(), options);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(SortedIds(DrainStream(clean->get(), 0, 0)), reference);
}

// The tentpole acceptance leg: a shard killed mid-run recovers through the
// checkpointed retry, the delivered set stays bit-identical to the
// fault-free reference, and the checkpointed replay re-joins strictly
// fewer pairs than the same kill replayed from scratch
// (checkpoint_retry=false restores the old full-replay behavior).
TEST(CheckpointRecovery, CheckpointedRetryReplaysLessAndStaysExact) {
  int exercised = 0;
  for (uint64_t seed : {uint64_t{3}, uint64_t{11}, uint64_t{27}}) {
    Rng rng(0xc4ee + seed);
    const Config cfg = MakeConfig(&rng, false, seed % 2 == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    const IdSet reference = UnshardedReference(cfg, options);

    for (int kill_after : {1, 3}) {
      uint64_t pairs_with = 0;
      uint64_t pairs_without = 0;
      uint64_t saved = 0;
      uint64_t retries_with = 0;
      uint64_t retries_without = 0;
      for (const bool checkpoint_retry : {true, false}) {
        ProgXeOptions faulty = options;
        faulty.faults = MustParse("shard.next_batch:shard=0,skip=" +
                                      std::to_string(kill_after) + ",max=1",
                                  seed);
        ShardOptions shard_options;
        shard_options.num_shards = 4;
        shard_options.max_retries = 4;
        shard_options.retry_backoff = std::chrono::milliseconds(0);
        shard_options.checkpoint_retry = checkpoint_retry;

        auto stream =
            ShardedStream::Open(cfg.query(), faulty, shard_options);
        ASSERT_TRUE(stream.ok())
            << "seed=" << seed << " kill_after=" << kill_after;
        const IdSet delivered =
            SortedIds(DrainStream(stream->get(), 0, 192));
        EXPECT_EQ(delivered, reference)
            << "seed=" << seed << " kill_after=" << kill_after
            << " checkpoint_retry=" << checkpoint_retry;
        EXPECT_TRUE((*stream)->last_status().ok());
        const ShardCoverage coverage = (*stream)->coverage();
        EXPECT_TRUE(coverage.complete());
        if (checkpoint_retry) {
          pairs_with = (*stream)->stats().join_pairs_generated;
          saved = coverage.replay_pairs_saved;
          retries_with = coverage.retries;
        } else {
          pairs_without = (*stream)->stats().join_pairs_generated;
          retries_without = coverage.retries;
          EXPECT_EQ(coverage.replay_pairs_saved, 0u);
        }
      }
      // The two modes run the identical kill schedule and are byte-for-byte
      // identical up to the kill, so the fault fires in both or neither
      // (shard 0 may legitimately finish before call kill_after+1 for some
      // seeds — those iterations only exercise the exactness check above).
      EXPECT_EQ(retries_with > 0, retries_without > 0)
          << "seed=" << seed << " kill_after=" << kill_after;
      if (saved > 0) {
        ++exercised;
        // The resume skipped processed regions: the total join work —
        // including the dead incarnation's — must undercut the
        // from-scratch replay of the identical kill schedule.
        EXPECT_LT(pairs_with, pairs_without)
            << "seed=" << seed << " kill_after=" << kill_after;
      }
    }
  }
  // At least one kill must land after a resumable boundary with processed
  // regions behind it, or the savings path was never exercised.
  EXPECT_GT(exercised, 0);
}

// The per-shard replay-dedup set is sized by delivered results, so it must
// be freed eagerly: as each shard drains healthy its set drops to zero
// instead of lingering until stream teardown.
TEST(CheckpointRecovery, DedupSetsFreeAsShardsFinishHealthy) {
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

// --- Incremental checkpoint export: differential check --------------------

// Brute-force skip-safety reference, straight from the definition in
// progxe/checkpoint.h: walk every removed region, and for a processed one
// every cell of its coverage box. `restored_pairs` is the total of the
// checkpoint the loop was resumed from (0 for a fresh loop).
//
// Verdicts are sticky within a session: `*safe_before` holds the regions an
// earlier export found safe, and they stay safe. A processed region's own
// tuples are fixed, and once each is delivered or dead it stays so — but a
// still-active region may later populate a cell of its box, so the box
// condition alone is not permanent.
struct ReferenceExport {
  std::vector<int32_t> skip_regions;
  uint64_t replay_pairs_saved = 0;
  int sticky = 0;  // regions listed only because an earlier export was safe
};

ReferenceExport FullBoxReference(const RegionLoop& loop,
                                 uint64_t restored_pairs,
                                 std::set<int32_t>* safe_before) {
  ReferenceExport ref;
  ref.replay_pairs_saved = restored_pairs;
  const OutputTable& table = loop.table();
  for (const Region& region : loop.regions()) {
    if (!loop.removed(region.id)) continue;
    bool safe = region.discarded && !region.processed;
    if (region.processed) {
      safe = true;
      table.geometry().ForEachCellInBox(
          region.lo_cell.data(), region.hi_cell.data(), [&](CellIndex c) {
            if (table.populated(c) && !table.emitted(c) && !table.marked(c)) {
              safe = false;
            }
          });
    }
    if (!safe && safe_before->count(region.id) != 0) {
      safe = true;
      ++ref.sticky;
    }
    if (!safe) continue;
    safe_before->insert(region.id);
    ref.skip_regions.push_back(region.id);
    if (region.processed) {
      ref.replay_pairs_saved += loop.region_join_pairs(region.id);
    }
  }
  return ref;
}

struct DifferentialTally {
  int exports = 0;             // exports compared against the reference
  int with_unsafe = 0;         // ... that left a processed region unsafe
  int with_processed_skip = 0; // ... that skipped a processed region
  int with_sticky = 0;         // ... that kept a region safe by stickiness
};

// Drains `session` with `budget`-pair pumps, comparing every successful
// export with the full-box reference. Returns the last exported checkpoint
// taken before `stop_after` pumps (all pumps when 0) via `*mid`.
void DrainComparingExports(ProgXeSession* session, size_t budget,
                           int stop_after, const std::string& label,
                           DifferentialTally* tally, SessionCheckpoint* mid) {
  const uint64_t restored_pairs = session->replay_pairs_saved();
  std::set<int32_t> safe_before;
  std::vector<ResultTuple> batch;
  SessionCheckpoint checkpoint;
  int pumps = 0;
  while (!session->Finished()) {
    session->NextBatch(0, budget, &batch);
    if (session->ExportCheckpoint(&checkpoint)) {
      const RegionLoop* loop = session->region_loop();
      ASSERT_NE(loop, nullptr) << label;
      const ReferenceExport ref =
          FullBoxReference(*loop, restored_pairs, &safe_before);
      ASSERT_EQ(checkpoint.skip_regions, ref.skip_regions)
          << label << " pump=" << pumps;
      ASSERT_EQ(checkpoint.replay_pairs_saved, ref.replay_pairs_saved)
          << label << " pump=" << pumps;
      ++tally->exports;
      size_t processed_skipped = 0;
      for (int32_t id : ref.skip_regions) {
        processed_skipped += loop->regions()[static_cast<size_t>(id)].processed;
      }
      size_t processed_removed = 0;
      for (const Region& region : loop->regions()) {
        processed_removed += region.processed;
      }
      tally->with_processed_skip += processed_skipped > 0;
      tally->with_unsafe += processed_removed > processed_skipped;
      tally->with_sticky += ref.sticky > 0;
      if (mid != nullptr && (stop_after == 0 || pumps < stop_after)) {
        *mid = checkpoint;
      }
    }
    ++pumps;
  }
}

// The incremental export (removal log + cached blocking cell + unflushed-cell
// search) must produce exactly the sticky full-box walk's verdicts at every
// export: fresh and resumed sessions, whole-region and sliced pumps, tied
// and high-sigma configs across the generator's distributions.
TEST(CheckpointRecovery, IncrementalExportMatchesFullBoxReference) {
  DifferentialTally tally;
  int resumed_runs = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(0xd1ff + seed);
    const Config cfg = MakeConfig(&rng, seed % 4 == 1, seed % 3 == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    for (size_t budget : {size_t{0}, size_t{16}, size_t{256}}) {
      const std::string label = "seed=" + std::to_string(seed) +
                                " budget=" + std::to_string(budget);
      auto fresh = ProgXeSession::Open(cfg.query(), options);
      ASSERT_TRUE(fresh.ok()) << label;
      SessionCheckpoint mid;
      DrainComparingExports(fresh->get(), budget, 6, label, &tally, &mid);
      if (HasFatalFailure()) return;
      if (mid.skip_regions.empty()) continue;

      // Resume from the mid-run checkpoint; the resumed loop's exports
      // carry the restored total forward.
      auto resumed = ProgXeSession::Open(cfg.query(), options, &mid);
      ASSERT_TRUE(resumed.ok()) << label;
      ASSERT_TRUE((*resumed)->resumed()) << label;
      EXPECT_EQ((*resumed)->replay_pairs_saved(), mid.replay_pairs_saved);
      DrainComparingExports(resumed->get(), budget, 0, label + " resumed",
                            &tally, nullptr);
      if (HasFatalFailure()) return;
      ++resumed_runs;
    }
  }
  // Non-vacuity: the sweep compared many exports, skipped processed
  // regions, held processed regions back on a blocking cell, kept a verdict
  // whose box a later region re-populated, and resumed.
  EXPECT_GT(tally.exports, 100);
  EXPECT_GT(tally.with_processed_skip, 0);
  EXPECT_GT(tally.with_unsafe, 0);
  EXPECT_GT(tally.with_sticky, 0);
  EXPECT_GT(resumed_runs, 0);
}

// Kill-and-resume: a session killed mid-run by an injected fault resumes
// from its last exported checkpoint, and the resume's replay_pairs_saved is
// exactly the join pairs the skipped regions generated in an uninterrupted
// reference run — the counter reports real pairs, not |Pa| x |Pb|.
TEST(CheckpointRecovery, ReplayPairsSavedEqualsSkippedRegionsPairs) {
  int exercised = 0;
  for (uint64_t seed : {uint64_t{2}, uint64_t{5}, uint64_t{13}}) {
    Rng rng(0xd200 + seed);
    const Config cfg = MakeConfig(&rng, false, seed % 2 == 1);
    ProgXeOptions options;
    options.seed = 0xfeed;

    auto reference = ProgXeSession::Open(cfg.query(), options);
    ASSERT_TRUE(reference.ok());
    (void)DrainStream(reference->get(), 0, 0);
    const RegionLoop* reference_loop = (*reference)->region_loop();
    ASSERT_NE(reference_loop, nullptr);

    for (int kill_after : {4, 10}) {
      ProgXeOptions faulty = options;
      faulty.faults = MustParse(std::string(fault_sites::kSessionNextBatch) +
                                    ":skip=" + std::to_string(kill_after) +
                                    ",max=1",
                                seed);
      auto doomed = ProgXeSession::Open(cfg.query(), faulty);
      ASSERT_TRUE(doomed.ok());
      std::vector<ResultTuple> batch;
      SessionCheckpoint checkpoint;
      bool have_checkpoint = false;
      while (!(*doomed)->Finished()) {
        (*doomed)->NextBatch(0, 256, &batch);
        if ((*doomed)->ExportCheckpoint(&checkpoint)) have_checkpoint = true;
      }
      if (!have_checkpoint || (*doomed)->last_status().ok()) continue;

      uint64_t expected = 0;
      for (int32_t id : checkpoint.skip_regions) {
        expected += reference_loop->region_join_pairs(id);
      }
      EXPECT_EQ(checkpoint.replay_pairs_saved, expected)
          << "seed=" << seed << " kill_after=" << kill_after;
      auto resumed = ProgXeSession::Open(cfg.query(), options, &checkpoint);
      ASSERT_TRUE(resumed.ok());
      EXPECT_EQ((*resumed)->replay_pairs_saved(),
                (*resumed)->resumed() ? expected : 0u)
          << "seed=" << seed << " kill_after=" << kill_after;
      (void)DrainStream(resumed->get(), 0, 0);
      EXPECT_TRUE((*resumed)->last_status().ok());
      if (expected > 0) ++exercised;
    }
  }
  EXPECT_GT(exercised, 0);
}

}  // namespace
}  // namespace progxe
