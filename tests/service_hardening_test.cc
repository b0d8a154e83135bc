// Serving-layer hardening tests: per-query deadlines (running and
// waiting-room expiry, exactly one OnDone), the SchedulerStats snapshot,
// scheduler-served sharded queries, and the enum name round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "equivalence_common.h"
#include "net/net_stats.h"
#include "progxe/session.h"
#include "service/scheduler.h"

namespace progxe {
namespace {

using test::Config;
using test::MakeConfig;

using IdSet = std::vector<std::pair<RowId, RowId>>;

/// Minimal recording sink: delivered pairs, lifecycle, exactly-one OnDone.
class RecordingSink : public QuerySink {
 public:
  void OnBatch(const std::vector<ResultTuple>& batch) override {
    std::lock_guard<std::mutex> lock(mtx_);
    for (const ResultTuple& res : batch) seq_.emplace_back(res.r_id, res.t_id);
  }
  void OnDone(QueryState state, const Status& status,
              const ProgXeStats& stats) override {
    std::lock_guard<std::mutex> lock(mtx_);
    EXPECT_FALSE(done_) << "OnDone must fire exactly once";
    done_ = true;
    final_state_ = state;
    final_status_ = status;
    stats_ = stats;
  }
  bool done() const { return done_; }
  const IdSet& seq() const { return seq_; }
  QueryState final_state() const { return final_state_; }
  const Status& final_status() const { return final_status_; }
  const ProgXeStats& stats() const { return stats_; }

 private:
  std::mutex mtx_;
  IdSet seq_;
  bool done_ = false;
  QueryState final_state_ = QueryState::kQueued;
  Status final_status_;
  ProgXeStats stats_;
};

IdSet SoloReference(const Config& cfg, const ProgXeOptions& options,
                    ProgXeStats* stats) {
  IdSet seq;
  auto session = ProgXeSession::Open(cfg.query(), options);
  EXPECT_TRUE(session.ok());
  std::vector<ResultTuple> batch;
  while ((*session)->NextBatch(0, &batch) > 0) {
    for (const ResultTuple& res : batch) seq.emplace_back(res.r_id, res.t_id);
  }
  *stats = (*session)->stats();
  return seq;
}

// A running query whose deadline passes mid-stream must terminate with
// kDeadlineExceeded at a slice boundary: one OnDone, a strict prefix of the
// solo stream, handle state matching. The sink stalls past the deadline to
// make expiry deterministic.
TEST(Deadline, RunningQueryExpiresAtSliceBoundary) {
  Rng rng(0xdead11);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeStats solo_stats;
  const IdSet solo = SoloReference(cfg, ProgXeOptions(), &solo_stats);
  // The query must need more than one slice, or it could finish before the
  // stalled deadline check.
  ASSERT_GT(solo_stats.join_pairs_generated, 64u);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 64;
  QueryScheduler scheduler(sopts);

  struct StallingSink : RecordingSink {
    void OnBatch(const std::vector<ResultTuple>& batch) override {
      RecordingSink::OnBatch(batch);
      // Outlives the 100ms deadline; the next slice check must expire.
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  };
  StallingSink sink;
  SubmitOptions submit;
  submit.deadline = std::chrono::milliseconds(100);
  auto handle = scheduler.Submit(cfg.query(), ProgXeOptions(), &sink, submit);
  ASSERT_TRUE(handle.ok());
  handle->Wait();

  EXPECT_EQ(handle->state(), QueryState::kDeadlineExceeded);
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.final_state(), QueryState::kDeadlineExceeded);
  EXPECT_TRUE(sink.final_status().ok());
  EXPECT_LT(sink.seq().size(), solo.size())
      << "expired query delivered everything";
  for (size_t i = 0; i < sink.seq().size(); ++i) {
    EXPECT_EQ(sink.seq()[i], solo[i]) << "not a prefix at " << i;
  }

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.finished, 0u);
}

// A queued query whose deadline passes in the waiting room must expire
// without ever opening a stream — noticed by the timed worker wait, with no
// other scheduler activity to piggyback on.
TEST(Deadline, WaitingRoomExpiryNeedsNoActivity) {
  Rng rng(0xdead22);
  const Config cfg = MakeConfig(&rng, false, false);

  ServiceOptions sopts;
  sopts.num_workers = 2;  // one gets stuck in the holder, one sleeps idle
  sopts.max_concurrent = 1;
  QueryScheduler scheduler(sopts);

  struct BlockUntilReleased : QuerySink {
    std::mutex mtx;
    std::condition_variable cv;
    bool release = false;
    void OnBatch(const std::vector<ResultTuple>&) override {
      std::unique_lock<std::mutex> lock(mtx);
      cv.wait(lock, [&] { return release; });
    }
    void OnDone(QueryState, const Status&, const ProgXeStats&) override {}
  };
  BlockUntilReleased holder;
  RecordingSink expired;
  auto h1 = scheduler.Submit(cfg.query(), ProgXeOptions(), &holder);
  ASSERT_TRUE(h1.ok());
  SubmitOptions submit;
  submit.deadline = std::chrono::milliseconds(50);
  auto h2 = scheduler.Submit(cfg.query(), ProgXeOptions(), &expired, submit);
  ASSERT_TRUE(h2.ok());

  // The only admission slot stays blocked; h2 must still expire.
  h2->Wait();
  EXPECT_EQ(h2->state(), QueryState::kDeadlineExceeded);
  EXPECT_TRUE(expired.done());
  EXPECT_TRUE(expired.seq().empty());
  EXPECT_EQ(expired.stats().results_emitted, 0u);

  {
    std::lock_guard<std::mutex> lock(holder.mtx);
    holder.release = true;
    holder.cv.notify_all();
  }
  scheduler.Drain();
}

// ServiceOptions::default_deadline applies to submissions that carry no
// per-query override.
TEST(Deadline, DefaultDeadlineInherited) {
  Rng rng(0xdead33);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeStats solo_stats;
  SoloReference(cfg, ProgXeOptions(), &solo_stats);
  ASSERT_GT(solo_stats.join_pairs_generated, 64u);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 64;
  sopts.default_deadline = std::chrono::milliseconds(100);
  QueryScheduler scheduler(sopts);

  struct StallingSink : RecordingSink {
    void OnBatch(const std::vector<ResultTuple>& batch) override {
      RecordingSink::OnBatch(batch);
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  };
  StallingSink sink;
  auto handle = scheduler.Submit(cfg.query(), ProgXeOptions(), &sink);
  ASSERT_TRUE(handle.ok());
  handle->Wait();
  EXPECT_EQ(handle->state(), QueryState::kDeadlineExceeded);
}

// SchedulerStats: gauges drain to zero, outcome counters and served-work
// counters add up against ground truth.
TEST(SchedulerStatsTest, SnapshotMatchesServedWork) {
  Rng rng(0x57a75);
  constexpr int kQueries = 3;
  std::vector<Config> configs;
  for (int i = 0; i < kQueries; ++i) {
    configs.push_back(MakeConfig(&rng, false, false));
  }

  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.batch_budget = 128;
  QueryScheduler scheduler(sopts);
  EXPECT_EQ(scheduler.stats().submitted, 0u);

  std::vector<RecordingSink> sinks(kQueries);
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kQueries; ++i) {
    auto handle =
        scheduler.Submit(configs[static_cast<size_t>(i)].query(),
                         ProgXeOptions(), &sinks[static_cast<size_t>(i)]);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  scheduler.Drain();

  uint64_t expected_results = 0;
  uint64_t expected_pairs = 0;
  for (int i = 0; i < kQueries; ++i) {
    const RecordingSink& sink = sinks[static_cast<size_t>(i)];
    EXPECT_EQ(sink.final_state(), QueryState::kFinished);
    expected_results += sink.seq().size();
    expected_pairs += sink.stats().join_pairs_generated;
  }

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.finished, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.results, expected_results);
  EXPECT_EQ(stats.sliced_pairs, expected_pairs);
  EXPECT_GE(stats.slices, static_cast<uint64_t>(kQueries));
  EXPECT_GT(stats.batches, 0u);
  EXPECT_FALSE(stats.ToString().empty());

  // Slice-latency histogram: exactly one bucket entry per served slice,
  // and the quantile readout is a real bucket edge covering that mass.
  uint64_t bucketed = 0;
  for (uint64_t c : stats.slice_latency_us_log2) bucketed += c;
  EXPECT_EQ(bucketed, stats.slices);
  EXPECT_GT(stats.SliceLatencyQuantileUs(0.5), 0u);
  EXPECT_LE(stats.SliceLatencyQuantileUs(0.5),
            stats.SliceLatencyQuantileUs(1.0));
  // The histogram is exported through the human-readable snapshot too
  // (the server's bare `stats` command prints exactly this string).
  EXPECT_NE(stats.ToString().find("slice_us_log2"), std::string::npos);
}

TEST(SchedulerStatsTest, SliceLatencyBucketEdges) {
  EXPECT_EQ(Log2UsBucket(0), 0u);
  EXPECT_EQ(Log2UsBucket(1), 1u);
  EXPECT_EQ(Log2UsBucket(2), 2u);
  EXPECT_EQ(Log2UsBucket(3), 2u);
  EXPECT_EQ(Log2UsBucket(4), 3u);
  EXPECT_EQ(Log2UsBucket(1023), 10u);
  EXPECT_EQ(Log2UsBucket(1024), 11u);
  // Overflow clamps into the last bucket instead of indexing past it.
  EXPECT_EQ(Log2UsBucket(UINT64_MAX),
            kLog2UsBuckets - 1);

  SchedulerStats stats;
  EXPECT_EQ(stats.SliceLatencyQuantileUs(0.5), 0u);  // nothing served yet
  stats.slice_latency_us_log2[3] = 9;
  stats.slice_latency_us_log2[7] = 1;
  EXPECT_EQ(stats.SliceLatencyQuantileUs(0.5), uint64_t{1} << 3);
  EXPECT_EQ(stats.SliceLatencyQuantileUs(0.99), uint64_t{1} << 7);
}

// Slices and RTTs share one nearest-rank rule: the smallest bucket whose
// cumulative count reaches max(1, ceil(q * n)).
TEST(SchedulerStatsTest, SliceAndRttQuantilesShareNearestRank) {
  SchedulerStats sched;
  NetStatsSnapshot net;
  EXPECT_EQ(sched.SliceLatencyQuantileUs(0.0), 0u);
  EXPECT_EQ(net.RttQuantileUs(0.0), 0u);
  // 9 entries in [1, 2) us and 1 in [512, 1024) us.
  for (Log2UsHistogram* h : {&sched.slice_latency_us_log2, &net.rtt_us_log2}) {
    (*h)[Log2UsBucket(1)] = 9;
    (*h)[Log2UsBucket(600)] = 1;
  }
  for (const auto& [q, edge] : {std::pair{0.0, uint64_t{2}},
                                std::pair{0.5, uint64_t{2}},
                                std::pair{0.9, uint64_t{2}},
                                std::pair{0.91, uint64_t{1024}},
                                std::pair{0.99, uint64_t{1024}},
                                std::pair{1.0, uint64_t{1024}}}) {
    EXPECT_EQ(sched.SliceLatencyQuantileUs(q), edge) << q;
    EXPECT_EQ(net.RttQuantileUs(q), edge) << q;
  }
}

// A sharded query behind one QueryHandle: the scheduler-served stream must
// deliver exactly the unsharded result set (as a set — the merge order is
// scheduling-dependent) with additive counters, through the same Submit
// path as everything else.
TEST(ShardedServing, SchedulerServesShardedQueryAsOneHandle) {
  Rng rng(0x51a8d);
  const Config cfg = MakeConfig(&rng, true, true);
  ProgXeStats solo_stats;
  IdSet reference = SoloReference(cfg, ProgXeOptions(), &solo_stats);
  std::sort(reference.begin(), reference.end());

  for (int num_shards : {2, 4}) {
    ServiceOptions sopts;
    sopts.num_workers = 2;
    sopts.batch_budget = 64;
    QueryScheduler scheduler(sopts);
    RecordingSink sink;
    SubmitOptions submit;
    submit.shards.num_shards = num_shards;
    auto handle =
        scheduler.Submit(cfg.query(), ProgXeOptions(), &sink, submit);
    ASSERT_TRUE(handle.ok());
    handle->Wait();
    EXPECT_EQ(handle->state(), QueryState::kFinished);

    IdSet served = sink.seq();
    std::sort(served.begin(), served.end());
    EXPECT_EQ(served, reference) << "K=" << num_shards;
    // The aggregate counters are summed per-shard *engine* emissions: every
    // global result was emitted by its shard's local skyline, so the sum is
    // bounded below by the merged count (local skylines may hold more).
    EXPECT_GE(sink.stats().results_emitted, reference.size());
    EXPECT_GT(sink.stats().join_pairs_generated, 0u);
  }
}

// A sharded query that stops at the result cap finishes with *complete*
// coverage: every shard that reached the cap delivered everything it was
// asked for, so `stat`/progress must not report it as a partial answer.
// Regression guard for coverage() treating cap-finished shards as
// incomplete, and for progress snapshots going stale after the terminal
// transition.
TEST(ShardedServing, CapReachedQueryReportsCompleteCoverageAndProgress) {
  Rng rng(0x0c0ffee);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.max_results = 25;

  ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.batch_budget = 64;
  QueryScheduler scheduler(sopts);
  RecordingSink sink;
  SubmitOptions submit;
  submit.shards.num_shards = 2;
  auto handle = scheduler.Submit(cfg.query(), options, &sink, submit);
  ASSERT_TRUE(handle.ok());
  handle->Wait();
  ASSERT_EQ(handle->state(), QueryState::kFinished);

  const ShardCoverage& cov = handle->coverage();
  EXPECT_EQ(cov.shards, 2);
  EXPECT_EQ(cov.completed, cov.shards)
      << "cap-finished shards must count as covered: " << cov.ToString();
  EXPECT_TRUE(cov.complete());
  EXPECT_TRUE(cov.abandoned_shards.empty());

  // The terminal progress snapshot must be frozen and self-consistent.
  const QueryProgress progress = handle->progress();
  EXPECT_EQ(progress.state, QueryState::kFinished);
  EXPECT_STREQ(progress.phase, "finished");
  EXPECT_EQ(progress.results_delivered, sink.seq().size());
  EXPECT_GT(progress.results_delivered, 0u);
  EXPECT_LE(progress.results_delivered, options.max_results);
  EXPECT_GT(progress.pairs_processed, 0u);
  EXPECT_GE(progress.ttfr_seconds, 0.0) << "TTFR unset on a delivering query";
  EXPECT_EQ(progress.shards, 2u);
  EXPECT_EQ(progress.shards_completed, 2u);
  EXPECT_EQ(progress.shards_abandoned, 0u);
  EXPECT_NE(progress.ToString().find("finished"), std::string::npos);
}

// Unsliced serving (batch_budget = 0) of a sharded query: each slice leaves
// up to two pumps per shard running ahead when it returns. A cancel or an
// expired deadline seen at the next slice boundary closes the stream,
// which drops the queued pumps and waits only for the one running per
// shard — so the query still ends promptly, with exactly one OnDone and a
// delivered set that is part of the skyline. The sink holds the worker in
// the first delivery until the stop is in place, so the stop always lands
// mid-stream.
TEST(ShardedServing, UnslicedShardedQueryStopsWithPumpsInFlight) {
  const Config cfg = test::MakeLargeConfig(0x5eed5, 1500);
  ProgXeStats solo_stats;
  IdSet reference = SoloReference(cfg, ProgXeOptions(), &solo_stats);
  std::sort(reference.begin(), reference.end());
  using Clock = std::chrono::steady_clock;
  constexpr auto kDeadline = std::chrono::milliseconds(300);

  struct StopInFirstBatch : QuerySink {
    RecordingSink inner;
    std::mutex mu;
    std::condition_variable cv;
    bool first = true;
    bool delivered = false;
    bool stopped = false;
    Clock::time_point release_at{};
    void OnBatch(const std::vector<ResultTuple>& batch) override {
      inner.OnBatch(batch);
      std::unique_lock<std::mutex> lock(mu);
      if (!first) return;
      first = false;
      delivered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return stopped; });
      std::this_thread::sleep_until(release_at);
    }
    void OnDone(QueryState state, const Status& status,
                const ProgXeStats& stats) override {
      inner.OnDone(state, status, stats);
    }
  };

  for (bool cancel : {true, false}) {
    ServiceOptions sopts;
    sopts.num_workers = 1;
    sopts.batch_budget = 0;
    QueryScheduler scheduler(sopts);
    StopInFirstBatch sink;
    SubmitOptions submit;
    submit.shards.num_shards = 4;
    if (!cancel) submit.deadline = kDeadline;
    const Clock::time_point submitted = Clock::now();
    auto handle = scheduler.Submit(cfg.query(), ProgXeOptions(), &sink, submit);
    ASSERT_TRUE(handle.ok());
    {
      std::unique_lock<std::mutex> lock(sink.mu);
      sink.cv.wait(lock, [&sink] { return sink.delivered; });
      // A deadline stop holds the slice until the deadline has passed.
      if (cancel) {
        handle->Cancel();
      } else {
        sink.release_at = submitted + kDeadline + std::chrono::milliseconds(20);
      }
      sink.stopped = true;
      sink.cv.notify_all();
    }
    const Clock::time_point stop_at =
        cancel ? Clock::now() : submitted + kDeadline;
    handle->Wait();
    const double stop_to_done_s =
        std::chrono::duration<double>(Clock::now() - stop_at).count();
    const QueryState expected =
        cancel ? QueryState::kCancelled : QueryState::kDeadlineExceeded;
    EXPECT_EQ(handle->state(), expected);
    EXPECT_TRUE(sink.inner.done());
    EXPECT_EQ(sink.inner.final_state(), expected);
    EXPECT_LT(stop_to_done_s, 5.0) << "stop waited on more than the running pumps";
    IdSet served = sink.inner.seq();
    std::sort(served.begin(), served.end());
    EXPECT_FALSE(served.empty());
    EXPECT_LT(served.size(), reference.size())
        << "the stop landed mid-stream, yet everything was delivered";
    EXPECT_TRUE(std::includes(reference.begin(), reference.end(),
                              served.begin(), served.end()));
    scheduler.Drain();
  }
}

TEST(Names, QueryStateRoundTrips) {
  for (QueryState state :
       {QueryState::kQueued, QueryState::kRunning, QueryState::kFinished,
        QueryState::kCancelled, QueryState::kFailed,
        QueryState::kDeadlineExceeded, QueryState::kPartial}) {
    QueryState parsed;
    ASSERT_TRUE(QueryStateFromName(QueryStateName(state), &parsed))
        << QueryStateName(state);
    EXPECT_EQ(parsed, state);
  }
  QueryState parsed;
  EXPECT_FALSE(QueryStateFromName("exploded", &parsed));
  EXPECT_TRUE(IsTerminal(QueryState::kDeadlineExceeded));
  EXPECT_TRUE(IsTerminal(QueryState::kPartial));
}

/// A query whose shards fail every pump and retry with a long backoff: it
/// yields empty slices (runnable == 0 inside the budget window) without
/// ever finishing on its own — the scaffold for racing lifecycle events
/// against an in-flight retry.
SubmitOptions StuckRetrySubmit() {
  SubmitOptions submit;
  submit.shards.num_shards = 2;
  submit.shards.max_retries = 1000;
  submit.shards.retry_backoff = std::chrono::seconds(10);
  return submit;
}

ProgXeOptions AlwaysFaulting() {
  ProgXeOptions options;
  auto injector = FaultInjector::Parse("shard.next_batch:p=1", 0);
  EXPECT_TRUE(injector.ok());
  options.faults = injector.MoveValue();
  return options;
}

// Scheduler destruction while a query sits in retry backoff: the destructor
// must cancel it promptly (not wait out the 10s backoff window) and fire
// exactly one OnDone.
TEST(FaultLifecycle, DestructionMidRetryCancelsPromptly) {
  Rng rng(0xfa271);
  const Config cfg = MakeConfig(&rng, false, false);
  RecordingSink sink;
  const auto start = std::chrono::steady_clock::now();
  {
    ServiceOptions sopts;
    sopts.num_workers = 1;
    sopts.batch_budget = 64;  // budgeted slices: backoff becomes a yield
    QueryScheduler scheduler(sopts);
    auto handle =
        scheduler.Submit(cfg.query(), AlwaysFaulting(), &sink,
                         StuckRetrySubmit());
    ASSERT_TRUE(handle.ok());
    // Give the worker time to take the first (faulting) slice.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.final_state(), QueryState::kCancelled);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5))
      << "teardown waited out the retry backoff";
}

// Cancel racing an in-flight retry: the cancel must win at the next slice
// boundary — one OnDone, state kCancelled, Drain returns.
TEST(FaultLifecycle, CancelRacesRetryWithoutWedging) {
  Rng rng(0xfa272);
  const Config cfg = MakeConfig(&rng, false, false);
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 64;
  QueryScheduler scheduler(sopts);
  RecordingSink sink;
  auto handle = scheduler.Submit(cfg.query(), AlwaysFaulting(), &sink,
                                 StuckRetrySubmit());
  ASSERT_TRUE(handle.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  handle->Cancel();
  handle->Wait();
  EXPECT_EQ(handle->state(), QueryState::kCancelled);
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.final_state(), QueryState::kCancelled);
  scheduler.Drain();
}

// A deadline expiring during retry backoff: the empty yield slices keep the
// deadline check running, so the query expires instead of sleeping through
// its own deadline inside the stream.
TEST(FaultLifecycle, DeadlineExpiresDuringBackoff) {
  Rng rng(0xfa273);
  const Config cfg = MakeConfig(&rng, false, false);
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 64;
  QueryScheduler scheduler(sopts);
  RecordingSink sink;
  SubmitOptions submit = StuckRetrySubmit();
  submit.deadline = std::chrono::milliseconds(50);
  auto handle =
      scheduler.Submit(cfg.query(), AlwaysFaulting(), &sink, submit);
  ASSERT_TRUE(handle.ok());
  handle->Wait();
  EXPECT_EQ(handle->state(), QueryState::kDeadlineExceeded);
  EXPECT_TRUE(sink.done());
  EXPECT_EQ(sink.final_state(), QueryState::kDeadlineExceeded);
}

}  // namespace
}  // namespace progxe
