// QueryScheduler tests: every query served through the multi-query
// scheduler must deliver exactly the batches (concatenated, in order) and
// the final ProgXeStats of draining its session alone — for any mix of
// budgets, worker counts and weights — plus admission control,
// cooperative cancellation and fairness checks.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

#include "equivalence_common.h"
#include "progxe/session.h"
#include "service/scheduler.h"

namespace progxe {
namespace {

using test::Config;
using test::ExpectSameStats;
using test::MakeConfig;

using IdSeq = std::vector<std::pair<RowId, RowId>>;

/// Global submission-order event counter shared by one test's sinks, used
/// to assert cross-query interleaving (fairness) properties.
struct EventClock {
  std::atomic<uint64_t> next{0};
};

/// Records one query's delivered stream and lifecycle events.
class RecordingSink : public QuerySink {
 public:
  explicit RecordingSink(EventClock* clock = nullptr) : clock_(clock) {}

  void OnBatch(const std::vector<ResultTuple>& batch) override {
    std::lock_guard<std::mutex> lock(mtx_);
    EXPECT_FALSE(batch.empty());
    EXPECT_FALSE(done_);
    if (seq_.empty() && clock_ != nullptr) {
      first_batch_event_ = clock_->next.fetch_add(1);
    }
    for (const ResultTuple& res : batch) seq_.emplace_back(res.r_id, res.t_id);
    ++batches_;
  }

  void OnDone(QueryState state, const Status& status,
              const ProgXeStats& stats) override {
    std::lock_guard<std::mutex> lock(mtx_);
    EXPECT_FALSE(done_) << "OnDone must fire exactly once";
    done_ = true;
    final_state_ = state;
    final_status_ = status;
    stats_ = stats;
    if (clock_ != nullptr) done_event_ = clock_->next.fetch_add(1);
  }

  // Safe to read once the query's handle reports a terminal state.
  bool done() const { return done_; }
  const IdSeq& seq() const { return seq_; }
  size_t batches() const { return batches_; }
  QueryState final_state() const { return final_state_; }
  const Status& final_status() const { return final_status_; }
  const ProgXeStats& stats() const { return stats_; }
  uint64_t first_batch_event() const { return first_batch_event_; }
  uint64_t done_event() const { return done_event_; }

 private:
  std::mutex mtx_;
  EventClock* clock_;
  IdSeq seq_;
  size_t batches_ = 0;
  bool done_ = false;
  QueryState final_state_ = QueryState::kQueued;
  Status final_status_;
  ProgXeStats stats_;
  uint64_t first_batch_event_ = ~uint64_t{0};
  uint64_t done_event_ = ~uint64_t{0};
};

/// Drains a solo session to completion (reference stream + stats).
IdSeq SoloReference(const Config& cfg, const ProgXeOptions& options,
                    ProgXeStats* stats) {
  IdSeq seq;
  auto session = ProgXeSession::Open(cfg.query(), options);
  EXPECT_TRUE(session.ok());
  std::vector<ResultTuple> batch;
  while ((*session)->NextBatch(0, &batch) > 0) {
    for (const ResultTuple& res : batch) seq.emplace_back(res.r_id, res.t_id);
  }
  *stats = (*session)->stats();
  return seq;
}

struct SweepParam {
  int workers;
  size_t budget;  // join pairs per slice; 0 = unbudgeted
};

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  for (int workers : {1, 4}) {
    for (size_t budget : {size_t{64}, size_t{4096}, size_t{0}}) {
      params.push_back(SweepParam{workers, budget});
    }
  }
  return params;
}

class SchedulerEquivalenceSweep
    : public ::testing::TestWithParam<SweepParam> {};

// The acceptance criterion: >= 8 concurrent queries of weights 1..3,
// budgets in {small, default, unbounded}, workers in {1, 4} — each query's
// scheduler-served stream and counters must be bit-identical to its solo
// session.
TEST_P(SchedulerEquivalenceSweep, ServedEqualsSolo) {
  const SweepParam param = GetParam();
  constexpr int kQueries = 8;

  Rng rng(0xc0ffee);
  std::vector<Config> configs;
  std::vector<ProgXeOptions> options;
  for (int i = 0; i < kQueries; ++i) {
    configs.push_back(MakeConfig(&rng, i % 5 == 0, i % 4 == 0));
    ProgXeOptions opt;
    opt.seed = 0xfeed + static_cast<uint64_t>(i);
    // One early-terminated query.
    if (i == 5) opt.max_results = 7;
    options.push_back(opt);
  }

  std::vector<IdSeq> reference(kQueries);
  std::vector<ProgXeStats> reference_stats(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    reference[static_cast<size_t>(i)] =
        SoloReference(configs[static_cast<size_t>(i)],
                      options[static_cast<size_t>(i)],
                      &reference_stats[static_cast<size_t>(i)]);
  }

  ServiceOptions sopts;
  sopts.num_workers = param.workers;
  sopts.batch_budget = param.budget;
  sopts.max_concurrent = 0;  // all queries in flight at once
  QueryScheduler scheduler(sopts);

  std::vector<RecordingSink> sinks(kQueries);
  std::vector<QueryHandle> handles;
  for (int i = 0; i < kQueries; ++i) {
    SubmitOptions submit;
    submit.weight = 1.0 + i % 3;
    auto handle = scheduler.Submit(
        configs[static_cast<size_t>(i)].query(),
        options[static_cast<size_t>(i)], &sinks[static_cast<size_t>(i)],
        submit);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  scheduler.Drain();

  for (int i = 0; i < kQueries; ++i) {
    const RecordingSink& sink = sinks[static_cast<size_t>(i)];
    ASSERT_TRUE(sink.done()) << "query " << i;
    EXPECT_EQ(sink.final_state(), QueryState::kFinished) << "query " << i;
    EXPECT_EQ(handles[static_cast<size_t>(i)].state(), QueryState::kFinished);
    EXPECT_EQ(sink.seq(), reference[static_cast<size_t>(i)])
        << "query " << i << " stream diverged";
    ExpectSameStats(reference_stats[static_cast<size_t>(i)], sink.stats(),
                    "scheduler vs solo");
    ExpectSameStats(reference_stats[static_cast<size_t>(i)],
                    handles[static_cast<size_t>(i)].stats(),
                    "handle stats vs solo");
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, SchedulerEquivalenceSweep,
                         ::testing::ValuesIn(SweepParams()));

/// Parks a one-worker scheduler inside a gate query's first batch until
/// Open() is called, so the queries submitted in between all wait for
/// admission together; otherwise the worker could drive the first of them
/// to completion inside the submission gap.
class Gate : public QuerySink {
 public:
  explicit Gate(QueryScheduler* scheduler) : cfg_(GateConfig()) {
    auto handle = scheduler->Submit(cfg_.query(), ProgXeOptions(), this);
    EXPECT_TRUE(handle.ok());
    std::unique_lock<std::mutex> lock(mtx_);
    cv_.wait(lock, [&] { return entered_; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mtx_);
    release_ = true;
    cv_.notify_all();
  }

  void OnBatch(const std::vector<ResultTuple>&) override {
    std::unique_lock<std::mutex> lock(mtx_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return release_; });
  }
  void OnDone(QueryState, const Status&, const ProgXeStats&) override {}

 private:
  static Config GateConfig() {
    Rng rng(0x6a7e);
    return MakeConfig(&rng, false, false);
  }

  Config cfg_;
  std::mutex mtx_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool release_ = false;
};

// With budget slicing on and one worker, a light query submitted behind a
// heavy one must deliver its first batch before the heavy query completes.
TEST(Scheduler, BudgetSlicingPreventsStarvation) {
  Rng rng(0xfa12);
  // Heavy: high-sigma config joins many pairs per region.
  const Config heavy = MakeConfig(&rng, false, true);
  const Config light = MakeConfig(&rng, false, false);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 32;  // small slices force interleaving
  QueryScheduler scheduler(sopts);
  Gate gate(&scheduler);

  EventClock clock;
  RecordingSink heavy_sink(&clock);
  RecordingSink light_sink(&clock);
  auto h = scheduler.Submit(heavy.query(), ProgXeOptions(), &heavy_sink);
  auto l = scheduler.Submit(light.query(), ProgXeOptions(), &light_sink);
  ASSERT_TRUE(h.ok() && l.ok());
  gate.Open();
  scheduler.Drain();

  ASSERT_FALSE(light_sink.seq().empty());
  ASSERT_FALSE(heavy_sink.seq().empty());
  // The serving-layer criterion: the late light query's first batch must
  // not wait for the earlier heavy query's full completion.
  EXPECT_LT(light_sink.first_batch_event(), heavy_sink.done_event())
      << "light query's first batch waited for the heavy query to finish";
}

// Weights set the slice share. One worker serves two always-runnable copies
// of one heavy query, weighted 1 and 4: the weight-4 copy gets about four
// slices per slice of the weight-1 copy, so when it finishes the weight-1
// copy has processed about a quarter of the same join pairs. A pick rule
// that ignored weights would leave the two about level.
TEST(Scheduler, WeightSetsSliceShare) {
  Rng rng(0xfa12);
  const Config heavy = MakeConfig(&rng, false, true);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 32;
  QueryScheduler scheduler(sopts);
  Gate gate(&scheduler);

  // Reads the weight-1 copy's progress when the weight-4 copy is done. With
  // one worker the snapshot is exact: the weight-1 copy is not mid-slice.
  struct ProbeSink : QuerySink {
    QueryHandle other;
    uint64_t own_pairs = 0;
    uint64_t other_pairs = 0;
    void OnBatch(const std::vector<ResultTuple>&) override {}
    void OnDone(QueryState, const Status&,
                const ProgXeStats& stats) override {
      own_pairs = stats.join_pairs_generated;
      other_pairs = other.progress().pairs_processed;
    }
  };
  RecordingSink w1_sink;
  ProbeSink w4_sink;
  SubmitOptions w1;
  w1.weight = 1.0;
  SubmitOptions w4;
  w4.weight = 4.0;
  auto one = scheduler.Submit(heavy.query(), ProgXeOptions(), &w1_sink, w1);
  ASSERT_TRUE(one.ok());
  w4_sink.other = *one;
  auto four = scheduler.Submit(heavy.query(), ProgXeOptions(), &w4_sink, w4);
  ASSERT_TRUE(four.ok());
  gate.Open();
  scheduler.Drain();

  ASSERT_EQ(four->state(), QueryState::kFinished);
  ASSERT_EQ(one->state(), QueryState::kFinished);
  ASSERT_GT(w4_sink.own_pairs, 32u * 40)
      << "too few slices to tell shares apart";
  EXPECT_LT(w4_sink.other_pairs * 2, w4_sink.own_pairs)
      << "weight-1 copy had " << w4_sink.other_pairs << " of "
      << w4_sink.own_pairs << " pairs when the weight-4 copy finished";
}

TEST(Scheduler, AdmissionControlBoundsQueueAndConcurrency) {
  Rng rng(0xad31);
  std::vector<Config> configs;
  for (int i = 0; i < 3; ++i) configs.push_back(MakeConfig(&rng, false, false));

  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 64;
  sopts.max_concurrent = 1;
  sopts.max_queue = 1;
  QueryScheduler scheduler(sopts);

  // Stall the only worker inside the first query's first OnBatch so the
  // waiting room stays occupied long enough to observe the bound.
  struct BlockingSink : QuerySink {
    std::mutex mtx;
    std::condition_variable cv;
    bool release = false;
    bool blocked = false;
    RecordingSink inner;
    void OnBatch(const std::vector<ResultTuple>& batch) override {
      inner.OnBatch(batch);
      std::unique_lock<std::mutex> lock(mtx);
      blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    void OnDone(QueryState state, const Status& status,
                const ProgXeStats& stats) override {
      inner.OnDone(state, status, stats);
    }
  };

  BlockingSink first;
  RecordingSink second;
  RecordingSink third;
  auto h1 = scheduler.Submit(configs[0].query(), ProgXeOptions(), &first);
  ASSERT_TRUE(h1.ok());
  {
    std::unique_lock<std::mutex> lock(first.mtx);
    first.cv.wait(lock, [&] { return first.blocked; });
  }
  // Worker is blocked in query 1's sink; slot and queue fill up.
  auto h2 = scheduler.Submit(configs[1].query(), ProgXeOptions(), &second);
  ASSERT_TRUE(h2.ok());
  auto h3 = scheduler.Submit(configs[2].query(), ProgXeOptions(), &third);
  ASSERT_FALSE(h3.ok()) << "queue bound not enforced";
  EXPECT_TRUE(h3.status().IsOutOfRange());

  {
    std::lock_guard<std::mutex> lock(first.mtx);
    first.release = true;
    first.cv.notify_all();
  }
  scheduler.Drain();
  EXPECT_EQ(first.inner.final_state(), QueryState::kFinished);
  EXPECT_EQ(second.final_state(), QueryState::kFinished);
}

TEST(Scheduler, CancelStopsAtSliceBoundaryWithPrefixStream) {
  Rng rng(0x7ab5);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeStats solo_stats;
  const IdSeq solo = SoloReference(cfg, ProgXeOptions(), &solo_stats);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_budget = 16;
  QueryScheduler scheduler(sopts);

  // Cancel from inside the first delivery: everything delivered so far must
  // be a prefix of the solo stream, and OnDone must report kCancelled.
  struct CancelOnFirstBatch : QuerySink {
    RecordingSink inner;
    QueryHandle handle;
    void OnBatch(const std::vector<ResultTuple>& batch) override {
      inner.OnBatch(batch);
      handle.Cancel();
    }
    void OnDone(QueryState state, const Status& status,
                const ProgXeStats& stats) override {
      inner.OnDone(state, status, stats);
    }
  };
  CancelOnFirstBatch sink;
  auto handle = scheduler.Submit(cfg.query(), ProgXeOptions(), &sink);
  ASSERT_TRUE(handle.ok());
  sink.handle = *handle;
  handle->Wait();

  EXPECT_EQ(handle->state(), QueryState::kCancelled);
  EXPECT_EQ(sink.inner.final_state(), QueryState::kCancelled);
  ASSERT_LE(sink.inner.seq().size(), solo.size());
  EXPECT_LT(sink.inner.seq().size(), solo.size())
      << "cancel was requested mid-stream but everything got delivered";
  for (size_t i = 0; i < sink.inner.seq().size(); ++i) {
    EXPECT_EQ(sink.inner.seq()[i], solo[i]) << "not a prefix at " << i;
  }
}

TEST(Scheduler, CancelWhileQueuedNeverOpensSession) {
  Rng rng(0x99);
  const Config cfg = MakeConfig(&rng, false, false);

  ServiceOptions sopts;
  sopts.num_workers = 2;  // one stays free to reap while the slot is held
  sopts.max_concurrent = 1;
  QueryScheduler scheduler(sopts);

  // Occupy the only slot with a blocking query, cancel the queued one.
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
  BlockUntilReleased blocker;
  RecordingSink cancelled;
  auto h1 = scheduler.Submit(cfg.query(), ProgXeOptions(), &blocker);
  auto h2 = scheduler.Submit(cfg.query(), ProgXeOptions(), &cancelled);
  ASSERT_TRUE(h1.ok() && h2.ok());
  h2->Cancel();
  // The cancelled entry holds no slot, so its OnDone must not wait for
  // one: Wait() has to return while the only slot is still blocked.
  h2->Wait();
  {
    std::lock_guard<std::mutex> lock(blocker.mtx);
    blocker.release = true;
    blocker.cv.notify_all();
  }
  scheduler.Drain();
  EXPECT_EQ(h2->state(), QueryState::kCancelled);
  EXPECT_TRUE(cancelled.done());
  EXPECT_TRUE(cancelled.seq().empty());
  EXPECT_EQ(cancelled.stats().results_emitted, 0u);
}

TEST(Scheduler, InvalidQueryFailsThroughSink) {
  Config cfg;
  cfg.r = Relation(Schema::Anonymous(2));
  cfg.t = Relation(Schema::Anonymous(2));
  cfg.map = MapSpec::PairwiseSum(2);
  cfg.pref = Preference::AllLowest(3);  // dimensionality mismatch

  QueryScheduler scheduler(ServiceOptions{});
  RecordingSink sink;
  auto handle = scheduler.Submit(cfg.query(), ProgXeOptions(), &sink);
  ASSERT_TRUE(handle.ok());
  handle->Wait();
  EXPECT_EQ(handle->state(), QueryState::kFailed);
  EXPECT_TRUE(handle->status().IsInvalidArgument());
  EXPECT_EQ(sink.final_state(), QueryState::kFailed);
  EXPECT_TRUE(sink.seq().empty());
}

TEST(Scheduler, DestructionCancelsOutstandingQueries) {
  Rng rng(0xdead);
  const Config cfg = MakeConfig(&rng, false, true);
  RecordingSink sinks[4];
  std::vector<QueryHandle> handles;
  {
    ServiceOptions sopts;
    sopts.num_workers = 1;
    sopts.batch_budget = 8;
    sopts.max_concurrent = 1;
    QueryScheduler scheduler(sopts);
    for (RecordingSink& sink : sinks) {
      auto handle = scheduler.Submit(cfg.query(), ProgXeOptions(), &sink);
      ASSERT_TRUE(handle.ok());
      handles.push_back(*handle);
    }
    // Destructor fires with most queries queued or mid-flight.
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(sinks[i].done()) << "sink " << i << " never got OnDone";
    EXPECT_TRUE(IsTerminal(handles[static_cast<size_t>(i)].state()));
  }
}

TEST(Scheduler, SubmitRejectsNullSinkAndBadWeight) {
  Rng rng(0x11);
  const Config cfg = MakeConfig(&rng, false, false);
  QueryScheduler scheduler(ServiceOptions{});
  EXPECT_TRUE(scheduler.Submit(cfg.query(), ProgXeOptions(), nullptr)
                  .status()
                  .IsInvalidArgument());
  RecordingSink sink;
  SubmitOptions zero_weight;
  zero_weight.weight = 0.0;
  EXPECT_TRUE(scheduler.Submit(cfg.query(), ProgXeOptions(), &sink, zero_weight)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace progxe
