// FaultInjector unit tests plus the error channel it feeds: spec parsing,
// deterministic per-seed fire schedules (also under concurrent shard
// pumping), thread-safe fire budgets, strict parsing of the soak
// environment variables, and the terminal-error contract of ProgXeSession /
// ProgXeExecutor / QueryScheduler when a fault fires.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "equivalence_common.h"
#include "progxe/session.h"
#include "service/scheduler.h"
#include "shard/sharded_stream.h"

namespace progxe {
namespace {

using test::Config;
using test::MakeConfig;
using test::Oracle;

std::shared_ptr<FaultInjector> MustParse(std::string_view spec,
                                         uint64_t seed = 0) {
  auto injector = FaultInjector::Parse(spec, seed);
  EXPECT_TRUE(injector.ok()) << injector.status().ToString();
  return injector.MoveValue();
}

TEST(FaultInjectorParse, DefaultsAndFields) {
  auto injector = MustParse("shard.open");
  ASSERT_EQ(injector->rules().size(), 1u);
  const FaultRule& rule = injector->rules()[0];
  EXPECT_EQ(rule.site, "shard.open");
  EXPECT_EQ(rule.probability, 1.0);
  EXPECT_EQ(rule.max_fires, -1);
  EXPECT_EQ(rule.skip, 0);
  EXPECT_EQ(rule.instance, -1);
  EXPECT_EQ(rule.code, StatusCode::kUnavailable);

  injector = MustParse(
      "shard.next_batch:p=0.25,max=3,skip=7,shard=2,code=io_error;"
      "merge.release:code=resource_exhausted", 42);
  ASSERT_EQ(injector->rules().size(), 2u);
  const FaultRule& full = injector->rules()[0];
  EXPECT_EQ(full.site, "shard.next_batch");
  EXPECT_EQ(full.probability, 0.25);
  EXPECT_EQ(full.max_fires, 3);
  EXPECT_EQ(full.skip, 7);
  EXPECT_EQ(full.instance, 2);
  EXPECT_EQ(full.code, StatusCode::kIOError);
  EXPECT_EQ(injector->rules()[1].code, StatusCode::kResourceExhausted);
  EXPECT_EQ(injector->seed(), 42u);
  EXPECT_FALSE(injector->ToString().empty());
}

TEST(FaultInjectorParse, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", ";", "shard.open:p=1.5", "shard.open:p=-0.1", "shard.open:p=x",
        "shard.open:max=", "shard.open:skip=-1", "shard.open:bogus=1",
        "shard.open:code=nope", "shard.open:code=ok", "shard.open:p",
        ":p=1"}) {
    auto injector = FaultInjector::Parse(spec);
    EXPECT_FALSE(injector.ok()) << "accepted: \"" << spec << "\"";
    EXPECT_TRUE(injector.status().IsInvalidArgument()) << spec;
  }
}

TEST(FaultInjector, CertainAndImpossibleRules) {
  auto always = MustParse("s:p=1");
  auto never = MustParse("s:p=0");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(always->Check("s").ok());
    EXPECT_TRUE(never->Check("s").ok());
    EXPECT_TRUE(always->Check("other.site").ok()) << "site must be keyed";
  }
  EXPECT_EQ(always->fires(), 100);
  EXPECT_EQ(never->fires(), 0);
}

TEST(FaultInjector, FireScheduleIsDeterministicPerSeed) {
  auto pattern = [](uint64_t seed) {
    auto injector = MustParse("s:p=0.5", seed);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!injector->Check("s").ok());
    return fired;
  };
  const std::vector<bool> a = pattern(7);
  EXPECT_EQ(a, pattern(7)) << "same seed must replay the same schedule";
  // p=0.5 over 64 calls: identical schedules for different seeds would be a
  // 2^-64 coincidence — treat it as mixing failure.
  EXPECT_NE(a, pattern(8));
  size_t fires = 0;
  for (bool b : a) fires += b ? 1u : 0u;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST(FaultInjector, SkipPassesLeadingCalls) {
  auto injector = MustParse("s:p=1,skip=3");
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(injector->Check("s").ok());
  EXPECT_FALSE(injector->Check("s").ok());
}

TEST(FaultInjector, InstanceScoping) {
  auto injector = MustParse("s:p=1,shard=2");
  EXPECT_TRUE(injector->Check("s", 0).ok());
  EXPECT_TRUE(injector->Check("s", 1).ok());
  EXPECT_FALSE(injector->Check("s", 2).ok());
}

TEST(FaultInjector, FiredStatusCarriesRuleCodeAndContext) {
  auto injector = MustParse("merge.release:p=1,code=io_error");
  Status st = injector->Check("merge.release", 5);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("merge.release"), std::string::npos);
}

// max= is a fire budget over the whole injector, exact even under
// concurrent Check calls (the reservation is an atomic fetch_add).
TEST(FaultInjector, MaxFiresIsExactAcrossThreads) {
  auto injector = MustParse("s:p=1,max=5");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&injector] {
      for (int i = 0; i < 1000; ++i) injector->Check("s").ok();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(injector->fires(), 5);
  EXPECT_TRUE(injector->Check("s").ok()) << "budget exhausted, must pass";
}

// Calls are counted per (rule, instance): one instance's schedule does not
// depend on how other instances' calls interleave with it.
TEST(FaultInjector, CallsAreCountedPerInstance) {
  auto pattern = [](bool interleave) {
    auto injector = MustParse("s:p=0.5", 11);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      if (interleave) injector->Check("s", 1).ok();
      fired.push_back(!injector->Check("s", 0).ok());
    }
    return fired;
  };
  EXPECT_EQ(pattern(false), pattern(true));
  auto skip = MustParse("s:p=1,skip=2");
  for (int instance = 0; instance < 3; ++instance) {
    EXPECT_TRUE(skip->Check("s", instance).ok());
    EXPECT_TRUE(skip->Check("s", instance).ok());
    EXPECT_FALSE(skip->Check("s", instance).ok()) << instance;
  }
}

TEST(FaultInjector, NullHookIsOk) {
  EXPECT_TRUE(MaybeInjectFault(nullptr, fault_sites::kShardOpen, 3).ok());
}

// A session hit by session.next_batch dies cleanly: NextBatch returns 0,
// the error is readable through last_status(), the session reports
// Finished (it will never produce more) and stays stable on further calls.
TEST(SessionFaults, NextBatchFaultIsTerminal) {
  Rng rng(0xfa171);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.faults = MustParse("session.next_batch:p=1,skip=1");
  auto session = ProgXeSession::Open(cfg.query(), options);
  ASSERT_TRUE(session.ok());

  // Call 1 passes (skip=1) and may deliver results; call 2 fires.
  std::vector<ResultTuple> batch;
  (*session)->NextBatch(0, 64, &batch);
  EXPECT_TRUE((*session)->last_status().ok());
  while (!(*session)->Finished()) {
    if ((*session)->NextBatch(0, 64, &batch) == 0 &&
        !(*session)->last_status().ok()) {
      break;
    }
  }
  const Status death = (*session)->last_status();
  ASSERT_FALSE(death.ok());
  EXPECT_TRUE(death.IsUnavailable());
  EXPECT_TRUE((*session)->Finished());
  // Dead is dead: no further delivery, error sticky, stats readable.
  EXPECT_EQ((*session)->NextBatch(0, 0, &batch), 0u);
  EXPECT_EQ((*session)->last_status().code(), death.code());
  EXPECT_GT((*session)->stats().r_rows, 0u);
}

// The executor surfaces the stream's terminal error instead of returning OK
// on a drained-but-dead stream.
TEST(SessionFaults, ExecutorPropagatesStreamError) {
  Rng rng(0xfa172);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.faults = MustParse("session.next_batch:p=1");
  auto result = RunProgXe(cfg.query(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
}

/// Sink asserting the exactly-one-OnDone contract.
class FaultSink : public QuerySink {
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

// A scheduler.slice fault fails the query with the injected Status: state
// kFailed, the real error on the handle, exactly one OnDone, and the
// worker moves on (a later healthy query still completes).
TEST(SchedulerFaults, SliceFaultFailsQueryWithRealStatus) {
  Rng rng(0xfa173);
  const Config cfg = MakeConfig(&rng, false, false);

  ServiceOptions sopts;
  sopts.num_workers = 1;
  QueryScheduler scheduler(sopts);

  ProgXeOptions faulty;
  faulty.faults = MustParse("scheduler.slice:p=1,code=resource_exhausted");
  FaultSink doomed;
  auto h1 = scheduler.Submit(cfg.query(), faulty, &doomed);
  ASSERT_TRUE(h1.ok());
  FaultSink healthy;
  auto h2 = scheduler.Submit(cfg.query(), ProgXeOptions(), &healthy);
  ASSERT_TRUE(h2.ok());
  scheduler.Drain();

  EXPECT_TRUE(doomed.done());
  EXPECT_EQ(doomed.state(), QueryState::kFailed);
  EXPECT_TRUE(doomed.status().IsResourceExhausted());
  EXPECT_EQ(h1->state(), QueryState::kFailed);
  EXPECT_TRUE(h1->status().IsResourceExhausted());
  EXPECT_EQ(doomed.results(), 0u);

  EXPECT_TRUE(healthy.done());
  EXPECT_EQ(healthy.state(), QueryState::kFinished);
  EXPECT_GT(healthy.results(), 0u);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.finished, 1u);
}

// The CI soak spec, run programmatically at K=4 with the shards pumped
// concurrently: the schedule is a function of (seed, site, instance, call)
// and every instance's calls come in a fixed order, so each run must fire
// the same faults, retry the same shards and deliver the same set.
TEST(FaultSchedule, SoakSpecAtK4IsDeterministicUnderConcurrency) {
  constexpr char kSoakSpec[] =
      "shard.open:p=0.2,max=8;shard.next_batch:p=0.05,max=60;"
      "prepare.build:p=0.2,max=6,shard=1;pipeline.chunk:p=0.05,max=30,shard=2";
  // Large enough that every site of the spec fires, the in-engine ones
  // included (prepare.build on shard 1, pipeline.chunk on shard 2).
  const Config cfg = test::MakeLargeConfig(0x50a4, 1500);
  const auto oracle = Oracle(cfg);
  int64_t fires = -1;
  uint64_t retries = 0;
  uint64_t merge_comparisons = 0;
  ProgXeStats stats;
  for (int run = 0; run < 20; ++run) {
    ProgXeOptions options;
    options.seed = 0xfeed;
    auto injector = MustParse(kSoakSpec, 4);
    options.faults = injector;
    ShardOptions shard_options;
    shard_options.num_shards = 4;
    shard_options.max_retries = 10;
    shard_options.retry_backoff = std::chrono::milliseconds(0);
    auto stream = ShardedStream::Open(cfg.query(), options, shard_options);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<std::pair<RowId, RowId>> delivered;
    std::vector<ResultTuple> batch;
    while (!(*stream)->Finished()) {
      (*stream)->NextBatch(0, 0, &batch);
      for (const ResultTuple& res : batch) {
        delivered.emplace_back(res.r_id, res.t_id);
      }
    }
    ASSERT_TRUE((*stream)->last_status().ok())
        << (*stream)->last_status().ToString();
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, oracle) << "run " << run;
    if (run == 0) {
      fires = injector->fires();
      retries = (*stream)->coverage().retries;
      merge_comparisons = (*stream)->merge_comparisons();
      stats = (*stream)->stats();
      // Non-vacuity: the schedule actually hit this query.
      EXPECT_GT(fires, 0);
      EXPECT_GT(retries, 0u);
      continue;
    }
    EXPECT_EQ(injector->fires(), fires) << "run " << run;
    EXPECT_EQ((*stream)->coverage().retries, retries) << "run " << run;
    EXPECT_EQ((*stream)->merge_comparisons(), merge_comparisons)
        << "run " << run;
    test::ExpectSameStats(stats, (*stream)->stats(), "soak run");
  }
}

// The soak knobs parse strictly: a typo'd seed or retry budget aborts
// instead of silently soaking another schedule. Each death statement sets
// the variable inside the re-executed child, so this process's environment
// (and its cached injector) stay untouched.
TEST(FaultInjectorDeathTest, MalformedSeedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("PROGXE_FAULT_SITES", "shard.open:p=0", 1);
        setenv("PROGXE_FAULT_SEED", "7x", 1);
        FaultInjector::FromEnv();
      },
      "PROGXE_FAULT_SEED");
}

TEST(FaultInjectorDeathTest, MalformedRetryBudgetAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(0xdea7);
  const Config cfg = MakeConfig(&rng, false, false);
  ShardOptions shard_options;
  shard_options.num_shards = 2;
  EXPECT_DEATH(
      {
        setenv("PROGXE_FAULT_RETRIES", "abc", 1);
        (void)ShardedStream::Open(cfg.query(), ProgXeOptions(),
                                  shard_options);
      },
      "PROGXE_FAULT_RETRIES");
}

}  // namespace
}  // namespace progxe
