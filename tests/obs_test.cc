// Tests for the observability layer (obs/trace.h, obs/metrics.h): span
// recording, ring-overflow drop accounting, multi-thread interleaving
// (TSan-checked in CI; PROGXE_TEST_THREADS widens the pool), trace_event
// JSON validity, the tracing-on/off equivalence guarantee, and the metrics
// registry's Prometheus exposition.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "equivalence_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "progxe/executor.h"
#include "service/scheduler.h"

namespace progxe {
namespace {

int TestThreads() {
  const char* env = std::getenv("PROGXE_TEST_THREADS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n >= 1 ? n : 4;
}

/// Minimal recursive-descent JSON syntax checker: accepts exactly one JSON
/// value spanning the whole input. No DOM — enough to prove an export would
/// parse in Perfetto rather than die on a stray comma or unescaped quote.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    pos_ = 0;
    return Value() && (SkipWs(), pos_ == s_.size());
  }

 private:
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Every trace test disarms and flushes on exit so state never leaks into
/// the next test (the recorder is process-wide by design).
struct TraceSession {
  explicit TraceSession(size_t cap = size_t{1} << 12) { Tracing::Start(cap); }
  ~TraceSession() { Tracing::Stop(); }
};

TEST(Trace, DisabledByDefaultAndFree) {
  ASSERT_FALSE(Tracing::active());
  // Disabled spans and instants must be inert: no session, no recording.
  {
    TraceSpan span(trace_cats::kRegion, "never.recorded");
    span.arg("x", 1);
  }
  TraceInstant(trace_cats::kCache, "never.recorded");
  Tracing::Start();
  EXPECT_EQ(Tracing::buffered(), 0u);
  EXPECT_EQ(Tracing::dropped(), 0u);
  Tracing::Stop();
}

TEST(Trace, RecordsSpansInstantsAndArgs) {
  TraceSession session;
  {
    TraceSpan span(trace_cats::kShard, "test.span");
    span.arg("shard", 3);
    span.arg("pairs", 1234);
  }
  TraceInstant(trace_cats::kCache, "test.instant", "entries", 7);
  Tracing::Stop();
  EXPECT_EQ(Tracing::buffered(), 2u);
  EXPECT_EQ(Tracing::dropped(), 0u);

  std::string json;
  Tracing::RenderJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"test.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\""), std::string::npos);
  EXPECT_NE(json.find("1234"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  Tracing::Start(/*events_per_thread=*/8);
  for (int i = 0; i < 100; ++i) {
    TraceInstant(trace_cats::kSched, "overflow.tick", "i", i);
  }
  Tracing::Stop();
  EXPECT_EQ(Tracing::buffered(), 8u);
  EXPECT_EQ(Tracing::dropped(), 92u);
  std::string json;
  Tracing::RenderJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Drop-oldest: the ring must hold the *last* 8 events.
  EXPECT_EQ(json.find("\"i\":92") == std::string::npos,
            false)  // oldest survivor
      << json;
  EXPECT_EQ(json.find("\"i\":91"), std::string::npos);  // dropped
  EXPECT_NE(json.find("\"dropped_events\":92"), std::string::npos);
}

TEST(Trace, RestartClearsThePreviousSession) {
  Tracing::Start(8);
  for (int i = 0; i < 50; ++i) TraceInstant(trace_cats::kSched, "stale");
  Tracing::Stop();
  ASSERT_GT(Tracing::dropped(), 0u);
  Tracing::Start();
  EXPECT_EQ(Tracing::buffered(), 0u);
  EXPECT_EQ(Tracing::dropped(), 0u);
  std::string json;
  Tracing::RenderJson(&json);
  EXPECT_EQ(json.find("\"stale\""), std::string::npos);
  Tracing::Stop();
}

TEST(Trace, MultiThreadInterleavingIsCleanAndComplete) {
  const int threads = TestThreads();
  constexpr int kPerThread = 500;
  TraceSession session;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span(trace_cats::kRegion, "mt.span");
        span.arg("thread", t);
        span.arg("i", i);
      }
    });
  }
  // Concurrent export while writers are live: per-buffer mutexes make this
  // safe (and TSan verifies it).
  std::string mid;
  Tracing::RenderJson(&mid);
  EXPECT_TRUE(JsonChecker(mid).Valid());
  for (std::thread& th : pool) th.join();
  Tracing::Stop();
  EXPECT_EQ(Tracing::buffered(),
            static_cast<uint64_t>(threads) * kPerThread);
  EXPECT_EQ(Tracing::dropped(), 0u);
  std::string json;
  Tracing::RenderJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid());
  // Every recording thread exports its own named track.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(Trace, WriteJsonRoundTripsThroughAFile) {
  TraceSession session;
  { TraceSpan span(trace_cats::kPrepare, "file.span"); }
  Tracing::Stop();
  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(Tracing::WriteJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(JsonChecker(content).Valid()) << content;
  EXPECT_NE(content.find("\"file.span\""), std::string::npos);
  // An unwritable path must surface as an error, not a silent no-op.
  EXPECT_FALSE(Tracing::WriteJson("/nonexistent-dir/trace.json").ok());
}

// The observability contract: tracing observes, never participates.
// Results and every ProgXeStats counter must be bit-identical with tracing
// armed and disarmed.
TEST(Trace, TracingOnAndOffAreBitIdentical) {
  Rng rng(0x0b5e7e57);
  for (int round = 0; round < 3; ++round) {
    const test::Config cfg = test::MakeConfig(&rng, round == 1, round == 2);
    ProgXeOptions options;

    ProgXeStats stats_off;
    auto off = RunProgXe(cfg.query(), options, &stats_off);
    ASSERT_TRUE(off.ok());

    Tracing::Start();
    ProgXeStats stats_on;
    auto on = RunProgXe(cfg.query(), options, &stats_on);
    Tracing::Stop();
    ASSERT_TRUE(on.ok());
    EXPECT_GT(Tracing::buffered(), 0u);  // the run really was traced

    test::ExpectSameStats(stats_off, stats_on, "tracing on vs off");
    ASSERT_EQ(off->size(), on->size());
    for (size_t i = 0; i < off->size(); ++i) {
      EXPECT_EQ((*off)[i].r_id, (*on)[i].r_id) << i;
      EXPECT_EQ((*off)[i].t_id, (*on)[i].t_id) << i;
      EXPECT_EQ((*off)[i].values, (*on)[i].values) << i;
    }
  }
}

TEST(Metrics, RegistryIsIdempotentAndTyped) {
  MetricsRegistry reg;
  Metric* c = reg.GetCounter("test_total", "a counter");
  EXPECT_EQ(c, reg.GetCounter("test_total", "a counter"));
  c->Add(2.0);
  c->Increment();
  EXPECT_DOUBLE_EQ(c->value(), 3.0);
  Metric* g = reg.GetGauge("test_gauge", "a gauge");
  g->Set(42.0);
  g->Set(7.0);
  EXPECT_DOUBLE_EQ(g->value(), 7.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, HistogramBucketsAndPrometheusRendering) {
  MetricsRegistry reg;
  HistogramMetric* h =
      reg.GetHistogram("test_seconds", "a histogram", {0.1, 1.0, 10.0});
  h->Observe(0.05);   // bucket le=0.1
  h->Observe(0.5);    // bucket le=1
  h->Observe(0.6);    // bucket le=1
  h->Observe(100.0);  // +Inf
  EXPECT_EQ(h->count(), 4u);
  reg.GetCounter("test_total", "a counter")->Add(5.0);

  std::string text;
  reg.RenderPrometheus(&text);
  EXPECT_NE(text.find("# HELP test_seconds a histogram"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_seconds histogram"), std::string::npos);
  // Cumulative buckets: 1, 3, 3, 4.
  EXPECT_NE(text.find("test_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"1\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"+Inf\"} 4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_seconds_count 4"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE test_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_total 5"), std::string::npos);
}

TEST(Metrics, FoldsEngineAndSchedulerSnapshots) {
  MetricsRegistry reg;
  ProgXeStats stats;
  stats.r_rows = 100;
  stats.join_pairs_generated = 5000;
  stats.results_emitted = 42;
  FoldProgXeStats(stats, &reg);

  SchedulerStats sched;
  sched.queued = 2;
  sched.slices = 10;
  sched.slice_latency_us_log2[3] = 10;  // 10 slices in [4, 8) us
  sched.prepare_hits = 6;
  FoldSchedulerStats(sched, &reg);

  ShardCoverage cov;
  cov.shards = 4;
  cov.completed = 3;
  cov.abandoned = 1;
  FoldShardCoverage(cov, &reg);
  FoldObservability(&reg);

  std::string text;
  reg.RenderPrometheus(&text);
  EXPECT_NE(text.find("progxe_executor_join_pairs_total 5000"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("progxe_executor_results_emitted_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("progxe_scheduler_queued 2"), std::string::npos);
  EXPECT_NE(text.find("progxe_scheduler_slices_total 10"),
            std::string::npos);
  EXPECT_NE(text.find("progxe_scheduler_slice_latency_seconds_count 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("progxe_prepare_cache_hits_total 6"),
            std::string::npos);
  EXPECT_NE(text.find("progxe_shard_coverage_completed 3"),
            std::string::npos);
  EXPECT_NE(text.find("progxe_trace_dropped_events_total"),
            std::string::npos);
  EXPECT_NE(text.find("progxe_fault_fires_total"), std::string::npos);
  // Re-folding overwrites (snapshot semantics), never double-counts.
  FoldProgXeStats(stats, &reg);
  text.clear();
  reg.RenderPrometheus(&text);
  EXPECT_NE(text.find("progxe_executor_join_pairs_total 5000"),
            std::string::npos);
  // The whole exposition parses line-by-line: every non-comment line is
  // "name[{labels}] value".
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    char* endp = nullptr;
    std::strtod(line.c_str() + space + 1, &endp);
    EXPECT_EQ(*endp, '\0') << "non-numeric sample value: " << line;
  }
}

}  // namespace
}  // namespace progxe
