// Tests for the observability layer (obs/trace.h, obs/metrics.h): span
// recording, ring-overflow drop accounting, multi-thread interleaving
// (TSan-checked in CI; PROGXE_TEST_THREADS widens the pool), trace_event
// JSON validity, the tracing-on/off equivalence guarantee, and the
// Prometheus exposition written from the stats snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "equivalence_common.h"
#include "net/net_stats.h"
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

/// Sets field i of `fields` to base + i.
template <typename S, size_t N>
void SetDistinct(const StatField<S> (&fields)[N], uint64_t base, S* s) {
  for (const StatField<S>& f : fields) {
    if (f.real != nullptr) {
      s->*f.real = static_cast<double>(base++);
    } else {
      s->*f.count = base++;
    }
  }
}

/// Expects `progxe_<subsystem>_<field>[_total] <value>` for every field,
/// under a TYPE line of the field's kind.
template <typename S, size_t N>
void ExpectEveryField(const std::string& text, const char* subsystem,
                      const StatField<S> (&fields)[N], const S& s) {
  for (const StatField<S>& f : fields) {
    std::string name = std::string("progxe_") + subsystem + "_" + f.name;
    const bool counter = f.kind == StatKind::kCounter;
    if (counter && !name.ends_with("_total")) name += "_total";
    const uint64_t value = f.real != nullptr
                               ? static_cast<uint64_t>(s.*f.real)
                               : s.*f.count;
    EXPECT_NE(text.find("\n" + name + " " + std::to_string(value) + "\n"),
              std::string::npos)
        << name;
    EXPECT_NE(text.find("# TYPE " + name +
                        (counter ? " counter\n" : " gauge\n")),
              std::string::npos)
        << name;
  }
}

TEST(Metrics, RendersEveryFieldOfEverySnapshot) {
  ProgXeStats stats;
  SetDistinct(kProgXeStatsFields, 1000, &stats);
  SchedulerStats sched;
  SetDistinct(kSchedulerStatsFields, 2000, &sched);
  NetStatsSnapshot net;
  SetDistinct(kNetStatsFields, 3000, &net);
  const std::string text = RenderPrometheus(stats, sched, net);
  ExpectEveryField(text, "executor", kProgXeStatsFields, stats);
  ExpectEveryField(text, "scheduler", kSchedulerStatsFields, sched);
  ExpectEveryField(text, "net", kNetStatsFields, net);
  EXPECT_NE(text.find("progxe_trace_dropped_events_total"),
            std::string::npos);
  EXPECT_NE(text.find("progxe_fault_fires_total"), std::string::npos);

  // One HELP and one TYPE line per family, and every sample line parses
  // as "name[{labels}] value".
  std::vector<std::string> helped;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_EQ(std::count(helped.begin(), helped.end(), family), 0)
          << family << " exported twice";
      helped.push_back(family);
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    char* endp = nullptr;
    std::strtod(line.c_str() + space + 1, &endp);
    EXPECT_EQ(*endp, '\0') << "non-numeric sample value: " << line;
  }
}

TEST(Metrics, HistogramBucketsAndPrometheusRendering) {
  SchedulerStats sched;
  sched.slice_latency_us_log2[0] = 1;   // < 1 us
  sched.slice_latency_us_log2[3] = 10;  // [4, 8) us
  sched.slice_latency_us_log2[kLog2UsBuckets - 1] = 2;  // open-ended
  NetStatsSnapshot net;
  net.rtt_us_log2[Log2UsBucket(3)] = 4;
  net.rtt_sum_us = 12.0;
  const std::string text = RenderPrometheus(ProgXeStats(), sched, net);
  for (const char* expected : {
           "# TYPE progxe_scheduler_slice_latency_seconds histogram\n",
           "progxe_scheduler_slice_latency_seconds_bucket{le=\"1e-06\"} 1\n",
           "progxe_scheduler_slice_latency_seconds_bucket{le=\"4e-06\"} 1\n",
           "progxe_scheduler_slice_latency_seconds_bucket{le=\"8e-06\"} 11\n",
           "progxe_scheduler_slice_latency_seconds_bucket{le=\"0.131072\"} "
           "11\n",
           "progxe_scheduler_slice_latency_seconds_bucket{le=\"+Inf\"} 13\n",
           "progxe_scheduler_slice_latency_seconds_count 13\n",
           "progxe_net_rtt_seconds_bucket{le=\"2e-06\"} 0\n",
           "progxe_net_rtt_seconds_bucket{le=\"4e-06\"} 4\n",
           "progxe_net_rtt_seconds_sum 1.2e-05\n",
           "progxe_net_rtt_seconds_count 4\n"}) {
    EXPECT_NE(text.find(expected), std::string::npos) << expected << text;
  }
}

}  // namespace
}  // namespace progxe
