// The repository benchmark: the paper's progressiveness times (time to
// first result, time to half the results, total time) on three
// closed-loop workloads driven through the engine's public entry points
// (OpenProgXeStream/NextBatch, QueryScheduler::Submit,
// WorkerServer::Start). See README.md for the workloads and metrics.
//
//   progxe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every query's result set is checked against a reference computed once
// per pooled input by another code path, in forked children so that it
// neither counts toward set-up time nor raises the measured peak RSS.
// `--trace 0` times the workload untraced and prints the end-to-end
// metrics: the tails of the three times and the set-up time. `--trace 1`
// runs it untraced, then traced with the obs tracer armed, and prints the
// per-layer breakdown. On sharded_k4 the traced run also runs the same
// queries over loopback shard workers, which is where the net layer is
// measured. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/jf_sl.h"
#include "common/logging.h"
#include "common/rng.h"
#include "harness/workload.h"
#include "net/net_stats.h"
#include "net/worker_pool.h"
#include "net/worker_service.h"
#include "obs/trace.h"
#include "progxe/stream.h"
#include "service/scheduler.h"
#include "shard/sharded_stream.h"
#include "trace_fold.h"

namespace perfbench {
namespace {

using progxe::Distribution;
using progxe::ProgXeOptions;
using progxe::ProgXeStats;
using progxe::ProgXeStream;
using progxe::ResultTuple;
using progxe::RowId;
using progxe::ShardOptions;
using progxe::TraceSpan;
using progxe::Tracing;
using progxe::Workload;

constexpr char kBenchCat[] = "bench";
// An untraced run sets up this many times: once before timing, and once
// after each of kSetupReps - 1 equal segments of the timed phase, so that
// the set-ups sample the host's speed over the whole run rather than at
// its start. It reports the value with kSetupBeyond set-ups above it.
constexpr int kSetupReps = 9;
constexpr size_t kSetupBeyond = 2;
// A traced run sets up this many times, all before timing.
constexpr int kTracedSetupReps = 3;
// The time tails are the value with exactly this many samples beyond it.
constexpr size_t kTailBeyond = 10;
// Trace ring slots per thread: one traced serve_mix phase must fit.
constexpr size_t kTraceRing = size_t{1} << 18;

using IdSet = std::vector<std::pair<RowId, RowId>>;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The value with `beyond` samples above it: the highest percentile that
// has at least that many samples beyond it. Falls back to the maximum (and
// says so) when a run collected too few samples.
double Tail(std::vector<double> v, size_t beyond, const char* what) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= beyond) {
    std::printf("warning: %s tail has only %zu samples; reporting the max\n",
                what, n);
    return v.back();
  }
  const size_t idx = n - 1 - beyond;
  std::printf("tail %s: p%.1f (%zu samples, %zu beyond)\n", what,
              100.0 * static_cast<double>(idx + 1) / static_cast<double>(n),
              n, beyond);
  return v[idx];
}

// A fixed pointer-chasing walk over 8 MB. Its time says how fast this host
// is running right now, so that drift of the host can be told apart from a
// change of the program. Median of five walks.
double HostReferenceSeconds() {
  constexpr uint32_t kSlots = uint32_t{1} << 21;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  progxe::Rng rng(0x5eed);
  for (uint32_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng.NextBelow(i)]);
  }
  std::vector<double> times;
  uint32_t at = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = Now();
    for (int step = 0; step < 400000; ++step) at = next[at];
    times.push_back(Now() - start);
  }
  if (at == kSlots) std::printf("unreachable\n");  // keeps the walk live
  return Median(times);
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Driver { kStream, kServe };

struct InputSpec {
  Distribution dist;
  size_t rows;
};

struct WorkloadDef {
  const char* name;
  Driver driver;
  std::vector<InputSpec> pool;
  int shards;           // stream driver: ShardOptions::num_shards
  bool jfsl_reference;  // JF-SL reference, else the K=1 session's set
};

std::vector<WorkloadDef> Workloads() {
  const InputSpec solo{Distribution::kAntiCorrelated, 20000};
  const InputSpec small{Distribution::kAntiCorrelated, 5000};
  const InputSpec heavy{Distribution::kIndependent, 40000};
  // Four heavy inputs, not two: the heavy queries set serve_mix's tails,
  // and their burst structure differs from input to input.
  std::vector<InputSpec> mix(6, small);
  mix.insert(mix.end(), 4, heavy);
  return {
      {"solo_anti", Driver::kStream, {solo, solo, solo, solo}, 1, true},
      {"sharded_k4", Driver::kStream, {small, small, small, small}, 4, false},
      {"serve_mix", Driver::kServe, mix, 1, true},
  };
}

// Input i of a workload's pool.
progxe::WorkloadParams InputParams(const InputSpec& spec, uint64_t seed,
                                   size_t i) {
  progxe::WorkloadParams params;
  params.distribution = spec.dist;
  params.cardinality = spec.rows;
  params.dims = 4;
  params.sigma = 0.001;
  params.seed = seed * 1000003 + i * 7919 + spec.rows;
  return params;
}

using Pool = std::vector<std::unique_ptr<Workload>>;

bool MakePool(const WorkloadDef& def, uint64_t seed, Pool* pool) {
  pool->clear();
  for (size_t i = 0; i < def.pool.size(); ++i) {
    auto made = Workload::Make(InputParams(def.pool[i], seed, i));
    if (!made.ok()) {
      std::fprintf(stderr, "input %zu: %s\n", i,
                   made.status().ToString().c_str());
      return false;
    }
    pool->push_back(std::make_unique<Workload>(made.MoveValue()));
  }
  return true;
}

// ---------------------------------------------------------------------------
// References, computed in a forked child.

bool ReferenceSet(const Workload& input, bool jfsl, IdSet* out) {
  out->clear();
  if (jfsl) {
    const progxe::Status status = progxe::RunJfSl(
        input.query(),
        [&](const ResultTuple& res) { out->emplace_back(res.r_id, res.t_id); });
    if (!status.ok()) return false;
  } else {
    auto stream = progxe::OpenProgXeStream(input.query(), ProgXeOptions());
    if (!stream.ok()) return false;
    std::vector<ResultTuple> batch;
    while ((*stream)->NextBatch(0, &batch) > 0) {
      for (const ResultTuple& res : batch) {
        out->emplace_back(res.r_id, res.t_id);
      }
    }
    if (!(*stream)->last_status().ok()) return false;
  }
  std::sort(out->begin(), out->end());
  return true;
}

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Computes the reference set of `input` in a forked child, which writes
// the pair count and the sorted pairs, as (r_id, t_id) RowIds, to the
// returned pipe and exits.
// Returns the child's pid and sets `*fd` to the read end, or -1.
pid_t ForkReference(const Workload& input, bool jfsl, int* fd) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (child == 0) {
    close(fds[0]);
    IdSet ids;
    const uint64_t n = ReferenceSet(input, jfsl, &ids) ? ids.size()
                                                        : UINT64_MAX;
    std::vector<RowId> flat;
    for (const auto& [r_id, t_id] : ids) {
      flat.push_back(r_id);
      flat.push_back(t_id);
    }
    const bool ok =
        WriteAll(fds[1], &n, sizeof(n)) &&
        (n == UINT64_MAX ||
         WriteAll(fds[1], flat.data(), flat.size() * sizeof(RowId)));
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  *fd = fds[0];
  return child;
}

// Reads one child's reference from `fd`, closes it and reaps the child.
bool CollectReference(pid_t child, int fd, IdSet* ref) {
  std::string bytes;
  char buf[1 << 16];
  ssize_t got = 0;
  while ((got = read(fd, buf, sizeof(buf))) > 0) {
    bytes.append(buf, static_cast<size_t>(got));
  }
  close(fd);
  int wstatus = 0;
  if (waitpid(child, &wstatus, 0) != child || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return false;
  }
  uint64_t n = 0;
  if (bytes.size() < sizeof(n)) return false;
  std::memcpy(&n, bytes.data(), sizeof(n));
  if (n == UINT64_MAX || bytes.size() != sizeof(n) + 2 * n * sizeof(RowId)) {
    return false;
  }
  std::vector<RowId> flat(2 * n);
  std::memcpy(flat.data(), bytes.data() + sizeof(n),
              flat.size() * sizeof(RowId));
  ref->clear();
  for (size_t i = 0; i < n; ++i) {
    ref->emplace_back(flat[2 * i], flat[2 * i + 1]);
  }
  return true;
}

// One child per pooled input, all at once: the references are computed
// before anything is timed. Must run before the process starts a thread.
bool ComputeReferences(const WorkloadDef& def, const Pool& pool,
                       std::vector<IdSet>* refs) {
  std::vector<std::pair<pid_t, int>> children;
  for (const auto& input : pool) {
    int fd = -1;
    const pid_t child = ForkReference(*input, def.jfsl_reference, &fd);
    children.emplace_back(child, fd);
  }
  bool ok = true;
  refs->assign(pool.size(), IdSet());
  for (size_t i = 0; i < children.size(); ++i) {
    const auto [child, fd] = children[i];
    ok = child > 0 && CollectReference(child, fd, &(*refs)[i]) && ok;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Deterministic work counts of one query; identical for every query of the
// same input, and so across runs of the same seed. Net bytes and frames
// are not among them: a worker sends a heartbeat frame whenever 200 ms of
// an open or a pump have passed, so they depend on the host's speed.

struct WorkCounts {
  uint64_t join_pairs = 0;
  uint64_t dominance_cmps = 0;
  uint64_t regions_processed = 0;
  uint64_t regions_discarded = 0;
  uint64_t results = 0;
  uint64_t merge_cmps = 0;
  uint64_t net_rpcs = 0;

  static WorkCounts From(const ProgXeStats& stats) {
    WorkCounts c;
    c.join_pairs = stats.join_pairs_generated;
    c.dominance_cmps = stats.dominance_comparisons;
    c.regions_processed = stats.regions_processed;
    c.regions_discarded = stats.regions_discarded_runtime;
    c.results = stats.results_emitted;
    return c;
  }

  bool operator==(const WorkCounts&) const = default;
};

progxe::NetStatsSnapshot NetDelta(const progxe::NetStatsSnapshot& a,
                                  const progxe::NetStatsSnapshot& b) {
  progxe::NetStatsSnapshot d;
  d.bytes_sent = b.bytes_sent - a.bytes_sent;
  d.bytes_received = b.bytes_received - a.bytes_received;
  d.frames_sent = b.frames_sent - a.frames_sent;
  d.frames_received = b.frames_received - a.frames_received;
  d.rtt_count = b.rtt_count - a.rtt_count;
  d.rtt_sum_us = b.rtt_sum_us - a.rtt_sum_us;
  return d;
}

// ---------------------------------------------------------------------------
// Environment: what set-up builds and the timed phases use.

struct Env {
  Pool pool;
  std::unique_ptr<progxe::QueryScheduler> scheduler;
  ShardOptions shard_options;
};

// Two loopback shard workers (port 0) reached through one shared
// WorkerPool, as progxe_server does: K=4 shards make 4 connections.
struct RemoteWorkers {
  std::vector<std::unique_ptr<progxe::WorkerServer>> servers;
  std::shared_ptr<progxe::WorkerPool> pool;
  ShardOptions shard_options;

  bool Start(const ShardOptions& local) {
    shard_options = local;
    pool = std::make_shared<progxe::WorkerPool>();
    shard_options.worker_pool = pool;
    for (int i = 0; i < 2; ++i) {
      auto server = progxe::WorkerServer::Start({});
      if (!server.ok()) {
        std::fprintf(stderr, "worker %d: %s\n", i,
                     server.status().ToString().c_str());
        return false;
      }
      shard_options.workers.push_back(
          "127.0.0.1:" + std::to_string((*server)->port()));
      servers.push_back(server.MoveValue());
    }
    return true;
  }
};

// Per-input work counts seen so far; a repeat that differs is a
// determinism failure.
struct CountBook {
  std::vector<std::optional<WorkCounts>> first;
  uint64_t mismatches = 0;

  void Record(size_t input, const WorkCounts& counts) {
    if (!first[input].has_value()) {
      first[input] = counts;
    } else if (!(*first[input] == counts)) {
      ++mismatches;
      std::printf("error: work counts of input %zu changed between queries\n",
                  input);
    }
  }
};

struct Sample {
  double ttfr = 0.0;
  double t50 = 0.0;
  double total = 0.0;
};

struct Phase {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ProgXeStats stats;  // summed over completed queries
  uint64_t merge_cmps = 0;
  size_t held_peak = 0;
  progxe::NetStatsSnapshot net;         // delta over the phase
  progxe::SchedulerStats sched;         // delta over the phase
  double peak_rss_mb = 0.0;             // process peak RSS at its end
};

// Adds a later segment of the same phase to `into`.
void Merge(const Phase& segment, Phase* into) {
  into->samples.insert(into->samples.end(), segment.samples.begin(),
                       segment.samples.end());
  into->attempted += segment.attempted;
  into->failed += segment.failed;
  into->wall_s += segment.wall_s;
  into->cpu_s += segment.cpu_s;
  into->stats.Accumulate(segment.stats);
  into->merge_cmps += segment.merge_cmps;
  into->held_peak = std::max(into->held_peak, segment.held_peak);
  into->net.bytes_sent += segment.net.bytes_sent;
  into->net.bytes_received += segment.net.bytes_received;
  into->net.frames_sent += segment.net.frames_sent;
  into->net.frames_received += segment.net.frames_received;
  into->net.rtt_count += segment.net.rtt_count;
  into->net.rtt_sum_us += segment.net.rtt_sum_us;
  progxe::SchedulerStats& sc = into->sched;
  sc.slices += segment.sched.slices;
  sc.sliced_pairs += segment.sched.sliced_pairs;
  sc.prepare_hits += segment.sched.prepare_hits;
  sc.prepare_misses += segment.sched.prepare_misses;
  sc.prepare_evictions += segment.sched.prepare_evictions;
  for (size_t i = 0; i < sc.slice_latency_us_log2.size(); ++i) {
    sc.slice_latency_us_log2[i] += segment.sched.slice_latency_us_log2[i];
  }
  into->peak_rss_mb = std::max(into->peak_rss_mb, segment.peak_rss_mb);
}

// Queries attempted and failed over the phases of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const Phase& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
  }
};

progxe::SchedulerStats SchedDelta(const progxe::SchedulerStats& a,
                                  const progxe::SchedulerStats& b) {
  progxe::SchedulerStats d;
  d.slices = b.slices - a.slices;
  d.sliced_pairs = b.sliced_pairs - a.sliced_pairs;
  d.prepare_hits = b.prepare_hits - a.prepare_hits;
  d.prepare_misses = b.prepare_misses - a.prepare_misses;
  d.prepare_evictions = b.prepare_evictions - a.prepare_evictions;
  for (size_t i = 0; i < d.slice_latency_us_log2.size(); ++i) {
    d.slice_latency_us_log2[i] =
        b.slice_latency_us_log2[i] - a.slice_latency_us_log2[i];
  }
  return d;
}

// Tracks the delivery times of one query against its reference size.
struct Progress {
  double start = 0.0;
  size_t half = 0;
  IdSet ids;
  Sample sample;

  void Deliver(const std::vector<ResultTuple>& batch, double now) {
    if (batch.empty()) return;
    if (ids.empty()) sample.ttfr = now - start;
    for (const ResultTuple& res : batch) ids.emplace_back(res.r_id, res.t_id);
    if (sample.t50 == 0.0 && ids.size() >= half) sample.t50 = now - start;
  }

  bool Matches(const IdSet& reference) {
    std::sort(ids.begin(), ids.end());
    return ids == reference;
  }
};

// One query through OpenProgXeStream, wrapped in benchmark spans. Returns
// false if it errored or delivered a wrong result set.
bool StreamQuery(const Env& env, size_t input, const IdSet& reference,
                 const ShardOptions& shards, Phase* phase, CountBook* book) {
  const Workload& w = *env.pool[input];
  const progxe::NetStatsSnapshot net_before = progxe::SnapshotNetStats();
  Progress progress;
  progress.half = (reference.size() + 1) / 2;
  std::unique_ptr<ProgXeStream> stream;
  {
    TraceSpan query_span(kBenchCat, "bench.query");
    progress.start = Now();
    {
      TraceSpan open_span(kBenchCat, "bench.open");
      auto opened = progxe::OpenProgXeStream(w.query(), ProgXeOptions(),
                                             shards);
      if (!opened.ok()) {
        std::printf("error: open: %s\n", opened.status().ToString().c_str());
        return false;
      }
      stream = opened.MoveValue();
    }
    std::vector<ResultTuple> batch;
    while (true) {
      size_t n = 0;
      {
        TraceSpan next_span(kBenchCat, "bench.next_batch");
        n = stream->NextBatch(0, &batch);
      }
      if (n == 0) break;
      progress.Deliver(batch, Now());
    }
    progress.sample.total = Now() - progress.start;
  }
  if (!stream->last_status().ok()) {
    std::printf("error: query: %s\n",
                stream->last_status().ToString().c_str());
    return false;
  }
  if (!progress.Matches(reference)) {
    std::printf("error: input %zu delivered %zu results, reference has %zu "
                "or differs\n",
                input, progress.ids.size(), reference.size());
    return false;
  }
  WorkCounts counts = WorkCounts::From(stream->stats());
  if (const auto* sharded =
          dynamic_cast<const progxe::ShardedStream*>(stream.get())) {
    counts.merge_cmps = sharded->merge_comparisons();
    phase->held_peak = std::max(phase->held_peak, sharded->held_peak());
  }
  const progxe::NetStatsSnapshot net =
      NetDelta(net_before, progxe::SnapshotNetStats());
  counts.net_rpcs = net.rtt_count;
  if (book != nullptr) book->Record(input, counts);
  phase->stats.Accumulate(stream->stats());
  phase->merge_cmps += counts.merge_cmps;
  phase->samples.push_back(progress.sample);
  return true;
}

constexpr int kServeClients = 4;
constexpr size_t kServeLight = 6;  // pool[0..5] light, pool[6..9] heavy
constexpr size_t kServeHeavyInputs = 4;

// The seeded, skewed query sequence of one serve_mix client. Every block
// of five queries holds exactly one heavy query, at a seeded position, so
// that the heavy share is 20% in every run; the heavy inputs take turns.
// Light queries follow Zipf-like weights 1/(j+1) over the six light
// inputs.
class MixSequence {
 public:
  MixSequence(uint64_t seed, int client)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(client)),
        heavy_turn_(static_cast<size_t>(client)) {}

  size_t Next() {
    if (pos_ % 5 == 0) heavy_at_ = pos_ + rng_.NextBelow(5);
    if (pos_++ == heavy_at_) {
      return kServeLight + (heavy_turn_++ % kServeHeavyInputs);
    }
    static constexpr double kHarmonic6 = 2.45;
    double u = rng_.NextDouble() * kHarmonic6;
    for (size_t j = 0; j < kServeLight; ++j) {
      u -= 1.0 / static_cast<double>(j + 1);
      if (u < 0.0) return j;
    }
    return kServeLight - 1;
  }

 private:
  progxe::Rng rng_;
  size_t heavy_turn_;
  size_t pos_ = 0;
  size_t heavy_at_ = 0;
};

// Where the closed loops of a run stand, so that a phase run in segments,
// or a later phase, continues the query sequence instead of restarting it.
struct Cursor {
  size_t next_input = 0;             // stream driver: cycles the pool
  std::vector<MixSequence> clients;  // serve driver: one per client

  explicit Cursor(uint64_t seed) {
    for (int c = 0; c < kServeClients; ++c) clients.emplace_back(seed, c);
  }
};

// Closed loop of one client cycling through the pool for `seconds`. With a
// fold, the tracer is armed around each query and folded after it.
Phase RunStreamPhase(const Env& env, const std::vector<IdSet>& refs,
                     double seconds, const ShardOptions& shards,
                     Cursor* cursor, CountBook* book, TraceFold* fold) {
  Phase phase;
  const progxe::NetStatsSnapshot net_before = progxe::SnapshotNetStats();
  const double cpu_start = CpuSeconds();
  const double start = Now();
  std::string json;
  while (Now() - start < seconds) {
    const size_t input = cursor->next_input++ % env.pool.size();
    if (fold != nullptr) Tracing::Start(kTraceRing);
    ++phase.attempted;
    if (!StreamQuery(env, input, refs[input], shards, &phase, book)) {
      ++phase.failed;
    }
    if (fold != nullptr) {
      Tracing::Stop();
      Tracing::RenderJson(&json);
      fold->Add(ParseTrace(json));
    }
  }
  phase.wall_s = Now() - start;
  phase.cpu_s = CpuSeconds() - cpu_start;
  phase.net = NetDelta(net_before, progxe::SnapshotNetStats());
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

// Result sink of one scheduled query; called on scheduler worker threads.
class ServeSink : public progxe::QuerySink {
 public:
  ServeSink(double start, size_t half) {
    progress_.start = start;
    progress_.half = half;
  }

  void OnBatch(const std::vector<ResultTuple>& batch) override {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    progress_.Deliver(batch, now);
  }

  void OnDone(progxe::QueryState state, const progxe::Status& status,
              const ProgXeStats& stats) override {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    progress_.sample.total = now - progress_.start;
    state_ = state;
    status_ = status;
    stats_ = stats;
  }

  // Valid once the query's handle has been waited on.
  Progress& progress() { return progress_; }
  progxe::QueryState state() const { return state_; }
  const progxe::Status& status() const { return status_; }
  const ProgXeStats& stats() const { return stats_; }

 private:
  std::mutex mu_;
  Progress progress_;
  progxe::QueryState state_ = progxe::QueryState::kQueued;
  progxe::Status status_;
  ProgXeStats stats_;
};

// One query through QueryScheduler::Submit, waited on to completion.
bool ServeQuery(Env& env, size_t input, const IdSet& reference,
                Phase* phase, std::mutex* phase_mu, CountBook* book) {
  ServeSink sink(Now(), (reference.size() + 1) / 2);
  progxe::Result<progxe::QueryHandle> handle =
      progxe::Status::Internal("not submitted");
  {
    TraceSpan submit_span(kBenchCat, "bench.submit");
    handle = env.scheduler->Submit(env.pool[input]->query(), ProgXeOptions(),
                                   &sink);
    if (handle.ok()) {
      submit_span.arg("query", static_cast<int64_t>(handle->id()));
    }
  }
  if (!handle.ok()) {
    std::printf("error: submit: %s\n", handle.status().ToString().c_str());
    return false;
  }
  handle->Wait();
  if (sink.state() != progxe::QueryState::kFinished) {
    std::printf("error: query ended %s: %s\n",
                progxe::QueryStateName(sink.state()),
                sink.status().ToString().c_str());
    return false;
  }
  if (!sink.progress().Matches(reference)) {
    std::printf("error: input %zu delivered %zu results, reference has %zu "
                "or differs\n",
                input, sink.progress().ids.size(), reference.size());
    return false;
  }
  std::lock_guard<std::mutex> lock(*phase_mu);
  if (book != nullptr) book->Record(input, WorkCounts::From(sink.stats()));
  phase->stats.Accumulate(sink.stats());
  phase->samples.push_back(sink.progress().sample);
  return true;
}

// kServeClients closed-loop clients for `seconds`; each client finishes
// the query it has in flight when time runs out.
Phase RunServePhase(Env& env, const std::vector<IdSet>& refs, double seconds,
                    Cursor* cursor, CountBook* book) {
  Phase phase;
  std::mutex phase_mu;
  const progxe::SchedulerStats sched_before = env.scheduler->stats();
  const double cpu_start = CpuSeconds();
  const double start = Now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      MixSequence& sequence = cursor->clients[c];
      while (Now() - start < seconds) {
        const size_t input = sequence.Next();
        const bool ok =
            ServeQuery(env, input, refs[input], &phase, &phase_mu, book);
        std::lock_guard<std::mutex> lock(phase_mu);
        ++phase.attempted;
        if (!ok) ++phase.failed;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  phase.wall_s = Now() - start;
  phase.cpu_s = CpuSeconds() - cpu_start;
  phase.sched = SchedDelta(sched_before, env.scheduler->stats());
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

// ---------------------------------------------------------------------------
// Set-up: inputs, the scheduler (serve_mix) and a warm-up.

struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;
};

// The serve_mix warm-up: each light input once, then the first again (a
// prepare-cache hit), sequentially so the cache counts are deterministic.
void ServeWarmup(Env& env, const std::vector<IdSet>& refs, Phase* phase) {
  std::mutex mu;
  for (size_t i = 0; i <= kServeLight; ++i) {
    const size_t input = i % kServeLight;
    ++phase->attempted;
    if (!ServeQuery(env, input, refs[input], phase, &mu, nullptr)) {
      ++phase->failed;
    }
  }
}

// False only if the inputs cannot be made; a failed warm-up query is
// counted in `warmup`.
bool Setup(const WorkloadDef& def, uint64_t seed,
           const std::vector<IdSet>& refs, Env* env, SetupTimes* times,
           Phase* warmup, progxe::SchedulerStats* warmup_sched) {
  const double start = Now();
  if (!MakePool(def, seed, &env->pool)) return false;
  times->generate_s = Now() - start;
  env->shard_options = ShardOptions();
  env->shard_options.num_shards = def.shards;
  if (def.driver == Driver::kServe) {
    progxe::ServiceOptions options;
    options.num_workers = 2;
    env->scheduler = std::make_unique<progxe::QueryScheduler>(options);
    ServeWarmup(*env, refs, warmup);
    *warmup_sched = env->scheduler->stats();
  } else {
    ++warmup->attempted;
    if (!StreamQuery(*env, 0, refs[0], env->shard_options, warmup, nullptr)) {
      ++warmup->failed;
    }
  }
  times->total_s = Now() - start;
  return true;
}

// ---------------------------------------------------------------------------
// Output.

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.12g",
                    std::isfinite(e.value) ? e.value : 0.0);
      out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

  void Print(const char* prefix) const {
    for (const Entry& e : entries_) {
      std::printf("%s %s = %.6g %s\n", prefix, e.name.c_str(), e.value,
                  e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// The three per-query times of a phase's completed queries.
struct Times {
  std::vector<double> ttfr, t50, total;

  explicit Times(const Phase& phase) {
    for (const Sample& s : phase.samples) {
      ttfr.push_back(s.ttfr);
      t50.push_back(s.t50);
      total.push_back(s.total);
    }
  }
};

double TotalP50(const Phase& phase) { return Median(Times(phase).total); }

// The gated metrics are tails, set-up time included: the host this
// benchmark was tuned on switches between a fast and a slow speed for
// minutes at a time, which moves medians and means by up to 1.5x between
// runs, while the slow level, which sets the tail, recurs in every run.
void AddEndToEnd(const Times& times, const std::vector<double>& setup_s,
                 Metrics* m) {
  m->Add("ttfr_tail_s", Tail(times.ttfr, kTailBeyond, "ttfr"), "s");
  m->Add("t50_tail_s", Tail(times.t50, kTailBeyond, "t50"), "s");
  m->Add("total_tail_s", Tail(times.total, kTailBeyond, "total"), "s");
  m->Add("setup_s", Tail(setup_s, kSetupBeyond, "setup"), "s");
}

// Medians, throughput and CPU of a phase: ungated diagnostics.
void AddRunMedians(const Phase& phase, const Times& times, Metrics* m) {
  const double done = static_cast<double>(phase.samples.size());
  m->Add("run.ttfr_p50_s", Median(times.ttfr), "s");
  m->Add("run.t50_p50_s", Median(times.t50), "s");
  m->Add("run.total_p50_s", Median(times.total), "s");
  m->Add("run.qps", done / phase.wall_s, "1/s");
  m->Add("run.cpu_per_query_s", done > 0 ? phase.cpu_s / done : 0.0, "s");
}

// Per-query means of the stats-accessor counts of an untraced phase.
void AddCounts(const WorkloadDef& def, const Phase& phase, Metrics* m) {
  const double q = std::max<double>(1.0, phase.samples.size());
  const ProgXeStats& s = phase.stats;
  const bool sharded = def.shards > 1;
  const bool serve = def.driver == Driver::kServe;
  m->Add("prepare.regions", s.regions_created / q, "count");
  m->Add("prepare.lookahead_pruned", s.regions_pruned_lookahead / q, "count");
  m->Add("region.join_pairs", s.join_pairs_generated / q, "count");
  m->Add("region.dominance_cmps", s.dominance_comparisons / q, "count");
  m->Add("region.processed", s.regions_processed / q, "count");
  m->Add("region.discarded", s.regions_discarded_runtime / q, "count");
  m->Add("region.results", s.results_emitted / q, "count");
  m->Add("region.results_per_kpair",
         s.join_pairs_generated > 0
             ? 1000.0 * s.results_emitted / s.join_pairs_generated
             : 0.0,
         "ratio");
  m->Add("region.early_frac",
         s.results_emitted > 0
             ? static_cast<double>(s.results_emitted_early) / s.results_emitted
             : 0.0,
         "ratio");
  m->Add("shard.merge_cmps", sharded ? phase.merge_cmps / q : 0.0, "count");
  m->Add("shard.held_peak", static_cast<double>(phase.held_peak), "count");
  const progxe::SchedulerStats& sc = phase.sched;
  m->Add("sched.slice_p50_us",
         serve ? static_cast<double>(sc.SliceLatencyQuantileUs(0.5)) : 0.0,
         "us");
  m->Add("sched.slice_p99_us",
         serve ? static_cast<double>(sc.SliceLatencyQuantileUs(0.99)) : 0.0,
         "us");
  m->Add("sched.slices", sc.slices / q, "count");
  m->Add("sched.pairs_per_slice",
         sc.slices > 0 ? static_cast<double>(sc.sliced_pairs) / sc.slices
                       : 0.0,
         "count");
  const uint64_t lookups = sc.prepare_hits + sc.prepare_misses;
  m->Add("cache.hit_ratio",
         lookups > 0 ? static_cast<double>(sc.prepare_hits) / lookups : 0.0,
         "ratio");
  m->Add("cache.evictions", sc.prepare_evictions / q, "count");
  m->Add("mem.peak_rss_mb", phase.peak_rss_mb, "MB");
}

// The net layer, from the traced phase over loopback workers (all zero
// when there was none). Span times are the coordinator's side of each
// connection: a worker's recv span also covers the idle wait for its next
// request.
void AddNetLayer(const Phase* over_net, const TraceFold& fold,
                 const RemoteWorkers& remote, Metrics* m) {
  const double q = over_net != nullptr
                       ? std::max<double>(1.0, over_net->samples.size())
                       : 1.0;
  auto caller = [&](const char* name) {
    return fold.SelfSeconds(name, /*driver_only=*/true) / q;
  };
  m->Add("net.wait_s", caller("net.wait_watermark"), "s");
  m->Add("net.send_s", caller("net.send"), "s");
  m->Add("net.recv_s", caller("net.recv"), "s");
  const progxe::NetStatsSnapshot n =
      over_net != nullptr ? over_net->net : progxe::NetStatsSnapshot();
  m->Add("net.rpcs", n.rtt_count / q, "count");
  m->Add("net.bytes_sent", n.bytes_sent / q, "B");
  m->Add("net.bytes_received", n.bytes_received / q, "B");
  m->Add("net.frames", (n.frames_sent + n.frames_received) / q, "count");
  m->Add("net.rtt_mean_us", n.rtt_count > 0 ? n.rtt_sum_us / n.rtt_count : 0.0,
         "us");
  m->Add("net.connections",
         remote.pool != nullptr
             ? static_cast<double>(remote.pool->connections_created())
             : 0.0,
         "count");
}

// Per-query self times of the traced phase, plus the trace-derived
// queue wait and the unattributed remainder.
void AddLayerTimes(const WorkloadDef& def, const Phase& traced,
                   const TraceFold& fold, Metrics* m) {
  const double q = std::max<double>(1.0, traced.samples.size());
  const bool stream = def.driver == Driver::kStream;
  const bool sharded = def.shards > 1;
  auto self = [&](const char* name) { return fold.SelfSeconds(name) / q; };
  m->Add("prepare.open_s",
         stream ? fold.InclusiveSeconds("bench.open") / q : 0.0, "s");
  m->Add("prepare.push_through_s", self("prepare.push_through"), "s");
  m->Add("prepare.partition_s", self("prepare.partition"), "s");
  m->Add("prepare.lookahead_s", self("prepare.lookahead"), "s");
  m->Add("region.next_batch_s",
         stream ? fold.InclusiveSeconds("bench.next_batch") / q : 0.0, "s");
  m->Add("region.pick_s", self("region.pick"), "s");
  m->Add("region.pipeline_s",
         self("region.pipeline") + self("pipeline.chunk"), "s");
  m->Add("region.flush_s", self("region.flush"), "s");
  m->Add("region.discard_s", self("region.discard"), "s");
  m->Add("shard.pump_s", self("shard.pump"), "s");
  m->Add("shard.merge_s", self("shard.merge"), "s");
  m->Add("shard.release_s", self("shard.release"), "s");
  m->Add("shard.unattributed_s", sharded ? self("bench.next_batch") : 0.0,
         "s");
  double wait_s = 0.0;
  size_t waits = 0;
  const auto& admits = fold.Tagged("sched.admit");
  for (const auto& [query, submit_ns] : fold.Tagged("bench.submit")) {
    const auto it = admits.find(query);
    if (it == admits.end()) continue;
    wait_s += 1e-9 * static_cast<double>(it->second - submit_ns);
    ++waits;
  }
  m->Add("sched.queue_wait_s", waits > 0 ? wait_s / waits : 0.0, "s");
  // Time on the thread driving a query that no reported layer metric
  // covers, including prepare's own work outside the reported sub-spans.
  double unattributed = self("prepare.build") + self("prepare.sigma");
  if (stream) {
    unattributed += self("bench.query") + self("bench.open") +
                    (sharded ? 0.0 : self("bench.next_batch"));
  } else {
    unattributed += self("sched.slice");
  }
  m->Add("unattributed_s", unattributed, "s");
}

// One line, read by run.py to compare runs of the same seed: each count
// per pooled input (null for an input this run did not reach). The RPC
// count comes from the queries over loopback workers.
void PrintCounts(const CountBook& book, const CountBook& net_book,
                 const progxe::SchedulerStats& warmup) {
  struct Field {
    const char* name;
    uint64_t WorkCounts::*member;
    const CountBook* from;
  };
  const Field fields[] = {
      {"join_pairs", &WorkCounts::join_pairs, &book},
      {"dominance_cmps", &WorkCounts::dominance_cmps, &book},
      {"regions_processed", &WorkCounts::regions_processed, &book},
      {"regions_discarded", &WorkCounts::regions_discarded, &book},
      {"results", &WorkCounts::results, &book},
      {"merge_cmps", &WorkCounts::merge_cmps, &book},
      {"net_rpcs", &WorkCounts::net_rpcs, &net_book},
  };
  std::string line = "counts {";
  for (const Field& field : fields) {
    line += "\"" + std::string(field.name) + "\": [";
    const auto& first = field.from->first;
    for (size_t i = 0; i < first.size(); ++i) {
      if (i > 0) line += ", ";
      line += first[i].has_value() ? std::to_string((*first[i]).*field.member)
                                   : std::string("null");
    }
    line += "], ";
  }
  line += "\"warmup_cache_hits\": " + std::to_string(warmup.prepare_hits) +
          ", \"warmup_cache_misses\": " +
          std::to_string(warmup.prepare_misses) + "}";
  std::printf("%s\n", line.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

Phase RunPhase(const WorkloadDef& def, Env& env,
               const std::vector<IdSet>& refs, double seconds,
               const ShardOptions& shards, Cursor* cursor, CountBook* book,
               TraceFold* fold) {
  return def.driver == Driver::kServe
             ? RunServePhase(env, refs, seconds, cursor, book)
             : RunStreamPhase(env, refs, seconds, shards, cursor, book, fold);
}

// The per-query cost of checkpoint export on a sharded stream, untraced.
// Each input is queried twice in a row, with the default options into
// `with` and with ShardOptions::checkpoint_retry=false into `without`, in
// alternating order, so that both sides of a pair see the same host speed.
// Returns the median of the paired differences of total time.
double PairedCheckpointSeconds(const Env& env, const std::vector<IdSet>& refs,
                               double seconds, Cursor* cursor,
                               CountBook* book, Phase* with, Phase* without) {
  ShardOptions plain = env.shard_options;
  plain.checkpoint_retry = false;
  std::vector<double> diffs;
  const double start = Now();
  for (size_t pair = 0; Now() - start < seconds; ++pair) {
    const size_t input = cursor->next_input++ % env.pool.size();
    double totals[2] = {-1.0, -1.0};  // with, without
    for (int k = 0; k < 2; ++k) {
      const bool checkpoint = (k == 0) == (pair % 2 == 0);
      Phase* side = checkpoint ? with : without;
      ++side->attempted;
      if (!StreamQuery(env, input, refs[input],
                       checkpoint ? env.shard_options : plain, side, book)) {
        ++side->failed;
        continue;
      }
      totals[checkpoint ? 0 : 1] = side->samples.back().total;
    }
    if (totals[0] >= 0.0 && totals[1] >= 0.0) {
      diffs.push_back(totals[0] - totals[1]);
    }
  }
  return Median(diffs);
}

// The traced run: an untraced phase (counts and untraced medians), a
// traced phase, and on a sharded workload a paired phase with and without
// checkpoints and a traced phase over loopback workers. The untraced and
// traced phases share the run equally; with the two sharded phases the
// shares are 25/25/20/30%.
bool RunTraced(const WorkloadDef& def, Env& env,
               const std::vector<IdSet>& refs, const Args& args,
               CountBook* book, CountBook* net_book, Metrics* metrics,
               Tally* tally) {
  const bool sharded = def.shards > 1;
  Cursor cursor(args.seed);
  auto phase = [&](double share, const ShardOptions& shards,
                   CountBook* counts, TraceFold* fold) {
    Phase done = RunPhase(def, env, refs, share * args.seconds, shards,
                          &cursor, counts, fold);
    tally->Add(done);
    return done;
  };
  const double share = sharded ? 0.25 : 0.5;
  const Phase untraced = phase(share, env.shard_options, book, nullptr);
  // Stream queries are traced one at a time (RunStreamPhase); a serve_mix
  // phase, whose queries overlap, is traced as a whole.
  TraceFold fold;
  if (def.driver == Driver::kServe) Tracing::Start(kTraceRing);
  const Phase traced = phase(share, env.shard_options, book, &fold);
  if (def.driver == Driver::kServe) {
    Tracing::Stop();
    std::string json;
    Tracing::RenderJson(&json);
    fold.Add(ParseTrace(json));
  }
  if (Tracing::dropped() > 0) {
    std::printf("warning: the trace ring dropped %llu events\n",
                static_cast<unsigned long long>(Tracing::dropped()));
  }
  double checkpoint_s = 0.0;
  RemoteWorkers remote;
  TraceFold net_fold;
  std::optional<Phase> over_net;
  if (sharded) {
    Phase with, without;
    checkpoint_s = PairedCheckpointSeconds(env, refs, 0.2 * args.seconds,
                                           &cursor, book, &with, &without);
    tally->Add(with);
    tally->Add(without);
    const double q = std::max<double>(1.0, traced.samples.size());
    std::printf(
        "shard layer per query: checkpoint %.4f s (%.0f%% of the paired "
        "total_p50 %.4f s), pump %.4f s, merge %.4f s, release %.4f s\n",
        checkpoint_s, 100.0 * checkpoint_s / TotalP50(with), TotalP50(with),
        fold.SelfSeconds("shard.pump") / q,
        fold.SelfSeconds("shard.merge") / q,
        fold.SelfSeconds("shard.release") / q);
    if (!remote.Start(env.shard_options)) return false;
    // One query first, outside the phase, so that the pool's connections
    // and their handshakes are made before it.
    Phase warmup;
    ++warmup.attempted;
    if (!StreamQuery(env, 0, refs[0], remote.shard_options, &warmup,
                     nullptr)) {
      ++warmup.failed;
    }
    tally->Add(warmup);
    over_net = phase(0.3, remote.shard_options, net_book, &net_fold);
  }
  AddLayerTimes(def, traced, fold, metrics);
  metrics->Add("shard.checkpoint_s", checkpoint_s, "s");
  AddNetLayer(over_net ? &*over_net : nullptr, net_fold, remote, metrics);
  AddRunMedians(untraced, Times(untraced), metrics);
  AddCounts(def, untraced, metrics);
  const double untraced_p50 = TotalP50(untraced);
  metrics->Add(
      "trace.overhead_frac",
      untraced_p50 > 0 ? TotalP50(traced) / untraced_p50 - 1.0 : 0.0,
      "ratio");
  return true;
}

int Run(const Args& args) {
  const std::vector<WorkloadDef> defs = Workloads();
  const auto def_it =
      std::find_if(defs.begin(), defs.end(), [&](const WorkloadDef& d) {
        return args.workload == d.name;
      });
  if (def_it == defs.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadDef& def = *def_it;
  // Per-shard open lines of the loopback workers would flood stderr.
  progxe::SetLogLevel(progxe::LogLevel::kWarn);
  std::printf("workload %s seed %llu seconds %g trace %d\n", def.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::fflush(stdout);  // the reference child must not inherit buffered text

  // References first, while the process has no threads to fork around.
  std::vector<IdSet> refs;
  {
    Pool pool;
    if (!MakePool(def, args.seed, &pool) ||
        !ComputeReferences(def, pool, &refs)) {
      std::fprintf(stderr, "reference computation failed\n");
      return 1;
    }
  }
  const double host_before = HostReferenceSeconds();

  std::vector<double> setup_s, generate_s;
  progxe::SchedulerStats warmup_sched;
  Tally tally;
  // One timed set-up into a fresh `*env`; false if the inputs cannot be
  // made.
  auto set_up = [&](Env* env) {
    SetupTimes times;
    Phase warmup;
    if (!Setup(def, args.seed, refs, env, &times, &warmup, &warmup_sched)) {
      std::fprintf(stderr, "set-up failed\n");
      return false;
    }
    tally.Add(warmup);
    setup_s.push_back(times.total_s);
    generate_s.push_back(times.generate_s);
    return true;
  };
  auto env_owner = std::make_unique<Env>();
  if (!set_up(env_owner.get())) return 1;
  for (int rep = 1; args.trace == 1 && rep < kTracedSetupReps; ++rep) {
    env_owner.reset();  // tear the previous set-up down before timing anew
    env_owner = std::make_unique<Env>();
    if (!set_up(env_owner.get())) return 1;
  }
  Env& env = *env_owner;

  CountBook book;
  CountBook net_book;
  book.first.resize(def.pool.size());
  net_book.first.resize(def.pool.size());
  Metrics metrics;
  Metrics counts;
  if (args.trace == 0) {
    // The timed phase in segments, each followed by a set-up of a fresh
    // environment that is torn down before the next segment.
    Cursor cursor(args.seed);
    Phase phase;
    const int segments = kSetupReps - 1;
    for (int seg = 0; seg < segments; ++seg) {
      Merge(RunPhase(def, env, refs, args.seconds / segments,
                     env.shard_options, &cursor, &book, nullptr),
            &phase);
      Env probe;
      if (!set_up(&probe)) return 1;
    }
    tally.Add(phase);
    std::printf("setup_s samples:");
    for (const double t : setup_s) std::printf(" %.4f", t);
    std::printf("\n");
    const Times times(phase);
    AddEndToEnd(times, setup_s, &metrics);
    AddRunMedians(phase, times, &counts);
    AddCounts(def, phase, &counts);
  } else {
    metrics.Add("data.generate_s", Median(generate_s), "s");
    if (!RunTraced(def, env, refs, args, &book, &net_book, &metrics,
                   &tally)) {
      return 1;
    }
  }
  const double host_ref = 0.5 * (host_before + HostReferenceSeconds());
  if (args.trace == 1) metrics.Add("host.ref_s", host_ref, "s");

  counts.Print("layer");
  std::printf("host.ref_s = %.6g s\n", host_ref);
  PrintCounts(book, net_book, warmup_sched);
  metrics.Print("metric");
  const bool correct = tally.failed == 0 && book.mismatches == 0 &&
                       net_book.mismatches == 0 && tally.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <solo_anti|sharded_k4|serve_mix> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
