#include "shard/sharded_stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/parse_number.h"
#include "common/stopwatch.h"
#include "mapping/interval.h"
#include "net/remote_shard.h"
#include "net/worker_pool.h"
#include "obs/trace.h"
#include "prefs/dominance.h"
#include "progxe/prepare.h"

namespace progxe {

ProgXeStream::~ProgXeStream() = default;

ShardCoverage ProgXeStream::coverage() const {
  // Base implementation for single-instance streams: one sub-stream,
  // completed iff it drained healthy. Always complete() — partial coverage
  // is a sharded-stream concept.
  ShardCoverage cov;
  cov.shards = 1;
  cov.completed = Finished() && last_status().ok() ? 1 : 0;
  return cov;
}

std::string ShardCoverage::ToString() const {
  std::ostringstream os;
  os << completed << "/" << shards << " shards";
  if (remote > 0) os << " remote=" << remote;
  if (retries > 0) os << " retries=" << retries;
  if (abandoned > 0) {
    os << " abandoned=[";
    for (size_t i = 0; i < abandoned_shards.size(); ++i) {
      os << (i == 0 ? "" : ",") << abandoned_shards[i];
    }
    os << "]";
  }
  return os.str();
}

namespace {

/// Per-attribute value hull of a relation (empty vector for an empty one).
std::vector<Interval> AttributeHull(const Relation& rel) {
  std::vector<Interval> hull;
  if (rel.empty()) return hull;
  const int width = rel.num_attributes();
  hull.reserve(static_cast<size_t>(width));
  for (int a = 0; a < width; ++a) {
    hull.push_back(Interval::Point(rel.attr(0, a)));
  }
  for (size_t i = 1; i < rel.size(); ++i) {
    for (int a = 0; a < width; ++a) {
      Interval& iv = hull[static_cast<size_t>(a)];
      const double v = rel.attr(static_cast<RowId>(i), a);
      iv.lo = std::min(iv.lo, v);
      iv.hi = std::max(iv.hi, v);
    }
  }
  return hull;
}

/// Merge-grid resolution: a fixed ~60K-cell budget, so the accepted-frontier
/// index stays cache-resident. Deliberately not the engine's work-modelled
/// output grid (prepare.cc): this grid indexes accepted results, not region
/// coverage, so there is no per-cell bookkeeping for a coarser grid to save.
int MergeCellsPerDim(int k) { return AutoCellsPerDim(k, 60000.0, 4, 24); }

/// Unbudgeted pumps a healthy shard may have in flight ahead of the merge.
constexpr int kRunAhead = 2;

/// The process-wide pool every ShardedStream runs its shard prepares and
/// pumps on: at most hardware_concurrency threads, started as work arrives
/// and kept for the process lifetime. Concurrent streams (a QueryScheduler
/// serving several sharded queries) share these cores instead of each
/// starting threads of its own. Tasks run FIFO and never wait on other
/// tasks, so the queue cannot deadlock; a stream waits for its own tasks
/// before it goes away.
class ShardWorkPool {
 public:
  static ShardWorkPool& Shared() {
    // Never destroyed: its detached threads outlive static destruction.
    static ShardWorkPool* const pool = new ShardWorkPool();
    return *pool;
  }

  void Submit(std::function<void()> task) {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    if (tasks_.size() > idle_ && threads_ < max_threads_) {
      ++threads_;
      std::thread(&ShardWorkPool::Loop, this).detach();
    }
    cv_.notify_one();
  }

 private:
  ShardWorkPool()
      : max_threads_(std::max(1u, std::thread::hardware_concurrency())) {}

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      ++idle_;
      cv_.wait(lock, [this] { return !tasks_.empty(); });
      --idle_;
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task();
      task = nullptr;
      lock.lock();
    }
  }

  const size_t max_threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  size_t threads_ = 0;
  size_t idle_ = 0;
};

/// Half-width of the retry backoff jitter, as a fraction of the backoff.
constexpr double kRetryJitter = 0.25;

/// splitmix64 finalizer (same mixer as shard_planner's key hash).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::chrono::nanoseconds JitteredRetryBackoff(const ShardOptions& opts,
                                              uint64_t seed, int shard,
                                              int consecutive_failures) {
  const int exp = std::min(std::max(consecutive_failures, 1) - 1, 6);
  const auto base = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        opts.retry_backoff) *
                    (1 << exp);
  if (base.count() == 0) return base;
  // One uniform draw in [0, 1) per (seed, shard, attempt) triple; the top
  // 53 bits give an exact double.
  const uint64_t h =
      Mix64(seed ^ Mix64(static_cast<uint64_t>(shard) * 0x9e3779b97f4a7c15ULL +
                         static_cast<uint64_t>(consecutive_failures)));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double factor = 1.0 + kRetryJitter * (2.0 * u - 1.0);
  return std::chrono::nanoseconds(static_cast<int64_t>(
      std::llround(static_cast<double>(base.count()) * factor)));
}

Result<std::unique_ptr<ShardedStream>> ShardedStream::Open(
    const SkyMapJoinQuery& query, ProgXeOptions options,
    const ShardOptions& shard_options) {
  if (query.r == nullptr || query.t == nullptr) {
    // The planner reads the sources before any per-shard PreparePhase
    // validation could reject them; keep parity with the unsharded path.
    return Status::InvalidArgument("query sources must be non-null");
  }
  std::unique_ptr<ShardedStream> stream(new ShardedStream());
  stream->cap_ = options.max_results;
  stream->query_ = query;
  stream->shard_options_ = shard_options;
  if (const char* env = std::getenv("PROGXE_FAULT_RETRIES")) {
    // Soak override: a randomized ambient fault schedule must not exhaust
    // the per-test retry budget, or every suite would need fault-aware
    // options. Only ever raises the budget. A malformed value aborts like a
    // malformed PROGXE_FAULT_SITES: a soak must not run a different budget
    // than it asked for.
    int retries = 0;
    if (!ParseI32(env, &retries) || retries < 0) {
      std::fprintf(stderr,
                   "fatal: PROGXE_FAULT_RETRIES: '%s' is not a non-negative "
                   "integer\n",
                   env);
      std::abort();
    }
    stream->shard_options_.max_retries =
        std::max(stream->shard_options_.max_retries, retries);
  }
  // The cap is a property of the merged stream: a shard must not stop at
  // max_results of its *local* skyline, which is unrelated to the first
  // max_results global results.
  stream->sub_options_ = std::move(options);
  stream->sub_options_.max_results = 0;
  stream->faults_ = stream->sub_options_.faults != nullptr
                        ? stream->sub_options_.faults.get()
                        : FaultInjector::FromEnv();
  if (!stream->shard_options_.workers.empty()) {
    stream->pool_ = stream->shard_options_.worker_pool != nullptr
                        ? stream->shard_options_.worker_pool
                        : std::make_shared<WorkerPool>();
  }

  std::vector<QueryShard> slices =
      PlanShards(*query.r, *query.t, shard_options.num_shards);
  // Sessions point into their slice's relations, so every slice must sit at
  // its final address before any session opens: reserve + move all slices
  // in first, and never resize shards_ afterwards.
  stream->shards_.reserve(slices.size());
  for (QueryShard& slice : slices) {
    stream->shards_.emplace_back();
    stream->shards_.back().slice = std::move(slice);
  }
  // The shard.open draws stay on the coordinator, in shard order; the
  // prepares they let through run concurrently on the shared pool.
  std::vector<Status> opened(stream->shards_.size());
  size_t preparing = 0;
  for (size_t i = 0; i < opened.size(); ++i) {
    opened[i] = MaybeInjectFault(stream->faults_, fault_sites::kShardOpen,
                                 static_cast<int>(i));
    if (!opened[i].ok()) continue;
    ShardedStream* self = stream.get();
    {
      std::lock_guard<std::mutex> lock(self->mu_);
      ++preparing;
    }
    ShardWorkPool::Shared().Submit([self, &opened, &preparing, i] {
      Status st = self->OpenEngine(i);
      std::lock_guard<std::mutex> done(self->mu_);
      opened[i] = std::move(st);
      --preparing;
      self->done_cv_.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(stream->mu_);
    stream->done_cv_.wait(lock, [&] { return preparing == 0; });
  }
  for (size_t i = 0; i < opened.size(); ++i) {
    if (opened[i].ok()) {
      stream->AdoptOpened(i);
      continue;
    }
    // Validation runs per shard before the empty-source short-circuit, so
    // an invalid query fails here even when every shard is empty. A
    // non-retryable open failure (validation) fails Open itself; a
    // retryable one is a containable fault even here — quarantine the
    // shard and let the pump retry it, unless the budget is already gone.
    if (!IsRetryableStatusCode(opened[i].code())) return opened[i];
    stream->OnShardFailure(i, std::move(opened[i]));
    if (stream->failed_) return stream->status_;
  }
  stream->mapper_ = CanonicalMapper(query.map, query.pref);
  stream->k_ = stream->mapper_.output_dimensions();

  // Canonical output hull for the accepted-frontier index: interval
  // arithmetic over the full attribute boxes, exactly the enclosure the
  // look-ahead uses per input partition. Every canonical output lands
  // inside it; and since the index only relies on quantization
  // monotonicity, even an edge clamp could not cost correctness.
  const size_t kk = static_cast<size_t>(stream->k_);
  std::vector<Interval> out_hull(kk, Interval(0.0, 0.0));
  const std::vector<Interval> r_hull = AttributeHull(*query.r);
  const std::vector<Interval> t_hull = AttributeHull(*query.t);
  if (!r_hull.empty() && !t_hull.empty()) {
    std::vector<Interval> r_contrib(kk);
    std::vector<Interval> t_contrib(kk);
    stream->mapper_.ContributionBounds(Side::kR, r_hull, r_contrib.data());
    stream->mapper_.ContributionBounds(Side::kT, t_hull, t_contrib.data());
    stream->mapper_.CombineBounds(r_contrib.data(), t_contrib.data(),
                                  out_hull.data());
  }
  const int cpd = MergeCellsPerDim(stream->k_);
  stream->merge_grid_ = GridGeometry(std::move(out_hull), cpd);
  stream->accepted_ = DominanceIndex(stream->k_, cpd);
  stream->canon_scratch_.resize(kk);
  stream->coord_scratch_.resize(kk);

  // Shards that prepared to provably-empty joins constrain nothing.
  stream->RefreshBoundsAndRelease();
  return stream;
}

ShardedStream::~ShardedStream() { Close(); }

bool ShardedStream::AllExhausted() const {
  for (const SubShard& shard : shards_) {
    if (!shard.exhausted && !shard.abandoned) return false;
  }
  return true;
}

Status ShardedStream::OpenEngine(size_t i) {
  SubShard& shard = shards_[i];
  ProgXeOptions opts = sub_options_;
  opts.fault_instance = static_cast<int>(i);
  if (pool_ != nullptr) {
    // Remote shard: ship the slice to a worker. The endpoint rotates with
    // the shard's incarnation, so a retry after a worker failure re-opens
    // on a *different* engine (the dead worker's endpoint comes around
    // again only after every alternative was tried) — and endpoints the
    // circuit breaker has sidelined are skipped while any alternative is
    // closed, so a dead worker stops eating whole connect timeouts per
    // retry. When every circuit is open the rotation's original pick goes
    // through as the half-open probe. The worker runs a plain ProgXeSession
    // over the identical slice + options, so the replayed local skyline —
    // and therefore the merged delivered set — is bit-identical to the
    // in-process run.
    const std::vector<std::string>& workers = shard_options_.workers;
    size_t pick =
        (i + static_cast<size_t>(shard.incarnation)) % workers.size();
    for (size_t probe = 0; probe < workers.size(); ++probe) {
      const size_t cand = (pick + probe) % workers.size();
      if (!pool_->IsOpen(workers[cand])) {
        pick = cand;
        break;
      }
    }
    const std::string& endpoint = workers[pick];
    ++shard.incarnation;
    PROGXE_ASSIGN_OR_RETURN(
        shard.session,
        RemoteShardStream::Open(pool_, endpoint, static_cast<int>(i),
                                shard.slice.r, shard.slice.t, query_.map,
                                query_.pref, opts));
  } else {
    ++shard.incarnation;
    if (shard.prepared != nullptr) {
      // Retry re-open: adopt the first incarnation's prepared state instead
      // of re-running the prepare phase over the slice.
      PROGXE_ASSIGN_OR_RETURN(
          std::unique_ptr<ProgXeSession> session,
          ProgXeSession::OpenPrepared(shard.prepared, std::move(opts)));
      shard.session = std::make_unique<LocalShardEngine>(std::move(session));
    } else {
      PROGXE_ASSIGN_OR_RETURN(
          std::unique_ptr<ProgXeSession> session,
          ProgXeSession::Open(shard.slice.Query(query_), std::move(opts)));
      shard.session = std::make_unique<LocalShardEngine>(std::move(session));
      if (shard_options_.max_retries > 0) {
        // Capture for possible re-opens. The prepared state aliases the
        // slice's relations (which live in shards_ for the stream's
        // lifetime), so sharing it across incarnations is safe.
        shard.prepared = shard.session->prepared_inputs();
      }
    }
  }
  return Status::OK();
}

void ShardedStream::AdoptOpened(size_t i) {
  SubShard& shard = shards_[i];
  const ShardEngine& engine = *shard.session;
  // The loop's set-up (coverage build, initial ranks) ran in the open;
  // pumps add their own deltas.
  coverage_cells_walked_ += engine.coverage_cells_walked();
  shard.applied_stats = engine.stats();
  shard.applied_exhausted = !engine.RemainingLowerBound(&shard.applied_bound);
  if (const std::shared_ptr<const PreparedInputs> prepared =
          engine.prepared_inputs()) {
    shard.output_cells_per_dim = prepared->resolved_output_cells_per_dim;
  }
}

std::vector<int> ShardedStream::output_cells_per_dim() const {
  std::vector<int> cells;
  cells.reserve(shards_.size());
  for (const SubShard& shard : shards_) {
    cells.push_back(shard.output_cells_per_dim);
  }
  return cells;
}

void ShardedStream::OnShardFailure(size_t i, Status status) {
  assert(!status.ok());
  SubShard& shard = shards_[i];
  Quiesce(i);
  if (shard.session != nullptr) {
    // The incarnation is dead but its applied work happened: fold its
    // counters into the shard's lost tally before dropping it (reset joins
    // any workers).
    shard.lost_stats.Accumulate(shard.applied_stats);
    shard.applied_stats = ProgXeStats{};
    shard.session.reset();
  }
  shard.last_error = status;
  ++shard.consecutive_failures;
  if (IsRetryableStatusCode(status.code()) &&
      shard.consecutive_failures <= shard_options_.max_retries) {
    // Quarantine: only this shard stops; everyone else keeps pumping and
    // releasing against its frozen pre-failure bound. Exponential backoff
    // (capped at 64x so a long retry fight stays responsive) with seeded
    // ±25% jitter so simultaneously-sick shards desynchronize.
    const std::chrono::nanoseconds backoff = JitteredRetryBackoff(
        shard_options_, sub_options_.seed, static_cast<int>(i),
        shard.consecutive_failures);
    shard.next_attempt = Clock::now() + backoff;
    shard.replayed = true;
    const int64_t backoff_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(backoff).count();
    TraceInstant(trace_cats::kShard, "shard.retry_backoff", "shard",
                 static_cast<int64_t>(i), "backoff_ms", backoff_ms);
    PROGXE_LOG(Warn) << "shard " << i << " quarantined (failure "
                     << shard.consecutive_failures << "/"
                     << shard_options_.max_retries << ", retry in "
                     << backoff_ms << "ms): " << status.ToString();
    return;
  }
  if (shard_options_.allow_partial) {
    // Degrade: drop the shard from the merge like an exhausted one. Its
    // already-delivered results stand (they are true skyline members); the
    // rest of the stream completes as the skyline of the data actually
    // observed, and coverage() reports the hole.
    shard.abandoned = true;
    std::unordered_set<uint64_t>().swap(shard.ingested);
    bounds_dirty_ = true;  // its bound no longer constrains releases
    TraceInstant(trace_cats::kShard, "shard.abandon", "shard",
                 static_cast<int64_t>(i));
    PROGXE_LOG(Warn) << "shard " << i
                     << " abandoned after retry exhaustion (allow_partial): "
                     << status.ToString();
    return;
  }
  PROGXE_LOG(Error) << "shard " << i
                    << " out of retries; failing the stream: "
                    << status.ToString();
  FailStream(std::move(status));
}

void ShardedStream::FailStream(Status status) {
  assert(!status.ok());
  failed_ = true;
  status_ = std::move(status);
  // Close (not reset) the surviving sessions so stats() stays readable;
  // dead incarnations are already folded into lost_stats.
  Shutdown();
  ReleaseMergeState();
  ready_.clear();
  ready_pos_ = 0;
}

ShardedStream::Clock::time_point ShardedStream::NextRetryAt() const {
  Clock::time_point next = Clock::time_point::max();
  for (const SubShard& shard : shards_) {
    if (shard.exhausted || shard.abandoned || shard.session != nullptr) {
      continue;
    }
    next = std::min(next, shard.next_attempt);
  }
  return next;
}

void ShardedStream::Issue(size_t i, size_t max_pairs) {
  SubShard& shard = shards_[i];
  assert(shard.session != nullptr);
  ++shard.in_flight;
  std::lock_guard<std::mutex> lock(mu_);
  shard.requests.push_back(max_pairs);
  if (!shard.pumping && !shard.halted) {
    shard.pumping = true;
    ShardWorkPool::Shared().Submit([this, i] { RunChain(i); });
  }
}

void ShardedStream::TopUp(size_t i) {
  SubShard& shard = shards_[i];
  while (shard.session != nullptr && !shard.applied_exhausted &&
         shard.in_flight < kRunAhead) {
    Issue(i, 0);
  }
}

void ShardedStream::RunChain(size_t i) {
  SubShard& shard = shards_[i];
  std::unique_lock<std::mutex> lock(mu_);
  while (!shard.requests.empty() && !shard.halted) {
    const size_t max_pairs = shard.requests.front();
    shard.requests.pop_front();
    PumpResult result;
    if (!shard.spare.empty()) {
      result = std::move(shard.spare.back());
      shard.spare.pop_back();
    }
    lock.unlock();
    PumpOnce(i, max_pairs, &result);
    lock.lock();
    // Nothing runs after a failed or exhausting pump: the coordinator
    // stops at its result, so later requests would pump a dead or drained
    // engine.
    shard.halted = !result.status.ok() || result.exhausted;
    shard.results.push_back(std::move(result));
    done_cv_.notify_all();
  }
  shard.requests.clear();
  shard.pumping = false;
  done_cv_.notify_all();
}

void ShardedStream::PumpOnce(size_t i, size_t max_pairs, PumpResult* result) {
  ShardEngine& engine = *shards_[i].session;
  // `result` may be a recycled one: every field is rewritten, and the
  // vectors keep their capacity.
  result->coverage_cells = 0;
  result->exhausted = false;
  const uint64_t before = engine.stats().join_pairs_generated;
  const uint64_t walked_before = engine.coverage_cells_walked();
  {
    TraceSpan span(trace_cats::kShard, "shard.pump");
    span.arg("shard", static_cast<int64_t>(i));
    engine.NextBatch(/*max_results=*/0, max_pairs, &result->tuples);
    result->stats = engine.stats();
    result->pairs = result->stats.join_pairs_generated - before;
    span.arg("pairs", static_cast<int64_t>(result->pairs));
  }
  // Engine-level failures (the "session.next_batch" site) surface through
  // the sub-session's own error channel. A failed pump tore its loop down,
  // counter included; its work is dropped from the tally.
  result->status = engine.last_status();
  if (!result->status.ok()) return;
  result->coverage_cells = engine.coverage_cells_walked() - walked_before;
  result->exhausted = !engine.RemainingLowerBound(&result->bound);
}

ShardedStream::PumpResult ShardedStream::Take(size_t i) {
  SubShard& shard = shards_[i];
  assert(shard.in_flight > 0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&shard] { return !shard.results.empty(); });
  PumpResult result = std::move(shard.results.front());
  shard.results.pop_front();
  --shard.in_flight;
  return result;
}

void ShardedStream::Recycle(size_t i, PumpResult result) {
  SubShard& shard = shards_[i];
  std::lock_guard<std::mutex> lock(mu_);
  if (shard.spare.size() < kRunAhead) shard.spare.push_back(std::move(result));
}

void ShardedStream::Quiesce(size_t i) {
  SubShard& shard = shards_[i];
  std::unique_lock<std::mutex> lock(mu_);
  shard.requests.clear();
  done_cv_.wait(lock, [&shard] { return !shard.pumping; });
  shard.results.clear();
  shard.halted = false;
  shard.in_flight = 0;
}

void ShardedStream::Shutdown() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Quiesce(i);
    if (shards_[i].session != nullptr) shards_[i].session->Close();
  }
}

void ShardedStream::Apply(size_t i, PumpResult* result) {
  SubShard& shard = shards_[i];
  shard.applied_stats = result->stats;
  if (PROGXE_PREDICT_FALSE(!result->status.ok())) {
    OnShardFailure(i, std::move(result->status));
    return;
  }
  shard.consecutive_failures = 0;  // a healthy pump re-arms the budget
  coverage_cells_walked_ += result->coverage_cells;
  shard.applied_exhausted = result->exhausted;
  std::swap(shard.applied_bound, result->bound);
  Ingest(i, result->tuples);
}

uint64_t ShardedStream::PumpRound(size_t per_shard) {
  const bool run_ahead = per_shard == 0;
  // Issue first, so every shard works while the coordinator applies.
  // A shard with pumps still in flight (run ahead by an earlier
  // unbudgeted call) applies those instead.
  for (size_t i = 0; i < shards_.size(); ++i) {
    const SubShard& shard = shards_[i];
    if (shard.exhausted || shard.abandoned || shard.session == nullptr) {
      continue;
    }
    if (shard.in_flight == 0) Issue(i, per_shard);
    if (run_ahead) TopUp(i);
  }
  uint64_t used = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    SubShard& shard = shards_[i];
    if (shard.exhausted || shard.abandoned) continue;
    if (shard.session == nullptr) {
      // Quarantined. Re-open once the backoff expires; the replay is
      // idempotent (see Ingest), so the re-opened incarnation simply runs
      // from the start.
      if (Clock::now() < shard.next_attempt) continue;
      ++total_retries_;
      Status reopened = MaybeInjectFault(faults_, fault_sites::kShardOpen,
                                         static_cast<int>(i));
      if (reopened.ok()) reopened = OpenEngine(i);
      if (!reopened.ok()) {
        OnShardFailure(i, std::move(reopened));
        if (failed_) return used;
        continue;
      }
      AdoptOpened(i);
      Issue(i, per_shard);
      if (run_ahead) TopUp(i);
    }
    // The coordinator's shard.next_batch draw, one per applied pump in
    // apply order. A fired fault kills the incarnation: its pumps in
    // flight are waited out and dropped with it.
    Status fault = MaybeInjectFault(faults_, fault_sites::kShardNextBatch,
                                    static_cast<int>(i));
    if (PROGXE_PREDICT_FALSE(!fault.ok())) {
      OnShardFailure(i, std::move(fault));
      if (failed_) return used;
      continue;
    }
    PumpResult result = Take(i);
    used += result.pairs;
    Apply(i, &result);
    if (failed_) return used;
    Recycle(i, std::move(result));
    if (run_ahead) TopUp(i);
  }
  return used;
}

void ShardedStream::DropAccepted(int32_t acc_id) {
  accepted_.Remove(acc_pos_[static_cast<size_t>(acc_id)]);
  acc_pos_[static_cast<size_t>(acc_id)] = -1;
  const int32_t h = acc_held_[static_cast<size_t>(acc_id)];
  // Released entries are unreachable here: their release proved no live
  // shard could dominate them, and any later arrival is such a tuple.
  assert(h >= 0 && "a released candidate can never be dominated");
  acc_held_[static_cast<size_t>(acc_id)] = -1;
  const size_t last = held_.size() - 1;
  if (static_cast<size_t>(h) != last) {
    held_[static_cast<size_t>(h)] = std::move(held_[last]);
    acc_held_[static_cast<size_t>(held_[static_cast<size_t>(h)].acc_id)] = h;
  }
  held_.pop_back();
}

void ShardedStream::Ingest(size_t shard_idx,
                           const std::vector<ResultTuple>& batch) {
  if (batch.empty()) return;
  Stopwatch watch;
  TraceSpan span(trace_cats::kShard, "shard.merge");
  span.arg("shard", static_cast<int64_t>(shard_idx));
  span.arg("batch", static_cast<int64_t>(batch.size()));
  SubShard& owner = shards_[shard_idx];
  const QueryShard& slice = owner.slice;
  // Replay dedup is only needed when a re-open can happen at all.
  const bool track_replay = shard_options_.max_retries > 0;
  const size_t k = static_cast<size_t>(k_);
  for (const ResultTuple& local : batch) {
    const RowId orig_r = slice.r_orig_ids[local.r_id];
    const RowId orig_t = slice.t_orig_ids[local.t_id];
    if (track_replay) {
      // Each (shard, pair) is merged at most once *ever*, across
      // incarnations. Without this, a replayed delivery would be
      // point-equal to its accepted twin — which strict dominance cannot
      // filter — and the stream would emit a duplicate. RowId is 32-bit,
      // so the pair packs losslessly.
      const uint64_t key =
          (static_cast<uint64_t>(orig_r) << 32) | static_cast<uint64_t>(orig_t);
      if (!owner.ingested.insert(key).second) continue;
    }
    double* canon = canon_scratch_.data();
    for (size_t j = 0; j < k; ++j) {
      canon[j] = mapper_.Canonicalize(static_cast<int>(j), local.values[j]);
    }
    CellCoord* coords = coord_scratch_.data();
    merge_grid_.CoordsOf(canon, coords);

    // Dominated by any accepted point (released or held, from any shard):
    // provably outside the global skyline. A dominator's canonical cell
    // must lie in the arrival's <= cone, so the cone sweep visits only the
    // real candidates instead of the whole accepted set.
    bool dominated = false;
    accepted_.SweepLe(coords, [&](size_t pos) {
      const double* a =
          acc_canon_.data() +
          static_cast<size_t>(accepted_.payload(pos)) * k;
      if (DominatesMin(a, canon, k_, &merge_counter_)) {
        dominated = true;
        return false;
      }
      return true;
    });
    if (dominated) continue;

    // The arrival may retroactively disprove held candidates' finality —
    // they were never delivered, so dropping them here is exactly the
    // merge-time re-validation (and it is what keeps the index the Pareto
    // frontier: the arrival rejects at least as much as every entry it
    // removes). Released entries cannot appear: nothing can dominate them
    // (see DropAccepted).
    accepted_.SweepGe(coords, [&](size_t pos) {
      const int32_t id = accepted_.payload(pos);
      if (DominatesMin(canon,
                       acc_canon_.data() + static_cast<size_t>(id) * k, k_,
                       &merge_counter_)) {
        DropAccepted(id);
      }
      return true;
    });

    // Admit: enter the accepted frontier and the held queue.
    const int32_t acc_id = static_cast<int32_t>(acc_pos_.size());
    acc_canon_.insert(acc_canon_.end(), canon, canon + k);
    acc_pos_.push_back(accepted_.Add(coords, acc_id));
    acc_held_.push_back(static_cast<int32_t>(held_.size()));
    Candidate candidate;
    candidate.tuple = local;
    candidate.tuple.r_id = orig_r;
    candidate.tuple.t_id = orig_t;
    candidate.shard = static_cast<int>(shard_idx);
    candidate.acc_id = acc_id;
    held_.push_back(std::move(candidate));
    held_peak_ = std::max(held_peak_, held_.size());
    accepted_.MaybeCompact([this](int32_t id, int32_t pos) {
      acc_pos_[static_cast<size_t>(id)] = pos;
    });
  }
  merge_seconds_ += watch.ElapsedSeconds();
}

bool ShardedStream::GloballyFinal(Candidate* candidate) {
  const double* canon =
      acc_canon_.data() +
      static_cast<size_t>(candidate->acc_id) * static_cast<size_t>(k_);
  // Cheapest first: the shard that blocked the last check usually still
  // does, so a still-held candidate costs one comparison per re-check. A
  // shard with an *empty* bound (quarantined before it ever published a
  // frontier) blocks everything: it may still emit anything.
  const int cached = candidate->blocker;
  if (cached >= 0) {
    const SubShard& blocker = shards_[static_cast<size_t>(cached)];
    if (!blocker.exhausted && !blocker.abandoned &&
        (blocker.bound.empty() ||
         DominatesMin(blocker.bound.data(), canon, k_, &merge_counter_))) {
      return false;
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (static_cast<int>(s) == candidate->shard ||
        static_cast<int>(s) == cached || shards_[s].exhausted ||
        shards_[s].abandoned) {
      continue;
    }
    // Every future tuple y of shard s satisfies y >= bound componentwise,
    // so y can strictly dominate the candidate only if the bound corner
    // itself does. (The candidate's own shard needs no check, replayed or
    // not: a shard's outputs are its local skyline, whose members never
    // strictly dominate each other.)
    if (shards_[s].bound.empty() ||
        DominatesMin(shards_[s].bound.data(), canon, k_, &merge_counter_)) {
      candidate->blocker = static_cast<int>(s);
      return false;
    }
  }
  return true;
}

void ShardedStream::RefreshBoundsAndRelease() {
  // A fault in the merge release pass is not attributable to any one shard,
  // so there is nothing to quarantine: it fails the stream.
  Status fault = MaybeInjectFault(faults_, fault_sites::kMergeRelease);
  if (PROGXE_PREDICT_FALSE(!fault.ok())) {
    FailStream(std::move(fault));
    return;
  }
  Stopwatch watch;
  TraceSpan span(trace_cats::kShard, "shard.release");
  const size_t ready_before = ready_.size();
  bool advanced = bounds_dirty_;
  bounds_dirty_ = false;
  for (SubShard& shard : shards_) {
    if (shard.exhausted || shard.abandoned) continue;
    // Quarantined: the pre-failure bound stays frozen. It is still valid —
    // everything the dead incarnation delivered is already merged, so the
    // shard's remaining *new* outputs are a subset of what the old frontier
    // bounded.
    if (shard.session == nullptr) continue;
    if (shard.applied_exhausted) {
      shard.exhausted = true;
      advanced = true;
      // The shard finished healthy: nothing can ever replay it, so the
      // replay-dedup set (the largest per-shard merge structure) is dead
      // weight — free it now instead of at stream teardown.
      std::unordered_set<uint64_t>().swap(shard.ingested);
    } else if (shard.bound.empty()) {
      shard.bound = shard.applied_bound;
      advanced = true;
    } else if (shard.replayed) {
      // A shard that has ever been replayed ratchets componentwise: the
      // replaying incarnation's frontier restarts below the pre-failure
      // bound while it re-covers old ground, and both bounds are valid, so
      // the effective bound is their max.
      for (size_t j = 0; j < shard.bound.size(); ++j) {
        if (shard.applied_bound[j] > shard.bound[j]) {
          shard.bound[j] = shard.applied_bound[j];
          advanced = true;
        }
      }
    } else if (shard.applied_bound != shard.bound) {
      shard.bound = shard.applied_bound;
      advanced = true;
    }
  }
  if (advanced) ++bounds_version_;
  size_t i = 0;
  while (i < held_.size()) {
    Candidate& candidate = held_[i];
    // Blocked at the current bound set already: nothing changed that could
    // unblock it, skip without comparisons. (New candidates carry version
    // 0 < bounds_version_, so they are always checked once.)
    if (candidate.checked_version == bounds_version_) {
      ++i;
      continue;
    }
    if (!GloballyFinal(&candidate)) {
      candidate.checked_version = bounds_version_;
      ++i;
      continue;
    }
    // Release: the tuple is globally final. Its index entry stays — a
    // released candidate keeps rejecting dominated arrivals forever.
    ready_.push_back(std::move(candidate.tuple));
    acc_held_[static_cast<size_t>(candidate.acc_id)] = -1;
    const size_t last = held_.size() - 1;
    if (i != last) {
      held_[i] = std::move(held_[last]);
      acc_held_[static_cast<size_t>(held_[i].acc_id)] =
          static_cast<int32_t>(i);
    }
    held_.pop_back();
    // Re-examine the swapped-in candidate at position i.
  }
  span.arg("released", static_cast<int64_t>(ready_.size() - ready_before));
  span.arg("held", static_cast<int64_t>(held_.size()));
  merge_seconds_ += watch.ElapsedSeconds();
}

size_t ShardedStream::NextBatch(size_t max_results, size_t max_pairs,
                                std::vector<ResultTuple>* out) {
  out->clear();
  if (closed_ || failed_ || CapReached()) return 0;
  if (ready_pos_ >= ready_.size()) {
    // Reclaim the delivered (moved-out) prefix before refilling.
    ready_.clear();
    ready_pos_ = 0;
  }
  size_t budget = max_pairs;
  while (ready_pos_ >= ready_.size() && !AllExhausted() && !failed_) {
    size_t runnable = 0;
    const Clock::time_point now = Clock::now();
    for (const SubShard& shard : shards_) {
      if (shard.exhausted || shard.abandoned) continue;
      if (shard.session != nullptr || now >= shard.next_attempt) ++runnable;
    }
    if (runnable == 0) {
      // Every live shard is parked in retry backoff. A budgeted call
      // yields (returns 0 with !Finished()) so a scheduler keeps checking
      // cancel/deadline between slices instead of a worker sleeping inside
      // the stream; an unbudgeted caller has nothing better to do than
      // wait out the earliest backoff.
      if (max_pairs != 0) return 0;
      std::this_thread::sleep_until(NextRetryAt());
      continue;
    }
    // Split the slice budget across the runnable shards; unbudgeted calls
    // pump each shard to its next local emission instead. Release checks
    // run once per pump batch (not per candidate): every shard first
    // ingests its whole batch, then a single refresh re-reads the frontier
    // corners and drains everything they cleared.
    const size_t per_shard =
        max_pairs == 0 ? 0 : std::max<size_t>(1, budget / runnable);
    const uint64_t used = PumpRound(per_shard);
    if (!failed_) RefreshBoundsAndRelease();
    if (failed_) break;
    if (max_pairs != 0) {
      budget = used >= budget ? 0 : budget - static_cast<size_t>(used);
      if (budget == 0) break;  // possibly a yield: nothing globally final yet
    }
  }
  if (failed_) return 0;

  size_t n = ready_.size() - ready_pos_;
  if (max_results != 0) n = std::min(n, max_results);
  if (cap_ != 0) n = std::min(n, cap_ - delivered_);
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(ready_[ready_pos_ + i]));
  }
  ready_pos_ += n;
  delivered_ += n;
  if (CapReached()) {
    // Early termination, merge-level: the remaining shard work (and the
    // held candidates) can never be delivered — drop the run-ahead pumps
    // and release the engines now.
    Shutdown();
    ReleaseMergeState();
  }
  return n;
}

void ShardedStream::ReleaseMergeState() {
  held_.clear();
  accepted_ = DominanceIndex(k_, merge_grid_.cells_per_dim());
  acc_canon_.clear();
  acc_canon_.shrink_to_fit();
  acc_pos_.clear();
  acc_held_.clear();
}

void ShardedStream::Close() {
  if (closed_) return;
  closed_ = true;
  Shutdown();
  ReleaseMergeState();
  ready_.clear();
  ready_pos_ = 0;
}

bool ShardedStream::Finished() const {
  if (closed_ || failed_ || CapReached()) return true;
  return ready_pos_ >= ready_.size() && held_.empty() && AllExhausted();
}

const ProgXeStats& ShardedStream::stats() const {
  agg_stats_ = ProgXeStats{};
  for (int i = 0; i < num_shards(); ++i) {
    agg_stats_.Accumulate(shard_stats(i));
  }
  return agg_stats_;
}

ProgXeStats ShardedStream::shard_stats(int shard) const {
  // Dead incarnations of a retried shard first, then the live one as of
  // its last applied pump.
  const SubShard& sub = shards_[static_cast<size_t>(shard)];
  ProgXeStats stats = sub.lost_stats;
  stats.Accumulate(sub.applied_stats);
  return stats;
}

ShardCoverage ShardedStream::coverage() const {
  ShardCoverage cov;
  cov.shards = static_cast<int>(shards_.size());
  cov.completed = 0;
  cov.remote = pool_ != nullptr ? cov.shards : 0;
  cov.retries = total_retries_;
  // Early termination (max_results) closes the sub-sessions before they
  // exhaust, but the delivered set is the complete requested answer: every
  // surviving shard counts as covered, exactly as on a run-to-exhaustion
  // finish. Without this a cap-finished query reported 0/K covered.
  const bool finished_early = !failed_ && CapReached();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].abandoned) {
      ++cov.abandoned;
      cov.abandoned_shards.push_back(static_cast<int>(i));
    } else if (shards_[i].exhausted || finished_early) {
      ++cov.completed;
    }
  }
  return cov;
}

Result<std::unique_ptr<ProgXeStream>> OpenProgXeStream(
    const SkyMapJoinQuery& query, ProgXeOptions options,
    const ShardOptions& shards) {
  // A worker list forces the sharded executor even at num_shards == 1: one
  // remote shard is still remote execution, and the in-process session has
  // no transport.
  if (shards.num_shards <= 1 && shards.workers.empty()) {
    PROGXE_ASSIGN_OR_RETURN(std::unique_ptr<ProgXeSession> session,
                            ProgXeSession::Open(query, std::move(options)));
    return std::unique_ptr<ProgXeStream>(std::move(session));
  }
  PROGXE_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedStream> stream,
      ShardedStream::Open(query, std::move(options), shards));
  return std::unique_ptr<ProgXeStream>(std::move(stream));
}

}  // namespace progxe
