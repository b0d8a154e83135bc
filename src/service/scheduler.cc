#include "service/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/fault_injection.h"
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "mapping/canonical.h"
#include "net/net_stats.h"
#include "net/worker_pool.h"
#include "obs/trace.h"
#include "progxe/prepare_cache.h"

namespace progxe {

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kRunning:
      return "running";
    case QueryState::kFinished:
      return "finished";
    case QueryState::kCancelled:
      return "cancelled";
    case QueryState::kFailed:
      return "failed";
    case QueryState::kDeadlineExceeded:
      return "deadline_exceeded";
    case QueryState::kPartial:
      return "partial";
  }
  return "?";
}

bool QueryStateFromName(std::string_view name, QueryState* out) {
  for (QueryState state :
       {QueryState::kQueued, QueryState::kRunning, QueryState::kFinished,
        QueryState::kCancelled, QueryState::kFailed,
        QueryState::kDeadlineExceeded, QueryState::kPartial}) {
    if (name == QueryStateName(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

size_t SchedulerStats::SliceLatencyBucket(uint64_t us) {
  size_t bucket = 0;
  while (us != 0 && bucket + 1 < kSliceLatencyBuckets) {
    us >>= 1;
    ++bucket;
  }
  return bucket;
}

uint64_t SchedulerStats::SliceLatencyQuantileUs(double q) const {
  uint64_t total = 0;
  for (uint64_t c : slice_latency_us_log2) total += c;
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b < kSliceLatencyBuckets; ++b) {
    seen += slice_latency_us_log2[b];
    if (static_cast<double>(seen) >= rank) {
      return uint64_t{1} << b;  // exclusive upper edge of bucket b
    }
  }
  return uint64_t{1} << (kSliceLatencyBuckets - 1);
}

std::string SchedulerStats::FormatFields() const {
  std::ostringstream os;
  os << "queued=" << queued << " running=" << running
     << " submitted=" << submitted << " finished=" << finished
     << " cancelled=" << cancelled << " failed=" << failed
     << " deadline_exceeded=" << deadline_exceeded << " partial=" << partial
     << " slices=" << slices
     << " sliced_pairs=" << sliced_pairs << " batches=" << batches
     << " results=" << results << " shard_retries=" << shard_retries
     << " shards_abandoned=" << shards_abandoned
     << " prepare_hits=" << prepare_hits
     << " prepare_misses=" << prepare_misses
     << " prepare_evictions=" << prepare_evictions
     << " prepare_cache_entries=" << prepare_cache_entries
     << " prepare_cache_bytes=" << prepare_cache_bytes
     << " net_bytes_sent=" << net_bytes_sent
     << " net_bytes_received=" << net_bytes_received
     << " net_frames_sent=" << net_frames_sent
     << " net_frames_received=" << net_frames_received
     << " net_rtt_count=" << net_rtt_count
     << " net_rtt_p50_us<" << net_rtt_p50_us
     << " net_rtt_p99_us<" << net_rtt_p99_us
     << " slice_p50_us<" << SliceLatencyQuantileUs(0.5)
     << " slice_p99_us<" << SliceLatencyQuantileUs(0.99)
     << " slice_lat_us_log2=[";
  for (size_t b = 0; b < kSliceLatencyBuckets; ++b) {
    os << (b == 0 ? "" : ",") << slice_latency_us_log2[b];
  }
  os << "]";
  return os.str();
}

std::string SchedulerStats::ToString() const {
  return "SchedulerStats{" + FormatFields() + "}";
}

std::string QueryProgress::ToString() const {
  std::ostringstream os;
  os << "QueryProgress{state=" << QueryStateName(state) << " phase=" << phase
     << " regions=" << regions_done << "/" << regions_total
     << " pairs=" << pairs_processed << " delivered=" << results_delivered
     << " ttfr_s=";
  if (ttfr_seconds < 0.0) {
    os << "-";
  } else {
    os << ttfr_seconds;
  }
  os << " coverage=" << shards_completed << "/" << shards;
  if (shards_remote > 0) os << " remote=" << shards_remote;
  if (shards_abandoned > 0) os << " abandoned=" << shards_abandoned;
  os << "}";
  return os.str();
}

QuerySink::~QuerySink() = default;

namespace service_internal {

using Clock = std::chrono::steady_clock;

/// Virtual-time granularity of the stride scheduler: a weight-1 query's
/// pass advances by this much per slice.
constexpr uint64_t kStrideScale = 1 << 16;

struct QueryRecord {
  uint64_t id = 0;
  SkyMapJoinQuery spec;
  ProgXeOptions options;
  ShardOptions shards;
  QuerySink* sink = nullptr;

  /// Stride-scheduling state: pass advances by stride per slice; the
  /// smallest pass runs next.
  uint64_t stride = kStrideScale;
  uint64_t pass = 0;

  /// Wall-clock expiry; only meaningful when `has_deadline`.
  bool has_deadline = false;
  Clock::time_point deadline;

  std::atomic<QueryState> state{QueryState::kQueued};
  std::atomic<bool> cancel{false};
  /// True while the record sits in SchedulerCore::waiting. Guarded by the
  /// core mutex; together with `cancel` (only ever set under that mutex)
  /// it keeps SchedulerCore::cancelled_waiting exact.
  bool in_waiting = false;

  /// Terminal outputs; written by the finishing thread before the terminal
  /// state is published (release), read by handles after observing it
  /// (acquire).
  Status status;
  ProgXeStats final_stats;
  ShardCoverage final_coverage;

  /// Cross-query reuse: when `retain_results`, every delivered batch is
  /// also appended to `retained` so later submissions can seed from this
  /// query's accepted frontier. Written only by the slicing worker; a
  /// child's admission reads it only after observing this record's
  /// terminal state (acquire), pairing with the release in FinishQuery.
  bool retain_results = false;
  std::vector<ResultTuple> retained;
  /// Frontier donor; set iff `seed_from_parent`, dropped at admission.
  std::shared_ptr<QueryRecord> parent;
  bool seed_from_parent = false;

  std::unique_ptr<ProgXeStream> stream;  // open while kRunning

  /// Progress introspection (QueryHandle::progress()): relaxed snapshots
  /// written only by the worker currently holding this record — at
  /// admission, after every slice, and once more before the terminal state
  /// publishes — and read concurrently by any handle thread.
  Clock::time_point submit_time;
  std::atomic<bool> preparing{false};  // admission open in flight
  std::atomic<size_t> progress_regions_total{0};
  std::atomic<size_t> progress_regions_done{0};
  std::atomic<uint64_t> progress_pairs{0};
  std::atomic<uint64_t> progress_results{0};
  std::atomic<double> ttfr_seconds{-1.0};
  std::atomic<size_t> progress_shards{0};
  std::atomic<size_t> progress_shards_completed{0};
  std::atomic<size_t> progress_shards_abandoned{0};
  std::atomic<size_t> progress_shards_remote{0};

  /// Refreshes the snapshot from live stream counters; the caller must be
  /// the worker that owns the stream right now.
  void UpdateProgress(const ProgXeStats& s, const ShardCoverage& cov) {
    progress_regions_total.store(s.regions_created - s.regions_pruned_lookahead,
                                 std::memory_order_relaxed);
    progress_regions_done.store(s.regions_processed +
                                    s.regions_discarded_runtime +
                                    s.regions_discarded_seed,
                                std::memory_order_relaxed);
    progress_pairs.store(s.join_pairs_generated, std::memory_order_relaxed);
    progress_shards.store(static_cast<size_t>(cov.shards),
                          std::memory_order_relaxed);
    progress_shards_completed.store(static_cast<size_t>(cov.completed),
                                    std::memory_order_relaxed);
    progress_shards_abandoned.store(static_cast<size_t>(cov.abandoned),
                                    std::memory_order_relaxed);
    progress_shards_remote.store(static_cast<size_t>(cov.remote),
                                 std::memory_order_relaxed);
  }

  bool Expired(Clock::time_point now) const {
    return has_deadline && now >= deadline;
  }
};

using RecordPtr = std::shared_ptr<QueryRecord>;

struct SchedulerCore {
  ServiceOptions options;
  /// Cross-query prepared-state cache; null when either budget is 0.
  /// Internally synchronized — never touched under `mtx` except stats().
  std::shared_ptr<PrepareCache> prepare_cache;
  /// Process-wide worker connection pool, created lazily at the first
  /// Submit carrying worker endpoints (under `mtx`) and stamped onto every
  /// remote query — cached worker links outlive any one query, the
  /// cross-query reuse the transport is built for. Internally synchronized.
  std::shared_ptr<WorkerPool> worker_pool;

  std::mutex mtx;
  std::condition_variable work_cv;  // workers: new work / freed slot / stop
  std::condition_variable done_cv;  // Wait()/Drain(): a query went terminal
  bool stop = false;

  uint64_t next_id = 1;
  size_t live = 0;    // submitted, not yet terminal
  size_t active = 0;  // admitted (slot held), not yet terminal
  uint64_t virtual_time = 0;  // pass of the last picked query

  std::deque<RecordPtr> waiting;  // admission queue, FIFO
  std::vector<RecordPtr> ready;   // runnable; min-heap on (pass, id)
  /// Number of `waiting` entries with `cancel` set — an O(1) stand-in for
  /// scanning the queue in the worker wake predicate.
  size_t cancelled_waiting = 0;
  /// Number of `waiting` entries carrying a deadline: when positive,
  /// sleeping workers use a timed wait so waiting-room expiry is noticed
  /// without any other activity.
  size_t deadlined_waiting = 0;

  // SchedulerStats counters (monotonic; guarded by mtx).
  uint64_t submitted = 0;
  uint64_t finished = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t partial = 0;
  uint64_t slices = 0;
  uint64_t sliced_pairs = 0;
  uint64_t batches = 0;
  uint64_t results = 0;
  uint64_t shard_retries = 0;
  uint64_t shards_abandoned = 0;
  std::array<uint64_t, SchedulerStats::kSliceLatencyBuckets>
      slice_latency_us_log2{};
};

namespace {

/// Min-heap order on (pass, id): ties resolve to the earlier submission so
/// the pick is deterministic.
bool PassGreater(const RecordPtr& a, const RecordPtr& b) {
  return a->pass != b->pass ? a->pass > b->pass : a->id > b->id;
}

/// Structural equality of two map specs: same output dimensionality and,
/// per dimension, the same constant, transform and ordered term list.
/// Pointer-identical sources plus this check are what make a parent's
/// accepted frontier a set of genuine output points of the child query —
/// and therefore sound discard witnesses (preference directions may
/// differ; the seed is folded with the child's own mapper).
bool SameMapSpec(const MapSpec& a, const MapSpec& b) {
  if (a.output_dimensions() != b.output_dimensions()) return false;
  for (int j = 0; j < a.output_dimensions(); ++j) {
    const MapFunc& fa = a.func(j);
    const MapFunc& fb = b.func(j);
    if (fa.constant() != fb.constant() || fa.transform() != fb.transform() ||
        fa.terms().size() != fb.terms().size()) {
      return false;
    }
    for (size_t i = 0; i < fa.terms().size(); ++i) {
      const MapTerm& ta = fa.terms()[i];
      const MapTerm& tb = fb.terms()[i];
      if (ta.side != tb.side || ta.attr_index != tb.attr_index ||
          ta.weight != tb.weight) {
        return false;
      }
    }
  }
  return true;
}

/// Every seed point travels in the child's options (over the wire to
/// remote shards too) and marks cells at its open; past a few hundred
/// witnesses the extra discard power is negligible while that cost keeps
/// growing, so large frontiers are thinned by an even deterministic stride
/// (any subset of genuine outputs is equally sound).
constexpr size_t kMaxSeedPoints = 256;

/// Folds a donor query's retained (user-space) results into the child's
/// canonical space for region seeding.
std::shared_ptr<const RefinementSeed> BuildRefinementSeed(
    const SkyMapJoinQuery& spec, const std::vector<ResultTuple>& retained) {
  const CanonicalMapper mapper(spec.map, spec.pref);
  const int k = mapper.output_dimensions();
  auto seed = std::make_shared<RefinementSeed>();
  seed->k = k;
  const size_t stride =
      retained.size() > kMaxSeedPoints
          ? (retained.size() + kMaxSeedPoints - 1) / kMaxSeedPoints
          : 1;
  seed->canonical.reserve((retained.size() / stride + 1) *
                          static_cast<size_t>(k));
  for (size_t i = 0; i < retained.size(); i += stride) {
    const ResultTuple& tuple = retained[i];
    for (int j = 0; j < k; ++j) {
      seed->canonical.push_back(
          mapper.Canonicalize(j, tuple.values[static_cast<size_t>(j)]));
    }
  }
  return seed;
}

bool HasFreeSlot(const SchedulerCore& core) {
  return core.options.max_concurrent == 0 ||
         core.active < core.options.max_concurrent;
}

void EnqueueReady(SchedulerCore* core, RecordPtr rec) {
  core->ready.push_back(std::move(rec));
  std::push_heap(core->ready.begin(), core->ready.end(), PassGreater);
}

RecordPtr PopReady(SchedulerCore* core) {
  std::pop_heap(core->ready.begin(), core->ready.end(), PassGreater);
  RecordPtr rec = std::move(core->ready.back());
  core->ready.pop_back();
  core->virtual_time = rec->pass;
  return rec;
}

/// Bumps the terminal-outcome counter matching `state`. Caller holds mtx.
void CountTerminal(SchedulerCore* core, QueryState state) {
  switch (state) {
    case QueryState::kFinished:
      ++core->finished;
      break;
    case QueryState::kCancelled:
      ++core->cancelled;
      break;
    case QueryState::kFailed:
      ++core->failed;
      break;
    case QueryState::kDeadlineExceeded:
      ++core->deadline_exceeded;
      break;
    case QueryState::kPartial:
      ++core->partial;
      break;
    default:
      assert(false && "non-terminal state");
  }
}

/// Publishes a terminal state: copies the final stats, tears the stream
/// down (joining its workers), fires OnDone, then marks the record terminal
/// and wakes waiters. Runs with `lock` held on entry and exit; the
/// callback and stream teardown happen unlocked.
void FinishQuery(SchedulerCore* core, const RecordPtr& rec, QueryState state,
                 Status status, std::unique_lock<std::mutex>* lock) {
  assert(IsTerminal(state));
  CountTerminal(core, state);
  lock->unlock();
  if (rec->stream != nullptr) {
    rec->final_stats = rec->stream->stats();
    rec->final_coverage = rec->stream->coverage();
    rec->stream->Close();
    rec->stream.reset();
  }
  // Freeze the progress snapshot on the final counters so progress() and
  // stats()/coverage() agree once the terminal state publishes.
  rec->UpdateProgress(rec->final_stats, rec->final_coverage);
  TraceInstant(trace_cats::kSched, "sched.done", "query",
               static_cast<int64_t>(rec->id));
  rec->status = std::move(status);
  if (rec->sink != nullptr) {
    rec->sink->OnDone(state, rec->status, rec->final_stats);
  }
  rec->state.store(state, std::memory_order_release);
  lock->lock();
  core->shard_retries += rec->final_coverage.retries;
  core->shards_abandoned +=
      static_cast<uint64_t>(rec->final_coverage.abandoned);
  assert(core->live > 0);
  --core->live;
  core->done_cv.notify_all();
  // A freed admission slot may unblock a waiting query.
  core->work_cv.notify_all();
}

/// Runs one slice of `rec` (unlocked). Returns the terminal state, or
/// kRunning if the query should be requeued. `*pairs`/`*delivered` receive
/// the slice's join-pair and result counts for the scheduler counters;
/// `*failure` the stream's error when the returned state is kFailed.
QueryState RunSlice(SchedulerCore* core, const RecordPtr& rec,
                    std::vector<ResultTuple>* batch, uint64_t* pairs,
                    uint64_t* delivered, Status* failure) {
  *pairs = 0;
  *delivered = 0;
  if (rec->cancel.load(std::memory_order_acquire)) {
    return QueryState::kCancelled;
  }
  if (rec->Expired(Clock::now())) {
    return QueryState::kDeadlineExceeded;
  }
  // The serving-layer fault site: a worker failing to serve this slice at
  // all (instance = query id). Not shard-local, so it fails the query.
  FaultInjector* injector = rec->options.faults != nullptr
                                ? rec->options.faults.get()
                                : FaultInjector::FromEnv();
  Status fault = MaybeInjectFault(injector, fault_sites::kSchedulerSlice,
                                  static_cast<int>(rec->id));
  if (PROGXE_PREDICT_FALSE(!fault.ok())) {
    *failure = std::move(fault);
    return QueryState::kFailed;
  }
  const uint64_t before = rec->stream->stats().join_pairs_generated;
  rec->stream->NextBatch(0, core->options.batch_budget, batch);
  *pairs = rec->stream->stats().join_pairs_generated - before;
  *delivered = batch->size();
  if (!batch->empty()) {
    rec->sink->OnBatch(*batch);
    if (rec->retain_results) {
      rec->retained.insert(rec->retained.end(), batch->begin(), batch->end());
    }
  }
  // The stream's error channel: a dead stream also reports Finished(), so
  // check the status first — kFailed must carry the real error, not
  // masquerade as completion.
  Status stream_status = rec->stream->last_status();
  if (PROGXE_PREDICT_FALSE(!stream_status.ok())) {
    *failure = std::move(stream_status);
    return QueryState::kFailed;
  }
  if (!rec->stream->Finished()) return QueryState::kRunning;
  return rec->stream->coverage().complete() ? QueryState::kFinished
                                            : QueryState::kPartial;
}

/// Pulls every cancelled or deadline-expired record out of the waiting
/// room and finish-notifies it: such entries hold no slot, so their OnDone
/// must not wait for one (and they must stop occupying max_queue
/// capacity). Caller holds `lock`; FinishQuery drops it per record, so all
/// targets are collected before the first callback.
void ReapWaiting(SchedulerCore* core, std::unique_lock<std::mutex>* lock) {
  const Clock::time_point now = Clock::now();
  std::vector<std::pair<RecordPtr, QueryState>> reaped;
  for (auto it = core->waiting.begin(); it != core->waiting.end();) {
    RecordPtr& rec = *it;
    const bool cancelled = rec->cancel.load(std::memory_order_acquire);
    const bool expired = !cancelled && rec->Expired(now);
    if (!cancelled && !expired) {
      ++it;
      continue;
    }
    rec->in_waiting = false;
    if (cancelled) --core->cancelled_waiting;
    if (rec->has_deadline) --core->deadlined_waiting;
    reaped.emplace_back(std::move(rec), cancelled
                                            ? QueryState::kCancelled
                                            : QueryState::kDeadlineExceeded);
    it = core->waiting.erase(it);
  }
  for (const auto& [rec, state] : reaped) {
    FinishQuery(core, rec, state, Status::OK(), lock);
  }
}

/// Earliest deadline among waiting-room entries, or time_point::max().
/// Ready/running entries need no timer: they are sliced continuously and
/// expiry is checked at every slice boundary.
Clock::time_point NextWaitingDeadline(const SchedulerCore& core) {
  Clock::time_point next = Clock::time_point::max();
  for (const RecordPtr& rec : core.waiting) {
    if (rec->has_deadline && rec->deadline < next) next = rec->deadline;
  }
  return next;
}

void WorkerLoop(const std::shared_ptr<SchedulerCore>& core) {
  std::vector<ResultTuple> batch;
  std::unique_lock<std::mutex> lock(core->mtx);
  for (;;) {
    const auto wake = [&] {
      return core->stop || !core->ready.empty() ||
             core->cancelled_waiting > 0 ||
             (!core->waiting.empty() && HasFreeSlot(*core));
    };
    // Hand-rolled predicate wait: the sleep mode (timed vs not) must be
    // re-decided on *every* wake, so a Submit that enqueues the first
    // deadlined query converts an already-parked worker's untimed wait
    // into a timed one instead of leaving it asleep past the deadline.
    bool deadline_fired = false;
    while (!wake()) {
      if (core->deadlined_waiting > 0) {
        if (core->work_cv.wait_until(lock, NextWaitingDeadline(*core)) ==
            std::cv_status::timeout) {
          deadline_fired = true;  // fall through to the reap pass
          break;
        }
      } else {
        core->work_cv.wait(lock);
      }
    }
    if (core->stop) return;

    // Reap dead waiting-room entries first (cancelled, or woken by the
    // deadline timer above; an expiry that races other runnable work is
    // picked up at the next timed wait).
    if (core->cancelled_waiting > 0 || deadline_fired) {
      ReapWaiting(core.get(), &lock);
      continue;
    }
    if (core->ready.empty() &&
        (core->waiting.empty() || !HasFreeSlot(*core))) {
      continue;  // spurious wake with nothing to do yet
    }

    // Admission next: it is what creates runnable work.
    if (!core->waiting.empty() && HasFreeSlot(*core)) {
      RecordPtr rec = std::move(core->waiting.front());
      core->waiting.pop_front();
      rec->in_waiting = false;
      if (rec->has_deadline) --core->deadlined_waiting;
      if (rec->Expired(Clock::now())) {
        // Never opens a stream: the deadline already passed in the queue.
        FinishQuery(core.get(), rec, QueryState::kDeadlineExceeded,
                    Status::OK(), &lock);
        continue;
      }
      ++core->active;  // hold the slot while PreparePhase runs
      rec->preparing.store(true, std::memory_order_relaxed);
      lock.unlock();
      TraceInstant(trace_cats::kSched, "sched.admit", "query",
                   static_cast<int64_t>(rec->id));
      // Refinement seeding: if the donor is already terminal, its retained
      // frontier is frozen (the terminal acquire pairs with FinishQuery's
      // release, which follows the last retained append). A parent still
      // in flight — or retained-empty — yields a plain unseeded run.
      if (rec->seed_from_parent && rec->parent != nullptr &&
          IsTerminal(rec->parent->state.load(std::memory_order_acquire)) &&
          !rec->parent->retained.empty()) {
        rec->options.refinement_seed =
            BuildRefinementSeed(rec->spec, rec->parent->retained);
      }
      rec->parent.reset();  // drop the donor either way
      auto stream = OpenProgXeStream(rec->spec, rec->options, rec->shards);
      rec->preparing.store(false, std::memory_order_relaxed);
      lock.lock();
      if (!stream.ok()) {
        --core->active;
        FinishQuery(core.get(), rec, QueryState::kFailed, stream.status(),
                    &lock);
        continue;
      }
      rec->stream = std::move(stream).MoveValue();
      rec->state.store(QueryState::kRunning, std::memory_order_release);
      // Stride scheduling's join rule: one stride past the current virtual
      // time. A late arrival competes fairly instead of monopolizing
      // workers to catch up, and with equal weights it queues behind the
      // queries already served this round, as in a FIFO round robin.
      // Starting at the virtual time itself would let every arrival jump
      // them and delay the first results of queries already running.
      rec->pass = core->virtual_time + rec->stride;
      EnqueueReady(core.get(), std::move(rec));
      core->work_cv.notify_one();
      continue;
    }

    RecordPtr rec = PopReady(core.get());
    lock.unlock();
    uint64_t pairs = 0;
    uint64_t delivered = 0;
    Status failure;
    const Clock::time_point slice_start = Clock::now();
    QueryState outcome;
    {
      TraceSpan span(trace_cats::kSched, "sched.slice");
      span.arg("query", static_cast<int64_t>(rec->id));
      outcome = RunSlice(core.get(), rec, &batch, &pairs, &delivered, &failure);
      span.arg("pairs", static_cast<int64_t>(pairs));
    }
    const Clock::time_point slice_end = Clock::now();
    const uint64_t slice_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(slice_end -
                                                              slice_start)
            .count());
    // Refresh the live progress snapshot while this worker still owns the
    // stream (FinishQuery re-freezes it from the final counters for
    // terminal outcomes).
    if (delivered > 0) {
      rec->progress_results.fetch_add(delivered, std::memory_order_relaxed);
      if (rec->ttfr_seconds.load(std::memory_order_relaxed) < 0.0) {
        rec->ttfr_seconds.store(
            std::chrono::duration<double>(slice_end - rec->submit_time).count(),
            std::memory_order_relaxed);
      }
    }
    if (rec->stream != nullptr) {
      rec->UpdateProgress(rec->stream->stats(), rec->stream->coverage());
    }
    lock.lock();
    // Cancel/deadline short-circuits never advanced the stream: not a
    // served slice.
    if (outcome == QueryState::kRunning || outcome == QueryState::kFinished ||
        outcome == QueryState::kPartial) {
      ++core->slices;
      core->sliced_pairs += pairs;
      ++core->slice_latency_us_log2[SchedulerStats::SliceLatencyBucket(
          slice_us)];
    }
    if (delivered > 0) {
      ++core->batches;
      core->results += delivered;
    }
    if (outcome == QueryState::kRunning) {
      rec->pass += rec->stride;
      EnqueueReady(core.get(), std::move(rec));
    } else {
      --core->active;
      FinishQuery(core.get(), rec, outcome, std::move(failure), &lock);
    }
  }
}

}  // namespace
}  // namespace service_internal

using service_internal::QueryRecord;
using service_internal::RecordPtr;
using service_internal::SchedulerCore;

uint64_t QueryHandle::id() const { return query_ == nullptr ? 0 : query_->id; }

QueryState QueryHandle::state() const {
  assert(query_ != nullptr);
  return query_->state.load(std::memory_order_acquire);
}

void QueryHandle::Cancel() {
  assert(query_ != nullptr);
  // Setting `cancel` under the core mutex keeps `cancelled_waiting` exact:
  // a worker holding the lock can rely on "counter == 0 implies no waiting
  // entry is cancelled".
  std::lock_guard<std::mutex> lock(core_->mtx);
  const bool first = !query_->cancel.exchange(true, std::memory_order_acq_rel);
  if (first && query_->in_waiting) ++core_->cancelled_waiting;
  core_->work_cv.notify_all();
}

void QueryHandle::Wait() {
  assert(query_ != nullptr);
  std::unique_lock<std::mutex> lock(core_->mtx);
  core_->done_cv.wait(lock, [&] {
    return IsTerminal(query_->state.load(std::memory_order_acquire));
  });
}

const ProgXeStats& QueryHandle::stats() const {
  assert(query_ != nullptr && IsTerminal(state()));
  return query_->final_stats;
}

Status QueryHandle::status() const {
  assert(query_ != nullptr && IsTerminal(state()));
  return query_->status;
}

const ShardCoverage& QueryHandle::coverage() const {
  assert(query_ != nullptr && IsTerminal(state()));
  return query_->final_coverage;
}

QueryProgress QueryHandle::progress() const {
  assert(query_ != nullptr);
  QueryProgress p;
  p.state = query_->state.load(std::memory_order_acquire);
  if (IsTerminal(p.state)) {
    p.phase = QueryStateName(p.state);
  } else if (p.state == QueryState::kRunning) {
    p.phase = "running";
  } else {
    p.phase = query_->preparing.load(std::memory_order_relaxed) ? "prepare"
                                                                : "queued";
  }
  p.regions_total =
      query_->progress_regions_total.load(std::memory_order_relaxed);
  p.regions_done =
      query_->progress_regions_done.load(std::memory_order_relaxed);
  p.pairs_processed = query_->progress_pairs.load(std::memory_order_relaxed);
  p.results_delivered =
      query_->progress_results.load(std::memory_order_relaxed);
  p.ttfr_seconds = query_->ttfr_seconds.load(std::memory_order_relaxed);
  p.shards = query_->progress_shards.load(std::memory_order_relaxed);
  p.shards_completed =
      query_->progress_shards_completed.load(std::memory_order_relaxed);
  p.shards_abandoned =
      query_->progress_shards_abandoned.load(std::memory_order_relaxed);
  p.shards_remote =
      query_->progress_shards_remote.load(std::memory_order_relaxed);
  return p;
}

QueryScheduler::QueryScheduler(ServiceOptions options)
    : options_(options), core_(std::make_shared<SchedulerCore>()) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  core_->options = options_;
  if (options_.prepare_cache_bytes > 0) {
    core_->prepare_cache =
        std::make_shared<PrepareCache>(options_.prepare_cache_bytes);
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(service_internal::WorkerLoop, core_);
  }
}

QueryScheduler::~QueryScheduler() {
  {
    std::lock_guard<std::mutex> lock(core_->mtx);
    core_->stop = true;
  }
  core_->work_cv.notify_all();
  for (std::thread& worker : workers_) worker.join();

  // Workers are gone, so this thread owns the queues: cancel-finish every
  // query still queued or runnable so each sink gets its OnDone.
  std::unique_lock<std::mutex> lock(core_->mtx);
  while (!core_->waiting.empty() || !core_->ready.empty()) {
    RecordPtr rec;
    if (!core_->waiting.empty()) {
      rec = std::move(core_->waiting.front());
      core_->waiting.pop_front();
    } else {
      rec = std::move(core_->ready.back());
      core_->ready.pop_back();
      --core_->active;
    }
    service_internal::FinishQuery(core_.get(), rec, QueryState::kCancelled,
                                  Status::OK(), &lock);
  }
}

Result<QueryHandle> QueryScheduler::Submit(const SkyMapJoinQuery& query,
                                           ProgXeOptions options,
                                           QuerySink* sink,
                                           const SubmitOptions& submit) {
  if (sink == nullptr) {
    return Status::InvalidArgument("Submit: sink must not be null");
  }
  if (!(submit.weight > 0.0)) {
    return Status::InvalidArgument("Submit: weight must be positive");
  }
  if (submit.seed_from_parent) {
    if (submit.parent.query_ == nullptr) {
      return Status::InvalidArgument(
          "Submit: seed_from_parent requires a parent handle");
    }
    if (submit.parent.core_ != core_) {
      return Status::InvalidArgument(
          "Submit: parent handle was issued by a different scheduler");
    }
    if (submit.parent.query_->spec.r != query.r ||
        submit.parent.query_->spec.t != query.t) {
      return Status::InvalidArgument(
          "Submit: seed_from_parent requires the parent's exact source "
          "relations");
    }
    if (!service_internal::SameMapSpec(submit.parent.query_->spec.map,
                                       query.map)) {
      return Status::InvalidArgument(
          "Submit: seed_from_parent requires an identical mapping");
    }
    if (!submit.parent.query_->retain_results) {
      return Status::InvalidArgument(
          "Submit: parent was not submitted with retain_results");
    }
  }
  auto rec = std::make_shared<QueryRecord>();
  rec->submit_time = service_internal::Clock::now();
  rec->spec = query;
  rec->options = std::move(options);
  rec->shards = submit.shards;
  rec->sink = sink;
  rec->retain_results = submit.retain_results;
  if (submit.seed_from_parent) {
    rec->parent = submit.parent.query_;
    rec->seed_from_parent = true;
  }
  // Stamp the service-wide prepared-state cache unless the caller brought
  // their own (or the cache is disabled — stamping null is a no-op).
  if (rec->options.prepare_cache == nullptr) {
    rec->options.prepare_cache = core_->prepare_cache;
  }
  const double w = std::clamp(submit.weight, 1.0 / 16.0, 1024.0);
  rec->stride = std::max<uint64_t>(
      1, static_cast<uint64_t>(service_internal::kStrideScale / w));
  const std::chrono::milliseconds deadline =
      submit.deadline.count() != 0 ? submit.deadline
                                   : options_.default_deadline;
  if (deadline.count() > 0) {
    rec->has_deadline = true;
    // Saturate: a huge requested deadline must mean "far future", not
    // overflow past it into an instantly-expired one.
    const auto now = service_internal::Clock::now();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        service_internal::Clock::time_point::max() - now);
    rec->deadline = deadline < headroom
                        ? now + deadline
                        : service_internal::Clock::time_point::max();
  }

  std::lock_guard<std::mutex> lock(core_->mtx);
  if (core_->stop) {
    return Status::Internal("Submit: scheduler is shutting down");
  }
  if (core_->options.max_queue != 0 &&
      core_->waiting.size() >= core_->options.max_queue) {
    return Status::OutOfRange("Submit: admission queue full (max_queue=" +
                              std::to_string(core_->options.max_queue) + ")");
  }
  if (!rec->shards.workers.empty()) {
    if (core_->worker_pool == nullptr) {
      core_->worker_pool = std::make_shared<WorkerPool>();
    }
    if (rec->shards.worker_pool == nullptr) {
      rec->shards.worker_pool = core_->worker_pool;
    }
  }
  rec->id = core_->next_id++;
  ++core_->live;
  ++core_->submitted;
  rec->in_waiting = true;
  if (rec->has_deadline) ++core_->deadlined_waiting;
  core_->waiting.push_back(rec);
  core_->work_cv.notify_one();

  QueryHandle handle;
  handle.core_ = core_;
  handle.query_ = std::move(rec);
  return handle;
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(core_->mtx);
  core_->done_cv.wait(lock, [&] { return core_->live == 0; });
}

SchedulerStats QueryScheduler::stats() const {
  SchedulerStats stats;
  std::lock_guard<std::mutex> lock(core_->mtx);
  stats.queued = core_->waiting.size();
  stats.running = core_->active;
  stats.submitted = core_->submitted;
  stats.finished = core_->finished;
  stats.cancelled = core_->cancelled;
  stats.failed = core_->failed;
  stats.deadline_exceeded = core_->deadline_exceeded;
  stats.partial = core_->partial;
  stats.slices = core_->slices;
  stats.sliced_pairs = core_->sliced_pairs;
  stats.batches = core_->batches;
  stats.results = core_->results;
  stats.shard_retries = core_->shard_retries;
  stats.shards_abandoned = core_->shards_abandoned;
  stats.slice_latency_us_log2 = core_->slice_latency_us_log2;
  const NetStatsSnapshot net = SnapshotNetStats();
  stats.net_bytes_sent = net.bytes_sent;
  stats.net_bytes_received = net.bytes_received;
  stats.net_frames_sent = net.frames_sent;
  stats.net_frames_received = net.frames_received;
  stats.net_rtt_count = net.rtt_count;
  stats.net_rtt_p50_us = net.RttQuantileUs(0.5);
  stats.net_rtt_p99_us = net.RttQuantileUs(0.99);
  if (core_->prepare_cache != nullptr) {
    const PrepareCache::Stats cache = core_->prepare_cache->stats();
    stats.prepare_hits = cache.hits;
    stats.prepare_misses = cache.misses;
    stats.prepare_evictions = cache.evictions;
    stats.prepare_cache_entries = cache.entries;
    stats.prepare_cache_bytes = cache.bytes;
  }
  return stats;
}

}  // namespace progxe
