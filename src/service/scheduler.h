// QueryScheduler: the multi-query serving layer over ProgXeStream.
//
// Many concurrent SkyMapJoin queries share one pool of scheduler workers.
// Each worker repeatedly picks a runnable query and advances its stream by
// one *slice* — a budget-aware NextBatch bounded by
// ServiceOptions::batch_budget join pairs — delivering any progressive
// results to the query's QuerySink before requeueing it. The pick rule is
// stride scheduling: each query's pass advances by stride = 1/weight per
// slice and the smallest pass runs next, so under contention a weight-4
// query receives four slices for every slice of a weight-1 query, and
// equal weights make a round robin. Because a stream can yield mid-region
// and resume without redoing work, a heavy query cannot starve light
// ones: with budget slicing on, every admitted query makes progress every
// scheduler round.
//
// The scheduler drives only the abstract ProgXeStream interface
// (progxe/stream.h): a query sharded across K engine instances
// (SubmitOptions::shards) is served through the same slicing, fairness,
// deadline and cancellation machinery as a plain session — one sub-session
// per shard behind a single QueryHandle, with budget accounting summed
// across shards by the stream itself.
//
//   QueryScheduler scheduler({.num_workers = 4, .batch_budget = 4096});
//   auto handle = scheduler.Submit(query, options, &sink);   // non-blocking
//   ...                      // sink.OnBatch fires as results become final
//   handle->Cancel();        // optional, cooperative
//   scheduler.Drain();       // or handle.Wait()
//
// Guarantees:
//   * Per query, OnBatch calls arrive in emission order from one worker at
//     a time, and the concatenated batches plus the final ProgXeStats are
//     bit-identical to draining that query's stream alone — for any
//     interleaving, budget, worker count and weights (enforced by
//     tests/service_test.cc).
//   * Exactly one OnDone per submitted query, after its last OnBatch —
//     including on cancellation, deadline expiry, failure and scheduler
//     destruction.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "progxe/config.h"
#include "progxe/executor.h"
#include "progxe/stream.h"

namespace progxe {

/// Serving-layer configuration.
struct ServiceOptions {
  /// Scheduler worker threads (>= 1). Workers run PreparePhase on
  /// admission and NextBatch slices; a sharded query's shard pumps run
  /// underneath, on ShardedStream's process-wide pool.
  int num_workers = 1;

  /// Join-pair budget per NextBatch slice. 0 disables slicing: each slice
  /// then drives the session to its next flush, so one huge region can
  /// hold a worker for its full join. Small budgets sharpen fairness and
  /// time-to-first-result at a small switching cost. With 0, a sharded
  /// query (SubmitOptions::shards) also keeps up to two pumps per shard
  /// running between its slices, on the process-wide shard pool (at most
  /// hardware_concurrency threads, shared by all queries) rather than on
  /// these workers; a cancel or deadline then waits for each shard's
  /// running pump. Budgeted slices leave nothing running between slices.
  size_t batch_budget = 4096;

  /// Admission control: at most this many queries hold an open stream at
  /// once (0 = unbounded). Further submissions wait in FIFO order.
  size_t max_concurrent = 8;

  /// Bound on the not-yet-admitted queue; Submit fails with OutOfRange
  /// once full (0 = unbounded).
  size_t max_queue = 0;

  /// Wall-clock deadline applied to every query that does not carry its own
  /// SubmitOptions::deadline, measured from Submit. Zero = none. An expired
  /// query terminates with QueryState::kDeadlineExceeded at its next slice
  /// boundary (or in the waiting room, without ever opening a stream) and
  /// its sink still receives exactly one OnDone.
  std::chrono::milliseconds default_deadline{0};

  /// Cross-query prepared-state cache (progxe/prepare_cache.h) budget.
  /// Every submitted query whose options carry no cache of their own is
  /// stamped with the scheduler-wide instance: repeated submissions of the
  /// same (sources, mapping, quantization) skip the prepare phase entirely
  /// on a hit. Entries are LRU-evicted past this many bytes, the only
  /// bound (each entry charges at least sizeof(PreparedInputs)); 0
  /// disables the cache.
  size_t prepare_cache_bytes = 64ull * 1024 * 1024;
};

/// Lifecycle of a submitted query.
enum class QueryState : uint8_t {
  kQueued,            ///< Waiting for an admission slot.
  kRunning,           ///< Stream open; receiving slices.
  kFinished,          ///< All results delivered.
  kCancelled,         ///< Cancel() (or scheduler teardown) took effect.
  kFailed,            ///< Open, validation or the stream itself failed; see
                      ///< QueryHandle::status() for the real error.
  kDeadlineExceeded,  ///< Per-query deadline expired before completion.
  kPartial,           ///< Completed with shards abandoned after retry
                      ///< exhaustion (ShardOptions::allow_partial); the
                      ///< delivered set covers QueryHandle::coverage().
};

const char* QueryStateName(QueryState state);

/// Inverse of QueryStateName; round-trips every enumerator. Returns false
/// on an unknown name.
bool QueryStateFromName(std::string_view name, QueryState* out);

inline bool IsTerminal(QueryState state) {
  return state == QueryState::kFinished || state == QueryState::kCancelled ||
         state == QueryState::kFailed ||
         state == QueryState::kDeadlineExceeded ||
         state == QueryState::kPartial;
}

/// A point-in-time snapshot of scheduler-wide counters
/// (QueryScheduler::stats()).
struct SchedulerStats {
  /// Slice-latency histogram resolution: fixed log-scale buckets where
  /// bucket 0 counts sub-microsecond slices and bucket i (i >= 1) counts
  /// slices with wall-clock latency in [2^(i-1), 2^i) microseconds; the
  /// last bucket is open-ended, absorbing everything from 2^17 us
  /// (~0.13 s) up.
  static constexpr size_t kSliceLatencyBuckets = 19;

  // Gauges (instantaneous).
  size_t queued = 0;   ///< Waiting-room depth.
  size_t running = 0;  ///< Admitted queries holding a slot.

  // Monotonic counters (since construction).
  uint64_t submitted = 0;          ///< Accepted Submit calls.
  uint64_t finished = 0;           ///< Queries ended kFinished.
  uint64_t cancelled = 0;          ///< Queries ended kCancelled.
  uint64_t failed = 0;             ///< Queries ended kFailed.
  uint64_t deadline_exceeded = 0;  ///< Queries ended kDeadlineExceeded.
  uint64_t partial = 0;            ///< Queries ended kPartial.
  uint64_t slices = 0;             ///< NextBatch slices served.
  uint64_t sliced_pairs = 0;       ///< Join pairs processed across slices.
  uint64_t batches = 0;            ///< Non-empty OnBatch deliveries.
  uint64_t results = 0;            ///< Result tuples delivered to sinks.
  uint64_t shard_retries = 0;      ///< Shard re-opens across terminal queries.
  uint64_t shards_abandoned = 0;   ///< Shards dropped across terminal queries.

  // Distributed transport (process-wide totals from net/net_stats.h;
  // nonzero only when queries ran with ShardOptions::workers).
  uint64_t net_bytes_sent = 0;      ///< Wire bytes sent (frames + headers).
  uint64_t net_bytes_received = 0;  ///< Wire bytes received.
  uint64_t net_frames_sent = 0;     ///< Frames sent.
  uint64_t net_frames_received = 0; ///< Frames received.
  uint64_t net_rtt_count = 0;       ///< Coordinator RPCs completed.
  uint64_t net_rtt_p50_us = 0;      ///< Median RPC round trip (log2 edge).
  uint64_t net_rtt_p99_us = 0;      ///< p99 RPC round trip (log2 edge).

  // Prepared-state cache (zeroes when ServiceOptions disabled the cache).
  uint64_t prepare_hits = 0;       ///< Opens that skipped the prepare phase.
  uint64_t prepare_misses = 0;     ///< Opens that built (and cached) anew.
  uint64_t prepare_evictions = 0;  ///< Entries LRU-evicted past a budget.
  size_t prepare_cache_entries = 0;  ///< Gauge: entries resident now.
  size_t prepare_cache_bytes = 0;    ///< Gauge: approx bytes resident now.

  /// Wall-clock latency distribution of served slices (one entry per
  /// NextBatch counted in `slices`). Sum of all buckets == slices.
  std::array<uint64_t, kSliceLatencyBuckets> slice_latency_us_log2{};

  /// Histogram bucket index for a slice latency in microseconds.
  static size_t SliceLatencyBucket(uint64_t us);

  /// Upper edge (exclusive, microseconds) of the bucket holding the
  /// q-quantile slice, for q in [0, 1] — a conservative p50/p99 readout at
  /// log2 resolution, except when the quantile lands in the open-ended
  /// last bucket, whose returned edge (2^18 us) understates slices slower
  /// than that. Returns 0 when no slice was served.
  uint64_t SliceLatencyQuantileUs(double q) const;

  /// Space-separated `name=value` rendering of every field, histogram
  /// included — the one formatter behind ToString() and the server's
  /// `stats` line.
  std::string FormatFields() const;

  std::string ToString() const;
};

/// Point-in-time progress of one submitted query
/// (QueryHandle::progress()). Readable at any moment from any thread —
/// fields are relaxed snapshots updated by the slicing worker at slice
/// boundaries, so mid-slice reads may lag by up to one slice. Once the
/// query is terminal the snapshot is final and exact.
struct QueryProgress {
  QueryState state = QueryState::kQueued;
  /// Coarse lifecycle phase: "queued", "prepare" (admission is running the
  /// prepare phase / opening the stream), "running", or the terminal state
  /// name ("finished", "cancelled", ...).
  const char* phase = "queued";
  /// Regions surviving look-ahead, summed across shards. 0 until the first
  /// slice (the totals come from the stream's own counters).
  size_t regions_total = 0;
  /// Regions retired so far: processed + discarded at runtime + discarded
  /// by refinement seeding.
  size_t regions_done = 0;
  uint64_t pairs_processed = 0;    ///< Join pairs generated so far.
  uint64_t results_delivered = 0;  ///< Tuples delivered to the sink so far.
  /// Submit-to-first-delivered-result wall clock; negative until the first
  /// result lands.
  double ttfr_seconds = -1.0;
  // Shard coverage of the delivered set (1/1 for unsharded queries).
  size_t shards = 0;
  size_t shards_completed = 0;
  size_t shards_abandoned = 0;
  /// Shards served by remote worker daemons (0 for in-process queries) —
  /// what distinguishes a distributed query in `progxe_server list`.
  size_t shards_remote = 0;

  std::string ToString() const;
};

/// Receives one query's progressive output. Callbacks fire on scheduler
/// worker threads, but never concurrently for the same query; a sink
/// shared across queries must synchronize itself. Callbacks must not block
/// on the scheduler (no Wait/Drain from inside a callback).
class QuerySink {
 public:
  virtual ~QuerySink();
  /// Zero or more calls, each a non-empty run of guaranteed-final results
  /// in emission order.
  virtual void OnBatch(const std::vector<ResultTuple>& batch) = 0;
  /// Exactly once, after the last OnBatch. `stats` holds the query's final
  /// counters (zero-valued if the stream never opened).
  virtual void OnDone(QueryState state, const Status& status,
                      const ProgXeStats& stats) = 0;
};

namespace service_internal {
struct SchedulerCore;
struct QueryRecord;
}  // namespace service_internal

/// Caller's view of one submitted query. Copyable; all methods are
/// thread-safe. Handles keep the scheduler core alive, so outliving the
/// scheduler is safe (the query is cancelled at scheduler destruction).
class QueryHandle {
 public:
  QueryHandle() = default;

  uint64_t id() const;
  QueryState state() const;
  /// Requests cooperative cancellation: the query stops at its next slice
  /// boundary (or before admission) and its sink receives
  /// OnDone(kCancelled). No-op once terminal.
  void Cancel();
  /// Blocks until the query is terminal (its OnDone has returned).
  void Wait();
  /// Final counters; valid once state() is terminal.
  const ProgXeStats& stats() const;
  /// Failure status for kFailed — the stream's real error (open failure,
  /// injected fault, retry exhaustion); OK otherwise.
  Status status() const;
  /// Per-shard coverage of the delivered set; valid once state() is
  /// terminal. `!complete()` exactly for kPartial.
  const ShardCoverage& coverage() const;
  /// Live progress snapshot; callable in any state (see QueryProgress).
  QueryProgress progress() const;

 private:
  friend class QueryScheduler;
  std::shared_ptr<service_internal::SchedulerCore> core_;
  std::shared_ptr<service_internal::QueryRecord> query_;
};

/// Per-submission knobs beyond the engine options.
struct SubmitOptions {
  /// Relative slice share under contention (clamped to [1/16, 1024]).
  double weight = 1.0;
  /// Wall-clock deadline measured from Submit; zero inherits
  /// ServiceOptions::default_deadline, negative opts out of the deadline
  /// even when a default exists.
  std::chrono::milliseconds deadline{0};
  /// Engine sharding: num_shards > 1 serves the query through a
  /// ShardedStream (one sub-session per shard behind this one handle).
  /// `shards.max_retries` / `shards.retry_backoff` bound the per-shard
  /// fault recovery; `shards.allow_partial` lets a query whose shard
  /// exhausts its retries complete as kPartial instead of kFailed.
  /// `shards.workers` runs the shards on remote worker processes, over the
  /// scheduler's process-wide connection pool, so worker links outlive
  /// any one query.
  ShardOptions shards;

  /// Retain this query's delivered results on its record so later
  /// submissions can seed from them (`parent`/`seed_from_parent`). Costs
  /// one extra copy of every delivered tuple for the record's lifetime;
  /// required on any query named as a refinement parent.
  bool retain_results = false;

  /// Refinement parent: a handle from a previous Submit on this same
  /// scheduler, over pointer-identical sources and an identical mapping
  /// (preference/serving knobs may differ). Only consulted when
  /// `seed_from_parent` is true.
  QueryHandle parent;

  /// Seed this query's region ordering and up-front discards from the
  /// parent's retained results (see ProgXeOptions::refinement_seed).
  /// Validated at Submit: the parent must come from this scheduler, share
  /// sources and mapping, and have been submitted with retain_results. If
  /// the parent is not yet terminal when this query is admitted, the query
  /// simply runs unseeded — seeding changes cost, never results.
  bool seed_from_parent = false;
};

class QueryScheduler {
 public:
  explicit QueryScheduler(ServiceOptions options);
  /// Cancels every query still queued or running (each sink gets its
  /// OnDone), then joins the workers.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Enqueues a query. The relations behind `query` and the sink must stay
  /// valid until the sink's OnDone returns. Fails with OutOfRange when the
  /// admission queue is full.
  Result<QueryHandle> Submit(const SkyMapJoinQuery& query,
                             ProgXeOptions options, QuerySink* sink,
                             const SubmitOptions& submit = SubmitOptions());

  /// Blocks until every query submitted so far is terminal.
  void Drain();

  /// Snapshot of queue depth, admitted/running counts and the served-work
  /// counters.
  SchedulerStats stats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  ServiceOptions options_;
  std::shared_ptr<service_internal::SchedulerCore> core_;
  std::vector<std::thread> workers_;
};

}  // namespace progxe
