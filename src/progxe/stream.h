// ProgXeStream: the abstract consumption API of the ProgXe engine.
//
// Everything above the engine — QueryScheduler workers, ProgXeExecutor::Run,
// the harness, the CLI tools — drives queries through this budgeted pull
// interface and never names a concrete implementation. Two implementations
// exist today:
//
//   * ProgXeSession (progxe/session.h): one single-process engine instance,
//     the original pull API.
//   * ShardedStream (shard/sharded_stream.h): hash-partitions both sources
//     by join key into K disjoint shards, runs one sub-session per shard and
//     merges their locally-final outputs through a global finality check —
//     behind exactly this interface, so a sharded query is just another
//     stream behind a QueryHandle.
//
// The contract both implementations honor: every tuple delivered by
// NextBatch is guaranteed to belong to the query's final skyline (no
// retractions), the union of all deliveries is exactly that skyline, and
// slice boundaries (any sequence of budgets) never change the delivered
// result set.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "progxe/config.h"
#include "progxe/executor.h"

namespace progxe {

class WorkerPool;  // net/worker_pool.h

/// How a query is split across engine instances. `num_shards <= 1` selects
/// the single unsharded session; otherwise both sources are hash-partitioned
/// by join key into `num_shards` disjoint shards (an equi-join pair always
/// lands whole in one shard), each served by its own sub-session.
struct ShardOptions {
  int num_shards = 1;

  /// Fault containment (sharded stream only). A retryable sub-session
  /// failure quarantines just that shard; the stream re-opens it after an
  /// exponential backoff and replays it from scratch — safe because shards
  /// are deterministic and the merge sink deduplicates replayed deliveries,
  /// so the delivered set stays bit-identical to a fault-free run. This is
  /// the number of *consecutive* failures tolerated per shard before the
  /// retry budget is exhausted (a successful pump resets it); 0 disables
  /// retry. The PROGXE_FAULT_RETRIES environment variable, when set,
  /// raises this — the CI soak uses it to make random fault schedules
  /// survivable without touching per-test options. A value that is not a
  /// non-negative integer aborts the process.
  int max_retries = 2;

  /// Backoff before the first re-open; doubles per consecutive failure
  /// (capped at 64x), with a seeded ±25% jitter so simultaneously-sick
  /// shards spread their re-opens (see JitteredRetryBackoff). During
  /// backoff a budgeted NextBatch yields (returns 0) so a scheduler can
  /// keep checking cancel/deadline; an unbudgeted call sleeps.
  std::chrono::milliseconds retry_backoff{1};

  /// What retry exhaustion means: false (default) fails the whole stream
  /// with the shard's error; true abandons the shard and lets the stream
  /// finish with partial coverage — the delivered set is then exactly the
  /// skyline of the *covered* shards' data (see ProgXeStream::coverage).
  bool allow_partial = false;

  /// Remote execution: shard-worker endpoints ("host:port"). Empty (the
  /// default) runs every sub-session in process. Non-empty runs each shard
  /// on a worker daemon (progxe_server --worker) behind the same per-shard
  /// seam: shard i's incarnation n dials workers[(i + n) % size], so a
  /// retry after a worker failure lands on a *different* engine. Transport
  /// failures (connection reset, heartbeat timeout) surface as retryable
  /// kUnavailable and ride the quarantine/retry machinery above; the
  /// delivered set stays bit-identical to the in-process run either way.
  std::vector<std::string> workers;

  /// Connection pool shared across streams (cached worker links survive
  /// query teardown). Null makes the stream create a private pool; the
  /// scheduler passes its process-wide one.
  std::shared_ptr<WorkerPool> worker_pool;

  /// No effect. Retried shards always replay their slice from scratch;
  /// the field stays declared only because the perfbench driver still
  /// assigns it, and goes with that driver's next change.
  bool checkpoint_retry = true;
};

/// Which shards of a (possibly sharded) stream actually contributed to the
/// delivered result set. `complete()` on a healthy run; `abandoned > 0`
/// only under ShardOptions::allow_partial after a shard exhausted retries.
struct ShardCoverage {
  int shards = 1;      ///< Sub-streams planned.
  int completed = 0;   ///< Delivered everything.
  int abandoned = 0;   ///< Dropped after retry exhaustion (allow_partial).
  int remote = 0;      ///< Sub-streams served by remote shard workers.
  uint64_t retries = 0;  ///< Shard re-opens performed over the stream's life.
  std::vector<int> abandoned_shards;  ///< Indices of the dropped shards.

  bool complete() const { return abandoned == 0; }
  /// "completed/shards" plus retry and abandonment detail.
  std::string ToString() const;
};

/// Abstract budgeted pull stream over one SkyMapJoin query.
class ProgXeStream {
 public:
  virtual ~ProgXeStream();

  /// Advances the engine by at most ~`max_pairs` join pairs (0 = unbudgeted:
  /// run until at least one result is available or the query finishes) and
  /// fills `*out` (cleared first) with up to `max_results` guaranteed-final
  /// results (0 = no per-call cap). Returns the number delivered. A budgeted
  /// call may return 0 while !Finished(): the slice ended without anything
  /// becoming final (a *yield*) — the next call resumes without redoing
  /// work. A sharded stream keeps pumping ahead after an unbudgeted call
  /// returns (see shard/sharded_stream.h): up to two pumps per shard, each
  /// bounded by one shard emission. The first budgeted calls after an
  /// unbudgeted one apply that work first and may exceed their budget.
  virtual size_t NextBatch(size_t max_results, size_t max_pairs,
                           std::vector<ResultTuple>* out) = 0;

  /// Unbudgeted convenience form.
  size_t NextBatch(size_t max_results, std::vector<ResultTuple>* out) {
    return NextBatch(max_results, /*max_pairs=*/0, out);
  }

  /// Cooperatively tears the stream down (for a sharded stream: waits for
  /// each shard's running pump, dropping the queued ones) and releases
  /// engine state; stats() stays readable. Finished() is true afterwards
  /// and further NextBatch calls deliver nothing. Idempotent.
  virtual void Close() = 0;

  /// True once every result has been delivered or the stream was closed.
  virtual bool Finished() const = 0;

  /// Live counters; final once Finished() is true. For a sharded stream
  /// these are the per-shard engine counters summed elementwise.
  virtual const ProgXeStats& stats() const = 0;

  /// The stream's error channel. OK while healthy; once a failure is not
  /// containable (a session fault, or a sharded stream out of retries
  /// without allow_partial) the stream moves to a *terminal error state*:
  /// Finished() is true, NextBatch delivers nothing more, and this returns
  /// the real failure — NextBatch's size_t alone cannot distinguish "done"
  /// from "died". Everything delivered before the failure remains valid
  /// (final results are final).
  virtual Status last_status() const = 0;

  /// Per-shard coverage of the delivered set. The base implementation
  /// (single session) reports one sub-stream, completed iff the stream
  /// finished healthy; ShardedStream reports real per-shard accounting.
  /// `!complete()` is exactly the partial-results case.
  virtual ShardCoverage coverage() const;
};

/// Opens the stream implementation `shards` selects: a plain ProgXeSession
/// for `num_shards <= 1` with no workers, a ShardedStream otherwise (a
/// worker list distributes even a single shard). This is the only
/// constructor the serving layer and tools use.
Result<std::unique_ptr<ProgXeStream>> OpenProgXeStream(
    const SkyMapJoinQuery& query, ProgXeOptions options,
    const ShardOptions& shards = {});

}  // namespace progxe
