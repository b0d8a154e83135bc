// ShardedStream: the sharded implementation of ProgXeStream.
//
// The planner hash-partitions both sources by join key into K disjoint
// shards (shard/shard_planner.h), one ProgXeSession per shard. Each pump
// round splits the caller's pair budget across the runnable shards and
// funnels their locally-final outputs into a merge sink that re-validates
// finality *globally* before emitting.
//
// The shards' work runs concurrently on one process-wide pool of at most
// hardware_concurrency threads, shared by every sharded stream in the
// process (so a scheduler serving several sharded queries adds no threads
// per query); the merge stays on the calling (coordinator) thread:
//
//   * Open prepares every shard on the pool at once.
//   * Each shard has a pump chain: the pumps issued to it run one after
//     another on some pool thread, and each returns a self-contained
//     PumpResult — tuples, status, post-pump ProgXeStats, the coverage-cell
//     delta and the remaining-bound snapshot (or "exhausted").
//   * Run-ahead rule: an unbudgeted call (max_pairs == 0) pumps each shard
//     to its next local emission, which does not depend on when it runs, so
//     every unbudgeted shard keeps up to two pumps in flight ahead of the
//     merge — also after NextBatch returns, which is what lets the next
//     call find results waiting. A budgeted call (a scheduler slice) issues
//     each runnable shard one pump with its share of the budget; the
//     round's shards pump concurrently, with no run-ahead, so nothing runs
//     between slices. Budgeted calls that follow an unbudgeted one first
//     apply the pumps it left in flight (at most two per shard, each
//     bounded by one emission; one per shard per round) and charge their
//     pairs, so those calls — at most two — may exceed their budget; no
//     budgeted pump is issued to a shard until its leftovers are applied.
//   * Ordered apply: each round, the coordinator applies one PumpResult
//     per runnable shard, in shard order (round-robin). Ingest,
//     RefreshBoundsAndRelease and stats() read only applied results, never
//     a live engine. A shard's pump sequence is internal to
//     it, so the merge input — and with it the delivered set, per-shard
//     ProgXeStats, merge_comparisons() and held_peak() — is bit-identical
//     at any pool size and interleaving.
//   * Determinism rule: coordinator fault sites (shard.open,
//     shard.next_batch, merge.release) are drawn on the coordinator in its
//     deterministic order — shard.next_batch once per pump it applies, just
//     before applying it, so draws match applied pumps one for one and a
//     pump run ahead but never applied draws nothing. A fired draw kills
//     the incarnation; the pump it would have applied is dropped. In-engine
//     sites run on the shard's own sequential chain, and FaultInjector counts
//     calls per (rule, instance), so their schedule does not depend on the
//     interleaving either (see common/fault_injection.h for the one
//     exception).
//   * Close, the result cap and quarantine drop the affected shards'
//     queued pumps, wait for the one running per shard (bounded by one
//     emission; the shards' running pumps finish concurrently) and drop the
//     results never applied. Applied pump results go back to their shard
//     for reuse, so a steady pump reuses its tuple and bound buffers.
//
// Remote shards take the same path, so their pump RPCs overlap. The merge:
//
//   * A per-shard "final" certificate only covers that shard's own join
//     pairs — a tuple a shard proved undominated locally may still be
//     dominated by another shard's output, so nothing a sub-session emits
//     may pass through unchecked.
//   * The merge sink keeps the accepted candidates — released or held — as
//     the *dominator frontier*. They are indexed by canonical output cell
//     in a DominanceIndex (dominance/dominance_index.h), the same bitmap
//     cone-sweep structure OutputTable uses, so a new arrival is tested
//     only against accepted entries whose cell lies in its dominator cone
//     instead of the whole accepted list: arrivals any of them strictly
//     dominates are discarded (provably not in the global skyline), and
//     held candidates the arrival dominates are pruned from both the held
//     queue and the index (their dominator now rejects at least as much,
//     so the index stays exactly the Pareto frontier of accepted outputs).
//   * A held candidate is released only once no *other* unfinished shard
//     can still dominate it. Each sub-session exposes its remaining-output
//     frontier (ProgXeSession::RemainingLowerBound — the canonical
//     lower-bound corner of everything it may still deliver); if that
//     corner does not strictly dominate the candidate, no future tuple from
//     that shard can either. The candidate's own shard needs no check: its
//     outputs are its local skyline (a replay re-delivers the same one),
//     whose members never dominate each other. Release checks run
//     once per pump batch and are version-gated: a candidate re-tests only
//     after some shard's frontier corner actually advanced, starting with
//     the shard that blocked it last time.
//
// Fault containment rides on the same structure. A retryable sub-session
// failure quarantines only that shard: its session is torn down and
// re-opened after exponential backoff (ShardOptions::max_retries /
// retry_backoff), and because a shard is a deterministic function of its
// slice + options, the replay re-delivers the same local skyline — a
// per-shard dedup set plus the accepted-frontier filtering make the replay
// idempotent, so the merged delivered set stays bit-identical to a
// fault-free run with zero retractions. A local re-open adopts the first
// incarnation's PreparedInputs, so only the region loop replays; a remote
// one re-ships the slice. The quarantined shard's last
// published frontier corner remains a valid bound on anything *new* it may
// still contribute, so the other shards keep releasing results while it
// recovers. Retry exhaustion either fails the stream (last_status) or,
// under ShardOptions::allow_partial, abandons the shard and completes with
// an honest coverage() report.
//
// Together these give the sharded stream the same contract as a session:
// every delivered tuple is final (no retractions) and the union of all
// deliveries is exactly the unsharded skyline. ProgXeStats are the
// per-shard engine counters summed elementwise, so per-shard work remains
// auditable through the standard counters; the merge sink's own work is
// reported separately (merge_comparisons, merge_seconds, held peak).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "dominance/dominance_index.h"
#include "grid/grid_geometry.h"
#include "mapping/canonical.h"
#include "prefs/dominance.h"
#include "progxe/session.h"
#include "progxe/stream.h"
#include "shard/shard_engine.h"
#include "shard/shard_planner.h"

namespace progxe {

/// The deterministic jittered backoff before re-opening a quarantined
/// shard: retry_backoff doubled per consecutive failure (capped at 64x),
/// scaled by a factor in [0.75, 1.25) (a ±25% jitter) drawn from
/// a splitmix64 mix of (seed, shard, consecutive_failures). Pure function
/// of its arguments — the same seed always reproduces the same schedule —
/// while distinct shards (and successive attempts of one shard) land on
/// different offsets, so simultaneously-sick shards desynchronize.
std::chrono::nanoseconds JitteredRetryBackoff(const ShardOptions& opts,
                                              uint64_t seed, int shard,
                                              int consecutive_failures);

class ShardedStream : public ProgXeStream {
 public:
  /// Plans the shards and opens one sub-session per shard, concurrently
  /// (each runs PreparePhase over its slice). Fault checks and error
  /// reporting stay in shard order: the first failing shard's status fails
  /// Open. `options.max_results` is enforced at the merge sink, not per
  /// shard. The relations behind `query` must outlive the stream; the shard
  /// slices are owned by it.
  static Result<std::unique_ptr<ShardedStream>> Open(
      const SkyMapJoinQuery& query, ProgXeOptions options,
      const ShardOptions& shards);

  ~ShardedStream() override;

  size_t NextBatch(size_t max_results, size_t max_pairs,
                   std::vector<ResultTuple>* out) override;
  void Close() override;
  bool Finished() const override;

  /// Elementwise sum of the sub-sessions' counters (doubles add, flags OR),
  /// including the work done by failed incarnations of retried shards. Only
  /// applied pumps count: work a shard ran ahead and the stream never
  /// merged (Close, result cap) is not included.
  const ProgXeStats& stats() const override;

  /// Shard `shard`'s share of stats(): its failed incarnations plus the
  /// live one as of its last applied pump.
  ProgXeStats shard_stats(int shard) const;

  /// OK while healthy. A retryable sub-session fault quarantines that shard
  /// and replays it (see ShardOptions::max_retries); only retry exhaustion
  /// without allow_partial — or a non-shard-local merge fault — moves the
  /// stream here: a terminal error state holding the shard's failure.
  Status last_status() const override { return status_; }

  /// Real per-shard accounting: completed vs abandoned shards and the
  /// total re-opens performed. `!complete()` iff a shard was abandoned
  /// under allow_partial; the delivered set is then exactly the skyline of
  /// the covered shards' data.
  ShardCoverage coverage() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Candidates currently held back by the global finality check
  /// (diagnostic; 0 once Finished()).
  size_t held_candidates() const { return held_.size(); }

  /// High-water mark of the held queue over the stream's lifetime.
  size_t held_peak() const { return held_peak_; }

  /// Dominance comparisons performed by the merge sink itself (dominator
  /// filtering + finality checks). Kept *out* of stats().dominance_
  /// comparisons, which is by contract the additive sum of the per-shard
  /// engine counters; benches report both.
  uint64_t merge_comparisons() const { return merge_counter_.comparisons; }

  /// Coverage bookkeeping work of every local shard's region loop, summed
  /// over shards and incarnations (RegionLoop::coverage_cells_walked).
  /// Deterministic and kept out of stats(), like the counters above.
  uint64_t coverage_cells_walked() const { return coverage_cells_walked_; }

  /// Each shard's output-grid resolution (cells per dimension, the paper's
  /// partition size delta) as its own prepare resolved it for its slice.
  /// 0 for a remote shard or one never opened.
  std::vector<int> output_cells_per_dim() const;

  /// Wall-clock seconds spent inside the merge sink (candidate ingest +
  /// release checks), excluding the sub-sessions' own work.
  double merge_seconds() const { return merge_seconds_; }

  /// Total live entries across the per-shard replay-dedup sets
  /// (diagnostic; drops to 0 per shard as each finishes healthy).
  size_t dedup_entries() const {
    size_t n = 0;
    for (const SubShard& shard : shards_) n += shard.ingested.size();
    return n;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Everything the coordinator needs from one pump, snapshotted on the
  /// pump thread right after it, so applying it never reads the engine.
  struct PumpResult {
    std::vector<ResultTuple> tuples;
    Status status;
    ProgXeStats stats;  ///< post-pump engine counters
    uint64_t pairs = 0;  ///< join pairs this pump generated
    /// RegionLoop::coverage_cells_walked delta.
    uint64_t coverage_cells = 0;
    bool exhausted = false;      ///< the shard can emit nothing more
    std::vector<double> bound;   ///< remaining-output corner otherwise
  };

  struct SubShard {
    QueryShard slice;
    /// The shard's engine — a LocalShardEngine over an in-process
    /// ProgXeSession, or a RemoteShardStream speaking to a worker daemon
    /// when ShardOptions::workers is set. Null while quarantined (between a
    /// fault and the retry re-open).
    std::unique_ptr<ShardEngine> session;
    /// The first healthy incarnation's immutable prepared state, captured
    /// only when retries are enabled: a re-open adopts it directly
    /// (ProgXeSession::OpenPrepared) instead of re-running push-through /
    /// grids / look-ahead over the slice. Identical by construction — a
    /// shard is a deterministic function of its slice + options — so the
    /// replay contract is unchanged.
    std::shared_ptr<const PreparedInputs> prepared;
    /// Canonical remaining-output frontier corner; meaningful while
    /// `!exhausted`. Empty means "no bound yet" — it blocks every release
    /// (a shard that failed before publishing a frontier may still emit
    /// anything). During quarantine the pre-failure bound stays valid: a
    /// replay re-delivers a subset of what the dead incarnation already
    /// delivered before producing anything new, so the remaining *new*
    /// outputs are bounded by the old frontier; after re-open the bound
    /// only ratchets up componentwise.
    std::vector<double> bound;
    /// True once the session delivered everything: it constrains nothing.
    bool exhausted = false;
    /// Retry budget exhausted under allow_partial: dropped from the merge
    /// like an exhausted shard, recorded in coverage().
    bool abandoned = false;
    /// Consecutive (unrecovered) failures; reset by a successful pump.
    int consecutive_failures = 0;
    /// True once this shard has ever been quarantined: its published bound
    /// then ratchets (componentwise max) instead of being replaced, since a
    /// replaying incarnation's frontier restarts below the frozen one.
    bool replayed = false;
    /// Engines opened for this shard so far. Remote shards rotate their
    /// endpoint by incarnation, so a retry re-opens on a different worker.
    int incarnation = 0;
    /// Earliest re-open time while quarantined (session == nullptr).
    Clock::time_point next_attempt{};
    /// Last failure that quarantined/abandoned this shard.
    Status last_error;
    /// Counters of failed incarnations, summed — stats() adds these to the
    /// live session's so retried work stays auditable.
    ProgXeStats lost_stats;
    /// Replay dedup: packed original (r_id << 32 | t_id) of every tuple
    /// this shard already ingested into the merge, across incarnations. A
    /// replayed duplicate is point-*equal* to its accepted twin, which
    /// strict dominance would not filter — this set is what makes replay
    /// idempotent. Only populated when retries are enabled, and freed as
    /// soon as the shard finishes healthy (nothing can replay then).
    std::unordered_set<uint64_t> ingested;
    /// The live incarnation as of its last applied open or pump: counters,
    /// and remaining-output corner or exhaustion. The coordinator reads a
    /// shard only through these, never through the (possibly run-ahead)
    /// engine.
    ProgXeStats applied_stats;
    std::vector<double> applied_bound;
    bool applied_exhausted = false;
    int output_cells_per_dim = 0;
    /// Coordinator-only: pumps issued and not yet applied.
    int in_flight = 0;
    /// The pump chain, guarded by mu_: the pair budgets of pumps issued but
    /// not started, pumps finished but not applied, applied results kept
    /// for reuse, whether a pool thread owns the engine, and whether the
    /// chain stopped after a failed or exhausting pump.
    std::deque<size_t> requests;
    std::deque<PumpResult> results;
    std::vector<PumpResult> spare;
    bool pumping = false;
    bool halted = false;
  };

  /// One locally-final tuple awaiting the global finality check. Its
  /// canonical vector lives in acc_canon_ at `acc_id`.
  struct Candidate {
    ResultTuple tuple;  // original row ids, user-space values
    int shard = 0;
    int32_t acc_id = 0;
    /// Shard whose frontier corner blocked the last finality check, or -1.
    int blocker = -1;
    /// bounds_version_ at the last failed finality check; the candidate is
    /// re-tested only once some shard's bound advanced past it.
    uint64_t checked_version = 0;
  };

  ShardedStream() = default;

  bool AllExhausted() const;
  bool CapReached() const {
    return cap_ != 0 && delivered_ >= cap_;
  }
  /// (Re-)opens shard `i`'s engine over its slice. Touches only shard `i`,
  /// so Open runs it on the pool; the caller draws the shard.open fault.
  Status OpenEngine(size_t i);
  /// Coordinator side of a successful open: folds the incarnation's set-up
  /// work into the stream counters and takes its first snapshot.
  void AdoptOpened(size_t i);
  /// Containment: snapshots the dead incarnation's counters, tears it down
  /// and either quarantines the shard for retry (exponential backoff),
  /// abandons it (retry budget gone, allow_partial) or fails the whole
  /// stream (budget gone, fail-fast; or a non-retryable error).
  void OnShardFailure(size_t i, Status status);
  /// Moves the stream to the terminal error state: sub-sessions closed,
  /// merge state dropped, `status` held for last_status().
  void FailStream(Status status);
  /// Earliest quarantined shard re-open time (Clock::time_point::max() if
  /// none are quarantined).
  Clock::time_point NextRetryAt() const;
  /// One round: issues every runnable shard its pump (`per_shard` pairs,
  /// 0 = to the next emission, with run-ahead), re-opens quarantined
  /// shards whose backoff expired, and applies one result per shard in
  /// shard order. Returns the pairs the applied pumps consumed.
  uint64_t PumpRound(size_t per_shard);
  /// Queues one pump on shard `i`'s chain, starting the chain on the pool
  /// if it is idle.
  void Issue(size_t i, size_t max_pairs);
  /// Keeps kRunAhead unbudgeted pumps in flight on a healthy shard.
  void TopUp(size_t i);
  /// Runs shard `i`'s queued pumps in order (on a pool thread).
  void RunChain(size_t i);
  /// One pump of shard `i`'s engine, snapshotted into `result` (which may
  /// be a recycled one).
  void PumpOnce(size_t i, size_t max_pairs, PumpResult* result);
  /// Waits for shard `i`'s oldest unapplied result.
  PumpResult Take(size_t i);
  /// Applies one pump result: failure containment, or counters, snapshot
  /// and Ingest.
  void Apply(size_t i, PumpResult* result);
  /// Hands an applied result back to shard `i`'s chain for reuse.
  void Recycle(size_t i, PumpResult result);
  /// Drops shard `i`'s queued pumps, waits out the running one and
  /// discards every unapplied result.
  void Quiesce(size_t i);
  /// Quiesces every shard, then closes the engines.
  void Shutdown();
  /// Filters a sub-session batch through the accepted-frontier index and
  /// admits the survivors into the held queue.
  void Ingest(size_t shard_idx, const std::vector<ResultTuple>& batch);
  /// Removes a (necessarily held) accepted entry that a new arrival
  /// strictly dominates from the index and the held queue.
  void DropAccepted(int32_t acc_id);
  /// Re-reads every runnable shard's frontier, then moves the held
  /// candidates no unfinished foreign shard can still dominate into the
  /// ready queue. Runs once per pump batch.
  void RefreshBoundsAndRelease();
  bool GloballyFinal(Candidate* candidate);
  /// Drops all merge-sink state (cap reached / Close).
  void ReleaseMergeState();

  std::vector<SubShard> shards_;
  /// Retained for retry re-opens (the relations outlive the stream by the
  /// Open contract; the slices live in shards_).
  SkyMapJoinQuery query_;
  /// The per-shard engine options (cap stripped); OpenEngine stamps
  /// fault_instance per shard.
  ProgXeOptions sub_options_;
  ShardOptions shard_options_;
  /// Effective injector for the shard.*/merge.* sites: the programmatic
  /// one when set, else the process-wide env one, else null. Not owned
  /// (sub_options_.faults or process lifetime).
  FaultInjector* faults_ = nullptr;
  /// Worker connection pool; non-null iff shard_options_.workers is set
  /// (created privately when the caller supplied none).
  std::shared_ptr<WorkerPool> pool_;
  CanonicalMapper mapper_;
  int k_ = 0;
  size_t cap_ = 0;  // options.max_results, merge-level
  size_t delivered_ = 0;
  bool closed_ = false;
  bool failed_ = false;
  Status status_;  // non-OK once failed_
  uint64_t total_retries_ = 0;
  /// Set when a shard exhausts or is abandoned outside
  /// RefreshBoundsAndRelease, so the next release pass re-checks held
  /// candidates even if no surviving bound moved.
  bool bounds_dirty_ = false;

  /// Canonical-cell quantization of the accepted set: a uniform grid over
  /// the query's canonical output hull (interval arithmetic over the full
  /// attribute boxes). Only monotonicity of the quantization is relied on,
  /// so edge clamping cannot cost correctness.
  GridGeometry merge_grid_;

  /// The accepted Pareto frontier, indexed by canonical cell. Entry
  /// payloads are acc ids; dominated held entries are removed on arrival of
  /// their dominator, so every live entry is released or held.
  DominanceIndex accepted_;
  std::vector<double> acc_canon_;   // k_ doubles per acc id, append-only
  std::vector<int32_t> acc_pos_;    // acc id -> index position (-1 pruned)
  std::vector<int32_t> acc_held_;   // acc id -> held_ position (-1 if not held)

  std::vector<Candidate> held_;
  size_t held_peak_ = 0;

  /// Monotone version of the per-shard bound set; bumped whenever any
  /// shard's frontier corner changes or a shard exhausts.
  uint64_t bounds_version_ = 1;

  /// Released results not yet handed to the caller:
  /// [ready_pos_, ready_.size()).
  std::vector<ResultTuple> ready_;
  size_t ready_pos_ = 0;

  mutable ProgXeStats agg_stats_;
  DomCounter merge_counter_;
  double merge_seconds_ = 0.0;
  uint64_t coverage_cells_walked_ = 0;
  std::vector<double> canon_scratch_;
  std::vector<CellCoord> coord_scratch_;

  /// Guards the shards' pump chains and Open's prepare tally.
  std::mutex mu_;
  std::condition_variable done_cv_;  ///< coordinator: a result or idle chain
};

}  // namespace progxe
