// ProgXeSession: the pull-based incremental consumption API over the
// staged executor (PreparePhase + RegionLoop).
//
//   auto session = ProgXeSession::Open(query, options);   // validates, prepares
//   std::vector<ResultTuple> batch;
//   while ((*session)->NextBatch(100, &batch) > 0) {
//     ...  // every tuple is already guaranteed final — consume, render, ship
//   }
//
// NextBatch runs the engine only as far as needed to produce the next
// results, so a caller can interleave consumption with its own work, stop
// early at any point, or drive many sessions from one scheduler — while the
// result stream and every ProgXeStats counter stay bit-identical to a
// one-shot ProgXeExecutor::Run (which is itself a thin loop over a session).
//
// ProgXeSession is the single-process implementation of the abstract
// ProgXeStream interface (progxe/stream.h); consumers above the engine hold
// a ProgXeStream and never name this type.
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "progxe/executor.h"
#include "progxe/prepare.h"
#include "progxe/region_loop.h"
#include "progxe/stream.h"

namespace progxe {

class ProgXeSession : public ProgXeStream {
 public:
  /// Validates the query and runs PreparePhase (push-through, contribution
  /// tables, grids, look-ahead). No join pair is generated yet. The
  /// relations behind `query` must outlive the session — unless the
  /// prepared state came from options.prepare_cache, whose entries own
  /// source copies. With a cache set, Open fingerprints the query first: a
  /// hit skips the prepare phase entirely (stats and resolved options are
  /// replayed bit-identically from the cached build), a miss builds a
  /// self-contained entry and publishes it.
  static Result<std::unique_ptr<ProgXeSession>> Open(
      const SkyMapJoinQuery& query, ProgXeOptions options);

  /// Opens directly over previously built prepared state, skipping the
  /// prepare phase. Used by the sharded stream to re-open a quarantined
  /// shard without re-running push-through/grids/look-ahead, and by anyone
  /// holding a cache entry. The inputs' sources must stay alive for the
  /// session's lifetime (guaranteed when `inputs` owns its copies).
  static Result<std::unique_ptr<ProgXeSession>> OpenPrepared(
      std::shared_ptr<const PreparedInputs> inputs, ProgXeOptions options);

  ProgXeSession(const ProgXeSession&) = delete;
  ProgXeSession& operator=(const ProgXeSession&) = delete;

  /// Closes the session, then destroys it (workers joined, state freed).
  ~ProgXeSession() override;

  /// The unbudgeted base-class form advances the engine until at least one
  /// result is available (or the run finishes); delivery returns 0 iff
  /// Finished(). Results beyond the `max_results` cap stay buffered for the
  /// next call, so the delivered stream is exactly the Run emission stream.
  using ProgXeStream::NextBatch;

  /// Budget-aware NextBatch — the scheduler's time slice. Advances the
  /// engine by at most ~`max_pairs` join pairs (0 = unbudgeted) and returns
  /// whatever results that work produced, up to `max_results`. A budgeted
  /// call may return 0 while !Finished(): the slice ended mid-region (a
  /// *yield*) — the next call resumes at the same join pair without redoing
  /// work. Concatenating delivered batches over any sequence of budgets
  /// reproduces the Run emission stream and all ProgXeStats counters
  /// bit-identically.
  size_t NextBatch(size_t max_results, size_t max_pairs,
                   std::vector<ResultTuple>* out) override;

  /// Cooperatively tears the session down: releases the prepared query
  /// state and scratch buffers, and drops undelivered results. Finished()
  /// is true afterwards and further NextBatch calls deliver nothing.
  /// Idempotent; the destructor delegates here, so an explicit Close is
  /// only needed to reclaim resources before the session object itself
  /// goes away.
  void Close() override;

  /// True once every result has been delivered (the run completed, hit
  /// options.max_results, or the query was provably empty), the session
  /// failed, or it was closed.
  bool Finished() const override;

  /// Live counters; final once Finished() is true.
  const ProgXeStats& stats() const override { return stats_; }

  /// OK while healthy. A NextBatch failure (today: an injected
  /// "session.next_batch" fault from ProgXeOptions::faults) tears the
  /// engine state down, drops undelivered results and parks the session in
  /// a terminal error state — Finished() true, stats() readable, every
  /// further NextBatch empty — with the failure held here.
  Status last_status() const override { return status_; }

  /// The session's remaining-output frontier: fills `lo[0..k)` (resized)
  /// with a canonical-space componentwise lower bound on every result this
  /// session may still deliver. Returns false — leaving `*lo` unspecified —
  /// iff nothing remains (Finished()). The bound covers undelivered flushed
  /// results, live tuples in unflushed cells and every unprocessed region,
  /// so a merge layer may treat any point the bound cannot dominate as
  /// globally final (the cross-shard finality check in
  /// shard/sharded_stream.cc).
  bool RemainingLowerBound(std::vector<double>* lo) const;

  const ProgXeOptions& options() const { return options_; }

  /// The immutable prepared state backing this session (null after Close or
  /// failure). Capture it to re-open an equivalent session via OpenPrepared
  /// without paying the prepare phase again.
  std::shared_ptr<const PreparedInputs> prepared_inputs() const {
    return prep_ != nullptr ? prep_->inputs : nullptr;
  }

  /// True iff Close() has run (explicitly or via early teardown).
  bool closed() const { return closed_; }

  /// Coverage bookkeeping work so far (RegionLoop::coverage_cells_walked;
  /// 0 for a loop-less session).
  uint64_t coverage_cells_walked() const {
    return loop_ != nullptr ? loop_->coverage_cells_walked() : 0;
  }

  /// The region loop (null for trivially-empty, failed or closed sessions):
  /// read-only access for diagnostics and reference checks.
  const RegionLoop* region_loop() const { return loop_.get(); }

 private:
  ProgXeSession() = default;

  /// Shared tail of Open/OpenPrepared: builds the region loop over the
  /// adopted prepared state.
  void StartLoop();

  /// Moves to the terminal error state: engine state freed (workers
  /// joined), undelivered results dropped, `status_` set.
  void Fail(Status status);

  ProgXeOptions options_;
  ProgXeStats stats_;
  std::unique_ptr<PreparedQuery> prep_;
  std::unique_ptr<RegionLoop> loop_;  // null for trivially-empty queries
  bool closed_ = false;
  Status status_;  // non-OK once failed

  /// Flushed-but-undelivered results: [pending_pos_, pending_.size()).
  std::vector<ResultTuple> pending_;
  size_t pending_pos_ = 0;
};

}  // namespace progxe
