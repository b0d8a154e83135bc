// ShardEngine: the per-shard seam inside ShardedStream.
//
// The sharded merge needs exactly four things from a shard: a budgeted
// pump, an error channel, cumulative engine counters and the
// RemainingLowerBound frontier-corner watermark. This interface names that
// contract so the shard can live anywhere:
//
//   * LocalShardEngine — the original in-process ProgXeSession, pumped
//     directly (the only implementation before distribution).
//   * RemoteShardStream (net/remote_shard.h) — the same contract spoken
//     over the wire protocol to a shard-worker daemon; stats and the
//     watermark are per-pump snapshots streamed back with each reply.
//
// The merge logic (dominator filtering, quorum release on watermarks,
// quarantine/retry/replay) is identical either way: a transport failure
// surfaces through last_status() as a retryable kUnavailable, exactly like
// an injected in-process fault.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "progxe/session.h"

namespace progxe {

class ShardEngine {
 public:
  virtual ~ShardEngine();

  /// Budgeted pump, same contract as ProgXeStream::NextBatch: advance by at
  /// most ~max_pairs join pairs (0 = until at least one result or done) and
  /// deliver up to max_results locally-final tuples (0 = uncapped).
  virtual size_t NextBatch(size_t max_results, size_t max_pairs,
                           std::vector<ResultTuple>* out) = 0;

  /// Tears the engine down (idempotent); stats() stays readable.
  virtual void Close() = 0;

  /// Cumulative engine counters. For a remote shard this is the last
  /// snapshot the worker reported (updated with every open/pump reply), so
  /// the coordinator's before/after pump deltas stay exact.
  virtual const ProgXeStats& stats() const = 0;

  /// OK while healthy. Engine faults and transport failures (heartbeat
  /// timeout, connection reset) land here; IsRetryable() failures ride the
  /// sharded stream's quarantine/retry path.
  virtual Status last_status() const = 0;

  /// The shard's remaining-output frontier corner (canonical space); false
  /// iff the shard can emit nothing more. Remote engines answer from the
  /// watermark streamed with the last reply — a valid (if slightly stale)
  /// bound, since a session's frontier only rises.
  virtual bool RemainingLowerBound(std::vector<double>* lo) const = 0;

  /// The immutable prepared state backing the shard, for retry re-opens
  /// that skip the prepare phase. Null when not applicable (remote shards
  /// re-ship their slice instead — possibly to a different engine).
  virtual std::shared_ptr<const PreparedInputs> prepared_inputs() const {
    return nullptr;
  }

  /// Cumulative coverage bookkeeping work of this engine's region loop (see
  /// RegionLoop::coverage_cells_walked). 0 for remote engines.
  virtual uint64_t coverage_cells_walked() const { return 0; }
};

/// The in-process implementation: a thin forwarding wrapper over one
/// ProgXeSession.
class LocalShardEngine : public ShardEngine {
 public:
  explicit LocalShardEngine(std::unique_ptr<ProgXeSession> session)
      : session_(std::move(session)) {}

  size_t NextBatch(size_t max_results, size_t max_pairs,
                   std::vector<ResultTuple>* out) override {
    return session_->NextBatch(max_results, max_pairs, out);
  }
  void Close() override { session_->Close(); }
  const ProgXeStats& stats() const override { return session_->stats(); }
  Status last_status() const override { return session_->last_status(); }
  bool RemainingLowerBound(std::vector<double>* lo) const override {
    return session_->RemainingLowerBound(lo);
  }
  std::shared_ptr<const PreparedInputs> prepared_inputs() const override {
    return session_->prepared_inputs();
  }
  uint64_t coverage_cells_walked() const override {
    return session_->coverage_cells_walked();
  }

 private:
  std::unique_ptr<ProgXeSession> session_;
};

}  // namespace progxe
