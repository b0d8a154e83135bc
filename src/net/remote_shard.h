// RemoteShardStream: a ShardEngine whose session runs in a shard-worker
// process.
//
// Open ships the shard assignment (options + map + preference + both
// relation slices) to a worker over a pooled connection; each NextBatch is
// one kPump RPC whose reply carries the worker's locally-final candidates,
// its RemainingLowerBound watermark and a full ProgXeStats snapshot. The
// coordinator caches the last watermark and stats, so the merge's release
// check and before/after pump deltas read exactly as they do for a local
// ProgXeSession — the seam is invisible above ShardEngine.
//
// Failures unify with the in-process fault model: a heartbeat-timeout or
// severed connection surfaces through last_status() as a retryable
// kUnavailable, which ShardedStream's quarantine/backoff/idempotent-replay
// machinery handles identically to an injected shard.next_batch fault. The
// retry re-opens on a (typically different) worker and re-ships the slice;
// prepared_inputs() is deliberately null for remote shards.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/worker_pool.h"
#include "shard/shard_engine.h"

namespace progxe {

class RemoteShardStream : public ShardEngine {
 public:
  /// Ships the assignment to the worker at `endpoint` and opens the remote
  /// session (the reply carries the prepare-phase stats + initial
  /// watermark). `options` must already carry the shard's fault_instance /
  /// seed; its coordinator-local pointers (faults, prepare_cache) do not
  /// travel.
  static Result<std::unique_ptr<RemoteShardStream>> Open(
      std::shared_ptr<WorkerPool> pool, const std::string& endpoint,
      int shard_index, const Relation& r, const Relation& t,
      const MapSpec& map, const Preference& pref,
      const ProgXeOptions& options);

  ~RemoteShardStream() override;

  size_t NextBatch(size_t max_results, size_t max_pairs,
                   std::vector<ResultTuple>* out) override;
  /// Clean close returns the connection to the pool for reuse; a failed
  /// link is dropped. Idempotent.
  void Close() override;
  const ProgXeStats& stats() const override { return stats_; }
  Status last_status() const override { return status_; }
  bool RemainingLowerBound(std::vector<double>* lo) const override;

  const std::string& endpoint() const { return endpoint_; }

 private:
  RemoteShardStream(std::shared_ptr<WorkerPool> pool, std::string endpoint,
                    int shard_index);

  std::shared_ptr<WorkerPool> pool_;
  std::string endpoint_;
  int shard_index_;
  std::unique_ptr<WorkerConnection> conn_;

  ProgXeStats stats_;        ///< last snapshot streamed from the worker
  Status status_;            ///< engine/transport health
  bool has_bound_ = false;   ///< last watermark: shard can still emit
  std::vector<double> bound_;
  bool closed_ = false;
};

}  // namespace progxe
