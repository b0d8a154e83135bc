// Experiment driver: runs any of the paper's seven algorithms on a workload
// and returns the progressiveness series plus work counters. Shared by every
// figure bench and by the integration tests.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "harness/series.h"
#include "harness/workload.h"
#include "progxe/config.h"
#include "progxe/stream.h"

namespace progxe {

/// The algorithms compared in Section VI.
enum class Algo {
  kProgXe,             // ProgOrder + progressive flush (Algorithms 1-2)
  kProgXePlus,         // + skyline partial push-through
  kProgXeNoOrder,      // random region order, progressive flush on
  kProgXePlusNoOrder,  // push-through + random order
  kJfSl,               // blocking join-first skyline-later
  kJfSlPlus,           // JF-SL + push-through
  kSsmj,               // two-batch skyline-sort-merge-join
  kSaj,                // Fagin-style sorted access, threshold termination
};

const char* AlgoName(Algo algo);

/// Inverse of AlgoName. Returns false on an unknown name.
bool AlgoFromName(const std::string& name, Algo* out);

/// True for the four ProgXe variants (the algorithms a ProgXeStream — and
/// hence the multi-query serving layer and the sharded executor — can
/// drive).
bool IsProgXeVariant(Algo algo);

/// All progressive + blocking algorithms, in presentation order.
std::vector<Algo> AllAlgos();

/// Outcome of one algorithm run on one workload.
struct ExperimentRun {
  Algo algo = Algo::kProgXe;
  ProgressivenessMetrics metrics;
  std::vector<SeriesPoint> series;
  uint64_t dominance_comparisons = 0;
  uint64_t join_pairs = 0;
  /// SSMJ only: early batch-1 results later found dominated.
  size_t early_false_positives = 0;
  /// ProgXe stream path only: per-shard coverage of the delivered set —
  /// `!complete()` when ShardOptions::allow_partial let a run finish with
  /// abandoned shards. Default-complete for the baselines.
  ShardCoverage coverage;
  /// ProgXe in-process stream path only: the output grid's resolved cells
  /// per dimension (the partition size delta) — one entry unsharded, one
  /// per shard otherwise (0 for a remote shard). Empty for the baselines.
  std::vector<int> output_cells_per_dim;
  /// The emitted results (final skyline; SSMJ false positives excluded).
  std::vector<ResultTuple> results;
};

/// Runs `algo` on `workload`. `tuning` seeds the ProgXe variants' grid
/// parameters (ordering/push-through fields are overridden per algo);
/// `shards` with num_shards > 1 drives the variant through a ShardedStream
/// (ProgXe variants only — baselines ignore it).
Result<ExperimentRun> RunAlgorithm(Algo algo, const Workload& workload,
                                   ProgXeOptions tuning = ProgXeOptions(),
                                   const ShardOptions& shards = {});

/// ProgXe options corresponding to a variant (exposed for tests).
ProgXeOptions OptionsForAlgo(Algo algo, ProgXeOptions tuning);

/// Sorts results into a canonical order and returns (r_id, t_id) pairs —
/// used to compare algorithms' final answers.
std::vector<std::pair<RowId, RowId>> CanonicalIdPairs(
    const std::vector<ResultTuple>& results);

}  // namespace progxe
