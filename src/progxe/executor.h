// The ProgXe progressive SkyMapJoin executor (Figure 2 of the paper).
//
// Pipeline per query:
//   1. (optional, "+" variants) skyline partial push-through on each source
//   2. contribution tables + input grids with sorted join-key runs
//   3. output-space look-ahead: regions, region pruning, cell marking
//   4. iterated tuple-level processing, region order chosen by ProgOrder,
//      with Algorithm 2's flush rule releasing safe partitions after every
//      region
//
// Every tuple handed to the emit callback is guaranteed to be in the final
// skyline (no retractions), and the union of all emissions is exactly the
// skyline of the mapped join (completeness).
//
// Stages 1-3 live in progxe/prepare.h (PreparePhase) and stage 4 in
// progxe/region_loop.h (RegionLoop); ProgXeExecutor::Run is a thin loop
// over the pull-based ProgXeStream (progxe/stream.h) that composes them.
#pragma once

#include <memory>

#include "common/status.h"
#include "data/relation.h"
#include "mapping/canonical.h"
#include "mapping/map_expr.h"
#include "prefs/preference.h"
#include "progxe/config.h"

namespace progxe {

/// A SkyMapJoin query: skyline of `pref` over `map` applied to R join T.
struct SkyMapJoinQuery {
  const Relation* r = nullptr;
  const Relation* t = nullptr;
  MapSpec map;
  Preference pref;
};

class ProgXeExecutor {
 public:
  ProgXeExecutor(SkyMapJoinQuery query, ProgXeOptions options);
  ~ProgXeExecutor();

  ProgXeExecutor(const ProgXeExecutor&) = delete;
  ProgXeExecutor& operator=(const ProgXeExecutor&) = delete;

  /// Runs the query to completion, invoking `emit` progressively. Reusable:
  /// each call starts a fresh run with zeroed counters over the same query,
  /// and identical runs produce identical results and stats.
  Status Run(const EmitFn& emit);

  /// Counters of the most recent Run (live during a Run's emit callbacks).
  const ProgXeStats& stats() const { return stats_; }

 private:
  SkyMapJoinQuery query_;
  ProgXeOptions options_;
  ProgXeStats stats_;
};

/// Convenience wrapper: runs a ProgXe query and returns all results.
Result<std::vector<ResultTuple>> RunProgXe(const SkyMapJoinQuery& query,
                                           const ProgXeOptions& options,
                                           ProgXeStats* stats_out = nullptr);

}  // namespace progxe
