// PreparePhase: everything the ProgXe executor does before the first join
// pair is generated — query validation, optional skyline push-through,
// sigma measurement, contribution tables, input partitioning and the
// output-space look-ahead. Separated from the region loop so the two stages
// are independently testable and so a pull-based session can hold the
// prepared state across incremental NextBatch calls.
//
// The prepared state is split along the mutability line:
//
//   * PreparedInputs is *immutable* once built — it depends only on the
//     sources, the join key, the canonical mapping and the prepare-affecting
//     options, never on how the query is consumed. A single PreparedInputs
//     can therefore back any number of concurrent sessions (it is held as
//     shared_ptr<const>): that is what the PrepareCache (prepare_cache.h)
//     shares across queries and what a sharded stream reuses when it
//     re-opens a quarantined shard.
//   * PreparedQuery is the thin per-query view: the shared inputs plus a
//     private copy of the look-ahead result, which the region loop consumes
//     (region flags and the marked table move into the runtime structures).
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "grid/input_grid.h"
#include "outputspace/lookahead.h"
#include "progxe/executor.h"
#include "skyline/group_skyline.h"

namespace progxe {

/// The immutable output of the prepare stage. Self-referential (r_rel/t_rel
/// may point at the owned copies), hence neither copyable nor movable —
/// always built in place behind a shared_ptr.
struct PreparedInputs {
  PreparedInputs() = default;
  PreparedInputs(const PreparedInputs&) = delete;
  PreparedInputs& operator=(const PreparedInputs&) = delete;

  CanonicalMapper mapper;
  int k = 0;

  /// Owned working copies. Populated when push-through pruned the sources,
  /// or when the inputs were built with own_sources (cache entries must not
  /// dangle when the submitter frees its relations); empty when r_rel/t_rel
  /// alias the caller's relations directly.
  Relation r_store{Schema::Anonymous(0)};
  Relation t_store{Schema::Anonymous(0)};
  /// Maps working row ids back to the caller's original row ids.
  std::vector<RowId> r_orig_ids;
  std::vector<RowId> t_orig_ids;
  /// The working sources: the originals, or the owned copies above.
  const Relation* r_rel = nullptr;
  const Relation* t_rel = nullptr;

  double sigma = 0.0;

  std::unique_ptr<ContributionTable> r_contrib;
  std::unique_ptr<ContributionTable> t_contrib;
  InputGrid r_grid;
  InputGrid t_grid;

  /// Pristine look-ahead template; every session copies it (the region loop
  /// mutates region flags and moves the marked table out).
  LookaheadResult lookahead;

  /// True when the query provably produces nothing (an empty source or a
  /// measured-empty join): the region loop is skipped entirely.
  bool trivially_empty = false;

  /// The prepare-side counter deltas (rows, push-through sizes, sigma,
  /// look-ahead stats). Replayed into the consuming session's stats so a
  /// cache hit reports counters bit-identical to a cold build.
  ProgXeStats prepare_stats;

  /// Grid resolutions as resolved during the build (the caller's explicit
  /// values, or the auto-chosen ones). Written back into the consuming
  /// session's options so downstream cost models see identical values on
  /// cold and cached paths.
  int resolved_input_cells_per_dim = 0;
  int resolved_output_cells_per_dim = 0;

  /// Rough retained-heap estimate for the PrepareCache byte budget.
  size_t ApproxBytes() const;
};

/// Per-query prepared state: the shared immutable inputs plus this query's
/// private (mutable) look-ahead copy.
struct PreparedQuery {
  PreparedQuery() = default;
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  std::shared_ptr<const PreparedInputs> inputs;
  /// This query's mutable copy of inputs->lookahead; consumed by RegionLoop.
  LookaheadResult lookahead;
  bool trivially_empty = false;
};

/// Measured join selectivity |R join T| / (|R| * |T|) of two key indexes:
/// one merge of their key lists summing |run_R| * |run_T|, no pair formed.
double MeasuredJoinSelectivity(const KeyIndex& r, const KeyIndex& t);

/// The same over every row of `r` and `t` (radix-sorts both by key).
double MeasuredJoinSelectivity(const Relation& r, const Relation& t);

/// Validates `query`/`options` and builds the immutable prepared state.
/// Never mutates `options`; the resolved grid resolutions and prepare-side
/// stats are recorded on `*out` and applied by AdoptPreparedInputs. With
/// `own_sources`, `*out` copies the (unpruned) sources so it stays valid
/// after the caller frees its relations — required for cache entries;
/// direct opens pass false and alias the caller's relations.
Status BuildPreparedInputs(const SkyMapJoinQuery& query,
                           const ProgXeOptions& options, bool own_sources,
                           PreparedInputs* out);

/// Binds previously built inputs to one query: copies the look-ahead
/// template, replays the prepare-side stats into `*stats` and writes the
/// resolved grid resolutions back into `*options`. Cold builds and cache
/// hits both go through here, so the two paths are identical by
/// construction.
void AdoptPreparedInputs(std::shared_ptr<const PreparedInputs> inputs,
                         ProgXeOptions* options, ProgXeStats* stats,
                         PreparedQuery* out);

/// The classic cold path: BuildPreparedInputs (aliasing the caller's
/// relations) + AdoptPreparedInputs. Resolves auto-chosen grid resolutions
/// into `*options` and fills the prepare-side counters of `*stats`.
Status PreparePhase(const SkyMapJoinQuery& query, ProgXeOptions* options,
                    ProgXeStats* stats, PreparedQuery* out);

}  // namespace progxe
