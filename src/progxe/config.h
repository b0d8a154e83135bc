// Public configuration, result and statistics types of the ProgXe engine.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/stat_fields.h"
#include "data/relation.h"

namespace progxe {

class FaultInjector;  // common/fault_injection.h
class PrepareCache;   // progxe/prepare_cache.h

/// Accepted output points of a finished (or partially finished) query,
/// canonicalized under the *consuming* query's mapper. Used to seed a
/// refined query's region loop: any genuine output point of the same
/// (sources, mapping) pair is a sound dominance witness — some skyline
/// member dominates every tuple of a cell strictly above the point's cell,
/// so the loop marks those cells like the insert path's, and the regions
/// whose lo_cell they hold go before any join work (see region_loop.cc).
struct RefinementSeed {
  /// Output dimensionality; `canonical` holds points() rows of k values.
  int k = 0;
  std::vector<double> canonical;

  size_t points() const {
    return k > 0 ? canonical.size() / static_cast<size_t>(k) : 0;
  }
};

/// How ProgOrder sequences regions for tuple-level processing.
enum class OrderingMode : uint8_t {
  /// Benefit/cost ranking over EL-Graph roots (Algorithm 1).
  kProgOrder,
  /// Uniform random order: the paper's ProgXe (No-Order) variant.
  kRandom,
  /// Region-id order (deterministic baseline for tests).
  kSequential,
};

/// The four ProgXe variants evaluated in Section VI-B.
struct ProgXeOptions {
  OrderingMode ordering = OrderingMode::kProgOrder;
  /// Apply skyline partial push-through to each source first (the "+"
  /// variants: ProgXe+ and ProgXe+ (No-Order)).
  bool push_through = false;

  /// Input grid cells per (output) dimension for each source; 0 = choose
  /// automatically from the dimensionality (bounded partition count).
  int input_cells_per_dim = 0;
  /// Output grid cells per dimension (the paper's partition size delta);
  /// 0 = size the grid to the work: ~16 * sqrt(|R'| * |T'| * sigma) cells
  /// in total (|R'|, |T'| after push-through), within a 60K budget, at
  /// 4..24 per dimension (the floor drops to 3 or 2 where 4^k would pass
  /// the 8M-cell cap). Each shard resolves its own from its slice
  /// (prepare.cc).
  int output_cells_per_dim = 0;

  /// Seed for the kRandom ordering shuffle.
  uint64_t seed = 0x5eed;

  /// Programmatic fault injection (common/fault_injection.h). When set,
  /// engine call sites consult this injector; when null, they fall back to
  /// the process-wide PROGXE_FAULT_SITES injector for the shard/service
  /// sites (the in-engine "session.next_batch" site fires only from here).
  /// Shared, not owned: per-shard option copies keep one schedule and one
  /// set of fire budgets.
  std::shared_ptr<FaultInjector> faults;

  /// Instance id reported to the injector by in-engine sites — the sharded
  /// stream stamps each sub-session with its shard index so a rule can
  /// target one sick shard (`shard=i`).
  int fault_instance = 0;

  /// Cross-query prepared-state cache (progxe/prepare_cache.h). When set,
  /// ProgXeSession::Open fingerprints the query and reuses a cached
  /// PreparedInputs on hit (skipping the prepare phase) or populates the
  /// cache on miss. Shared, not owned: the service layer hands every
  /// submitted query the scheduler-wide cache, and the sharded stream
  /// passes it through so per-shard slices cache independently.
  std::shared_ptr<PrepareCache> prepare_cache;

  /// Refinement seeding (see RefinementSeed). When set, the region loop
  /// marks the cells strictly above each seed point's cell, and its first
  /// Step discards every region whose lo_cell is marked — the parent's
  /// frontier re-proves those regions empty without a single join pair.
  /// Changes cost only (discards, marked-cell drops), never the result set.
  std::shared_ptr<const RefinementSeed> refinement_seed;

  /// Stop after emitting this many results (0 = run to completion). The
  /// progressive pipeline makes this an *early-termination* feature: the
  /// emitted prefix is a set of guaranteed final-skyline members and the
  /// remaining join/skyline work is skipped — the "first page now" mode of
  /// the paper's aggregator and query-refinement applications.
  size_t max_results = 0;
};

/// One emitted SkyMapJoin result: original row ids plus the user-space
/// mapped output values x_1..x_k.
struct ResultTuple {
  RowId r_id = 0;
  RowId t_id = 0;
  std::vector<double> values;
};

/// Progressive emission callback. Invoked zero or more times *during*
/// execution; every emitted tuple is guaranteed to belong to the final
/// skyline (no retractions).
using EmitFn = std::function<void(const ResultTuple&)>;

/// Counters describing one ProgXe run. Every field is listed once more,
/// in declaration order (which is also the wire order), in
/// kProgXeStatsFields below.
struct ProgXeStats {
  // Input / pruning.
  uint64_t r_rows = 0;
  uint64_t t_rows = 0;
  uint64_t r_rows_after_push_through = 0;
  uint64_t t_rows_after_push_through = 0;
  double sigma_used = 0.0;

  // Look-ahead.
  uint64_t partition_pairs_total = 0;
  uint64_t partition_pairs_skipped = 0;
  uint64_t regions_created = 0;
  uint64_t regions_pruned_lookahead = 0;
  uint64_t cells_marked_lookahead = 0;

  // Ordering.
  uint64_t regions_processed = 0;
  uint64_t regions_discarded_runtime = 0;
  /// Regions dropped up front because their lo_cell lies strictly above a
  /// refinement seed point's cell (zero unless refinement_seed is set).
  uint64_t regions_discarded_seed = 0;
  uint64_t pq_reorderings = 0;

  // Tuple-level processing.
  uint64_t join_pairs_generated = 0;
  uint64_t tuples_discarded_marked = 0;
  uint64_t tuples_dominated_on_insert = 0;
  uint64_t tuples_evicted = 0;
  uint64_t dominance_comparisons = 0;

  // Progressive output.
  uint64_t results_emitted = 0;
  uint64_t cells_flushed = 0;
  /// Results emitted strictly before the last region finished processing.
  uint64_t results_emitted_early = 0;

  /// Elementwise sum of every field (sigma adds too) — the one aggregation
  /// used everywhere stats from multiple runs combine: the sharded stream's
  /// per-shard rollup, the server's process totals, the metrics export.
  void Accumulate(const ProgXeStats& other);

  /// `ProgXeStats{name=value ...}` over every field.
  std::string ToString() const;
};

/// Exported as `progxe_executor_<name>[_total]`; summed over runs, so every
/// count is a counter.
inline constexpr StatField<ProgXeStats> kProgXeStatsFields[] = {
    {"r_rows", &ProgXeStats::r_rows, StatKind::kCounter,
     "Left-source rows read"},
    {"t_rows", &ProgXeStats::t_rows, StatKind::kCounter,
     "Right-source rows read"},
    {"r_rows_after_push_through", &ProgXeStats::r_rows_after_push_through,
     StatKind::kCounter, "Left-source rows left after skyline push-through"},
    {"t_rows_after_push_through", &ProgXeStats::t_rows_after_push_through,
     StatKind::kCounter, "Right-source rows left after skyline push-through"},
    {"sigma_used", &ProgXeStats::sigma_used, StatKind::kGauge,
     "Join selectivity estimates used to size the output grid, summed over "
     "runs"},
    {"partition_pairs_total", &ProgXeStats::partition_pairs_total,
     StatKind::kCounter, "Input partition pairs considered by look-ahead"},
    {"partition_pairs_skipped", &ProgXeStats::partition_pairs_skipped,
     StatKind::kCounter,
     "Input partition pairs skipped for disjoint key signatures"},
    {"regions_created", &ProgXeStats::regions_created, StatKind::kCounter,
     "Output regions created by the look-ahead phase"},
    {"regions_pruned_lookahead", &ProgXeStats::regions_pruned_lookahead,
     StatKind::kCounter, "Regions pruned by look-ahead before any join"},
    {"cells_marked_lookahead", &ProgXeStats::cells_marked_lookahead,
     StatKind::kCounter,
     "Output cells marked non-contributing by look-ahead"},
    {"regions_processed", &ProgXeStats::regions_processed, StatKind::kCounter,
     "Regions fully joined by the region loop"},
    {"regions_discarded_runtime", &ProgXeStats::regions_discarded_runtime,
     StatKind::kCounter, "Regions discarded at runtime by marked cells"},
    {"regions_discarded_seed", &ProgXeStats::regions_discarded_seed,
     StatKind::kCounter, "Regions discarded up front by refinement seeds"},
    {"pq_reorderings", &ProgXeStats::pq_reorderings, StatKind::kCounter,
     "Region priority-queue re-rankings"},
    {"join_pairs_generated", &ProgXeStats::join_pairs_generated,
     StatKind::kCounter, "Join pairs expanded through the tuple pipeline"},
    {"tuples_discarded_marked", &ProgXeStats::tuples_discarded_marked,
     StatKind::kCounter, "Joined tuples dropped in marked cells"},
    {"tuples_dominated_on_insert", &ProgXeStats::tuples_dominated_on_insert,
     StatKind::kCounter, "Tuples rejected at insert by an existing dominator"},
    {"tuples_evicted", &ProgXeStats::tuples_evicted, StatKind::kCounter,
     "Resident tuples evicted by a later dominator"},
    {"dominance_comparisons", &ProgXeStats::dominance_comparisons,
     StatKind::kCounter, "Point dominance comparisons performed"},
    {"results_emitted", &ProgXeStats::results_emitted, StatKind::kCounter,
     "Final skyline results emitted"},
    {"cells_flushed", &ProgXeStats::cells_flushed, StatKind::kCounter,
     "Output cells flushed as final by the progressive flush rule"},
    {"results_emitted_early", &ProgXeStats::results_emitted_early,
     StatKind::kCounter, "Results emitted before the last region finished"},
};
static_assert(sizeof(ProgXeStats) == std::size(kProgXeStatsFields) * 8,
              "list every ProgXeStats field in kProgXeStatsFields");

}  // namespace progxe
