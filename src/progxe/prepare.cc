#include "progxe/prepare.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "grid/input_grid.h"
#include "obs/trace.h"

namespace progxe {

double MeasuredJoinSelectivity(const KeyIndex& r, const KeyIndex& t) {
  if (r.size() == 0 || t.size() == 0) return 0.0;
  size_t pairs = 0;
  r.ForEachMatch(t, [&](std::span<const RowId> r_run,
                        std::span<const RowId> t_run) {
    pairs += r_run.size() * t_run.size();
  });
  return static_cast<double>(pairs) /
         (static_cast<double>(r.size()) * static_cast<double>(t.size()));
}

double MeasuredJoinSelectivity(const Relation& r, const Relation& t) {
  return MeasuredJoinSelectivity(KeyIndex(r), KeyIndex(t));
}

namespace {

size_t RelationBytes(const Relation& rel) {
  return rel.size() * (rel.num_attributes() * sizeof(double) +
                       sizeof(JoinKey));
}

/// The output grid's cells per dimension: the paper's partition size delta.
/// An explicit (non-zero) request passes through. Otherwise delta follows
/// the work: the grid gets ~16 * sqrt(expected join pairs) cells, within a
/// 60K budget so the dense per-cell state stays cache-resident, at 4..24
/// per dimension. Region bookkeeping (look-ahead, coverage prefix sums,
/// the per-removal up-set row walks) scales with the cell count, while
/// dominance comparisons per cell grow as cells coarsen; the sqrt balances
/// the two. A sweep of fixed delta across N, sigma, K and d
/// (docs/ARCHITECTURE.md, "Region-loop bookkeeping") found this pick at or
/// next to the fastest delta on every shape. Each shard prepares its own
/// slice, so each shard sizes its own grid.
///
/// The floor of 4 wins over the budget from k = 8 on (4^8 = 65,536 cells).
/// Where 4^k would pass kMaxOutputCells it drops to 3 (k = 12..14) and 2
/// (k = 15..16), so every k up to 16 opens with defaults.
int OutputCellsPerDim(int requested, int k, double expected_pairs) {
  if (requested > 0) return requested;
  const double budget = std::min(60000.0, 16.0 * std::sqrt(expected_pairs));
  int floor = 4;
  while (floor > 2 &&
         std::pow(floor, k) > static_cast<double>(kMaxOutputCells)) {
    --floor;
  }
  return AutoCellsPerDim(k, budget, floor, 24);
}

/// True iff a grid of `cells_per_dim` cells along each of `k` dimensions
/// has a cell count, and so every linear cell index, that fits CellIndex.
bool CellCountFits(int cells_per_dim, int k) {
  CellIndex total = 1;
  for (int j = 0; j < k; ++j) {
    if (__builtin_mul_overflow(total, CellIndex{cells_per_dim}, &total)) {
      return false;
    }
  }
  return true;
}

/// InvalidArgument unless both resolutions' cell counts fit CellIndex.
Status CheckGridFits(int input_cells_per_dim, int output_cells_per_dim,
                     int k) {
  if (CellCountFits(input_cells_per_dim, k) &&
      CellCountFits(output_cells_per_dim, k)) {
    return Status::OK();
  }
  return Status::InvalidArgument("grid cells_per_dim ^ " + std::to_string(k) +
                                 " overflows the 64-bit cell index");
}

}  // namespace

size_t PreparedInputs::ApproxBytes() const {
  size_t bytes = sizeof(PreparedInputs);
  bytes += RelationBytes(r_store) + RelationBytes(t_store);
  bytes += (r_orig_ids.capacity() + t_orig_ids.capacity()) * sizeof(RowId);
  if (r_contrib) bytes += r_contrib->flat().size() * sizeof(double);
  if (t_contrib) bytes += t_contrib->flat().size() * sizeof(double);
  bytes += r_grid.ApproxBytes() + t_grid.ApproxBytes();
  bytes += lookahead.regions.capacity() * sizeof(Region);
  for (const Region& region : lookahead.regions) {
    bytes += region.bounds.capacity() * sizeof(Interval);
    bytes += (region.lo_cell.capacity() + region.hi_cell.capacity()) *
             sizeof(CellCoord);
  }
  bytes += lookahead.marked.capacity() * sizeof(uint8_t);
  bytes += lookahead.guaranteed_upper_frontier.capacity() * sizeof(double);
  return bytes;
}

Status BuildPreparedInputs(const SkyMapJoinQuery& query,
                           const ProgXeOptions& options, bool own_sources,
                           PreparedInputs* out) {
  if (query.r == nullptr || query.t == nullptr) {
    return Status::InvalidArgument("query sources must be non-null");
  }
  if (query.pref.dimensions() != query.map.output_dimensions()) {
    return Status::InvalidArgument(
        "preference dimensionality must match the map output");
  }
  // The prepare-phase fault site: a failure here surfaces through
  // ProgXeSession::Open / OpenShard and rides the sharded stream's
  // open-retry path (or a remote worker's kOpenResult status).
  PROGXE_RETURN_NOT_OK(MaybeInjectFault(
      options.faults != nullptr ? options.faults.get()
                                : FaultInjector::FromEnv(),
      fault_sites::kPrepareBuild, options.fault_instance));
  TraceSpan prepare_span(trace_cats::kPrepare, "prepare.build");
  PROGXE_RETURN_NOT_OK(
      query.map.Validate(query.r->num_attributes(),
                         query.t->num_attributes()));
  if (options.input_cells_per_dim < 0 || options.output_cells_per_dim < 0) {
    return Status::InvalidArgument("grid cell counts must be >= 0");
  }
  const int k_out = query.map.output_dimensions();
  // An explicit resolution can come from the wire; reject one whose cell
  // count wraps before any early return, whatever the data.
  PROGXE_RETURN_NOT_OK(CheckGridFits(options.input_cells_per_dim,
                                     options.output_cells_per_dim, k_out));
  ProgXeStats* stats = &out->prepare_stats;
  out->resolved_input_cells_per_dim = options.input_cells_per_dim;

  const Relation& r_full = *query.r;
  const Relation& t_full = *query.t;
  stats->r_rows = r_full.size();
  stats->t_rows = t_full.size();
  if (r_full.empty() || t_full.empty()) {
    out->resolved_output_cells_per_dim =
        OutputCellsPerDim(options.output_cells_per_dim, k_out, 0.0);
    out->trivially_empty = true;
    return Status::OK();
  }

  out->mapper = CanonicalMapper(query.map, query.pref);
  out->k = out->mapper.output_dimensions();

  // --- Optional skyline partial push-through -----------------------------
  // Pruning each source to its group-level skyline is result-preserving for
  // separable monotone maps (see skyline/group_skyline.h).
  out->r_rel = &r_full;
  out->t_rel = &t_full;
  if (options.push_through) {
    TraceSpan span(trace_cats::kPrepare, "prepare.push_through");
    ContributionTable r_full_contrib(r_full, out->mapper, Side::kR);
    ContributionTable t_full_contrib(t_full, out->mapper, Side::kT);
    DomCounter push_counter;
    std::vector<RowId> r_keep =
        PushThroughPrune(r_full, r_full_contrib, &push_counter);
    std::vector<RowId> t_keep =
        PushThroughPrune(t_full, t_full_contrib, &push_counter);
    stats->dominance_comparisons += push_counter.comparisons;
    out->r_store = r_full.Select(r_keep, &out->r_orig_ids);
    out->t_store = t_full.Select(t_keep, &out->t_orig_ids);
    out->r_rel = &out->r_store;
    out->t_rel = &out->t_store;
  } else {
    out->r_orig_ids.resize(r_full.size());
    std::iota(out->r_orig_ids.begin(), out->r_orig_ids.end(), 0u);
    out->t_orig_ids.resize(t_full.size());
    std::iota(out->t_orig_ids.begin(), out->t_orig_ids.end(), 0u);
    if (own_sources) {
      // Cache entries outlive the submitter's relations: take full copies.
      out->r_store = r_full;
      out->t_store = t_full;
      out->r_rel = &out->r_store;
      out->t_rel = &out->t_store;
    }
  }
  stats->r_rows_after_push_through = out->r_rel->size();
  stats->t_rows_after_push_through = out->t_rel->size();

  // --- Sigma for the benefit/cost models ---------------------------------
  // Each source is sorted by join key once; sigma merges the two key lists
  // and the input grids read their partitions' key runs off the same order.
  KeyIndex r_keys;
  KeyIndex t_keys;
  {
    TraceSpan span(trace_cats::kPrepare, "prepare.sigma");
    r_keys = KeyIndex(*out->r_rel);
    t_keys = KeyIndex(*out->t_rel);
    out->sigma = MeasuredJoinSelectivity(r_keys, t_keys);
  }
  // The output grid is sized to the expected join output |R'| |T'| sigma,
  // known only from here on (see OutputCellsPerDim).
  const double expected_pairs = static_cast<double>(out->r_rel->size()) *
                                static_cast<double>(out->t_rel->size()) *
                                out->sigma;
  out->resolved_output_cells_per_dim =
      OutputCellsPerDim(options.output_cells_per_dim, k_out, expected_pairs);
  if (out->sigma <= 0.0) {  // provably empty join
    out->trivially_empty = true;
    return Status::OK();
  }
  stats->sigma_used = out->sigma;

  if (out->resolved_input_cells_per_dim == 0) {
    // Pick the input resolution so each region's expected join work
    // amortizes its bookkeeping (EL-Graph edge, coverage box, discard
    // checks): aim for >= ~200 join pairs per region, i.e. at most
    // P = N * sqrt(sigma / 200) partitions per source, within an absolute
    // budget of ~120 partitions (~14K candidate pairs).
    const double n_min = static_cast<double>(
        std::min(out->r_rel->size(), out->t_rel->size()));
    const double work_cap = n_min * std::sqrt(out->sigma / 200.0);
    const double budget = std::clamp(work_cap, 4.0, 120.0);
    out->resolved_input_cells_per_dim =
        AutoCellsPerDim(query.map.output_dimensions(), budget, 2, 8);
  }
  // Both resolutions are final here. An auto one is at least 2 output
  // cells per dimension, 2^64 cells at k = 64; a wrapped cell count would
  // slip past the look-ahead's cell cap and index out of bounds. (The
  // early returns above build no grid.)
  PROGXE_RETURN_NOT_OK(CheckGridFits(out->resolved_input_cells_per_dim,
                                     out->resolved_output_cells_per_dim,
                                     k_out));

  // --- Contribution tables and input partitioning ------------------------
  {
    TraceSpan span(trace_cats::kPrepare, "prepare.partition");
    out->r_contrib = std::make_unique<ContributionTable>(*out->r_rel,
                                                         out->mapper,
                                                         Side::kR);
    out->t_contrib = std::make_unique<ContributionTable>(*out->t_rel,
                                                         out->mapper,
                                                         Side::kT);
    InputGridOptions grid_options;
    grid_options.cells_per_dim = out->resolved_input_cells_per_dim;
    out->r_grid =
        InputGrid(*out->r_rel, *out->r_contrib, r_keys, grid_options);
    out->t_grid =
        InputGrid(*out->t_rel, *out->t_contrib, t_keys, grid_options);
  }

  // --- Output-space look-ahead -------------------------------------------
  TraceSpan lookahead_span(trace_cats::kPrepare, "prepare.lookahead");
  LookaheadOptions la_options;
  la_options.output_cells_per_dim = out->resolved_output_cells_per_dim;
  PROGXE_ASSIGN_OR_RETURN(
      out->lookahead,
      OutputSpaceLookahead(out->r_grid, out->t_grid, out->mapper,
                           la_options));
  stats->partition_pairs_total = out->lookahead.stats.pairs_total;
  stats->partition_pairs_skipped =
      out->lookahead.stats.pairs_skipped_signature;
  stats->regions_created = out->lookahead.stats.regions_created;
  stats->regions_pruned_lookahead = out->lookahead.stats.regions_pruned;
  stats->cells_marked_lookahead = out->lookahead.stats.cells_marked;
  prepare_span.arg("regions",
                   static_cast<int64_t>(stats->regions_created));
  return Status::OK();
}

void AdoptPreparedInputs(std::shared_ptr<const PreparedInputs> inputs,
                         ProgXeOptions* options, ProgXeStats* stats,
                         PreparedQuery* out) {
  // Replay the prepare-side counters exactly as the cold build wrote them:
  // the session's stats are zeroed at open, so += reproduces the original
  // assignments bit for bit (dominance_comparisons genuinely accumulates —
  // push-through runs before any runtime comparison).
  const ProgXeStats& p = inputs->prepare_stats;
  stats->r_rows = p.r_rows;
  stats->t_rows = p.t_rows;
  stats->r_rows_after_push_through = p.r_rows_after_push_through;
  stats->t_rows_after_push_through = p.t_rows_after_push_through;
  stats->sigma_used = p.sigma_used;
  stats->dominance_comparisons += p.dominance_comparisons;
  stats->partition_pairs_total = p.partition_pairs_total;
  stats->partition_pairs_skipped = p.partition_pairs_skipped;
  stats->regions_created = p.regions_created;
  stats->regions_pruned_lookahead = p.regions_pruned_lookahead;
  stats->cells_marked_lookahead = p.cells_marked_lookahead;
  // Mirror the grid resolutions the build resolved, so cost models and any
  // caller inspecting the options see the same values as on the cold path.
  // The output grid is resolved on every build path; the input grid only
  // once sigma is known.
  if (inputs->resolved_input_cells_per_dim > 0) {
    options->input_cells_per_dim = inputs->resolved_input_cells_per_dim;
  }
  options->output_cells_per_dim = inputs->resolved_output_cells_per_dim;
  out->trivially_empty = inputs->trivially_empty;
  out->lookahead = inputs->lookahead;  // private mutable copy
  out->inputs = std::move(inputs);
}

Status PreparePhase(const SkyMapJoinQuery& query, ProgXeOptions* options,
                    ProgXeStats* stats, PreparedQuery* out) {
  auto inputs = std::make_shared<PreparedInputs>();
  PROGXE_RETURN_NOT_OK(
      BuildPreparedInputs(query, *options, /*own_sources=*/false,
                          inputs.get()));
  AdoptPreparedInputs(std::move(inputs), options, stats, out);
  return Status::OK();
}

}  // namespace progxe
