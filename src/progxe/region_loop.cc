#include "progxe/region_loop.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace progxe {

RegionLoop::RegionLoop(PreparedQuery* prep, const ProgXeOptions& options,
                       ProgXeStats* stats)
    : prep_(prep),
      options_(options),
      stats_(stats),
      regions_(&prep->lookahead.regions),
      faults_(options.faults != nullptr ? options.faults.get()
                                        : FaultInjector::FromEnv()),
      table_(prep->lookahead.output_grid, std::move(prep->lookahead.marked),
             stats),
      pipeline_(&prep->inputs->mapper, prep->inputs->r_contrib->flat().data(),
                prep->inputs->t_contrib->flat().data()) {
  const PreparedInputs& inputs = *prep->inputs;
  table_.InitCoverage(*regions_);

  // Refinement seeding: a seed point is a genuine output of the same
  // sources and mapping, so some skyline member is at least as good as it
  // and strictly better than every tuple of a cell strictly above its own.
  // Those cells are marked like the insert path's, before the EL-Graph and
  // ProgOrder read ProgCount; the first Step's discard sweep then removes
  // the regions whose lo_cell they hold. A cell is never strictly above
  // itself, so a point never discards its own containing region.
  const RefinementSeed* seed = options_.refinement_seed.get();
  if (seed != nullptr && seed->k == inputs.k) {
    for (size_t p = 0; p < seed->points(); ++p) {
      table_.MarkDominatedBy(seed->canonical.data() +
                             p * static_cast<size_t>(inputs.k));
    }
  }

  if (options_.ordering == OrderingMode::kProgOrder) {
    el_graph_ = std::make_unique<ElGraph>(*regions_, &table_);
  }

  CostModelParams cost_params;
  cost_params.sigma = inputs.sigma;
  cost_params.cells_per_dim = options_.output_cells_per_dim;
  cost_params.dims = inputs.k;

  std::vector<size_t> r_sizes;
  for (const auto& p : inputs.r_grid.partitions()) r_sizes.push_back(p.size());
  std::vector<size_t> t_sizes;
  for (const auto& p : inputs.t_grid.partitions()) t_sizes.push_back(p.size());

  order_ = std::make_unique<ProgOrder>(
      regions_, el_graph_.get(), &table_, cost_params, std::move(r_sizes),
      std::move(t_sizes), options_.ordering, options_.seed, stats_);

  for (const Region& region : *regions_) {
    if (region.Active()) ++active_regions_;
  }
  removed_.assign(regions_->size(), 0);
  result_.values.resize(static_cast<size_t>(inputs.k));

  // Group the active regions by lo_cell for the runtime discard sweep (a
  // counting sort: region ids stay ascending within a cell).
  const GridGeometry& geom = table_.geometry();
  lo_offsets_.assign(static_cast<size_t>(geom.total_cells()) + 1, 0);
  for (const Region& region : *regions_) {
    if (!region.Active()) continue;
    ++lo_offsets_[static_cast<size_t>(geom.IndexOf(region.lo_cell.data())) + 1];
  }
  for (size_t c = 1; c < lo_offsets_.size(); ++c) {
    lo_offsets_[c] += lo_offsets_[c - 1];
  }
  lo_regions_.resize(lo_offsets_.back());
  std::vector<uint32_t> next(lo_offsets_.begin(), lo_offsets_.end() - 1);
  for (const Region& region : *regions_) {
    if (!region.Active()) continue;
    const size_t lo = static_cast<size_t>(geom.IndexOf(region.lo_cell.data()));
    lo_regions_[next[lo]++] = region.id;
  }
}

bool RegionLoop::ReachedLimit() const {
  return options_.max_results != 0 &&
         stats_->results_emitted >= options_.max_results;
}

void RegionLoop::EmitCells(const std::vector<CellIndex>& cells,
                           std::vector<ResultTuple>* pending) {
  const int k = prep_->inputs->k;
  for (CellIndex c : cells) {
    if (ReachedLimit()) return;
    flush_values_.clear();
    flush_ids_.clear();
    table_.FlushCell(c, &flush_values_, &flush_ids_);
    ++stats_->cells_flushed;
    for (size_t i = 0; i < flush_ids_.size(); ++i) {
      result_.r_id = prep_->inputs->r_orig_ids[flush_ids_[i].r];
      result_.t_id = prep_->inputs->t_orig_ids[flush_ids_[i].t];
      for (int j = 0; j < k; ++j) {
        result_.values[static_cast<size_t>(j)] =
            prep_->inputs->mapper.Decanonicalize(
            j, flush_values_[i * static_cast<size_t>(k) +
                             static_cast<size_t>(j)]);
      }
      pending->push_back(result_);
      ++stats_->results_emitted;
      if (active_regions_ > 0) ++stats_->results_emitted_early;
      if (ReachedLimit()) return;
    }
  }
}

void RegionLoop::RemoveRegion(Region& region,
                              std::vector<ResultTuple>* pending) {
  if (removed_[static_cast<size_t>(region.id)]) return;
  removed_[static_cast<size_t>(region.id)] = 1;
  assert(active_regions_ > 0);
  --active_regions_;
  table_.ReleaseRegionCoverage(region, &release_);
  order_->OnRegionRemoved(region.id, release_.lowered);
  EmitCells(release_.flush, pending);
}

void RegionLoop::DiscardSweep(std::vector<ResultTuple>* pending,
                              size_t* discarded) {
  // Only runs when cells were marked since the last sweep (by inserts, or
  // by seed points before the first Step); a cell is marked once, so each
  // region is found here at most once.
  table_.TakeNewlyMarked(&newly_marked_);
  if (newly_marked_.empty()) return;
  TraceSpan span(trace_cats::kRegion, "region.discard");
  discard_scratch_.clear();
  for (CellIndex c : newly_marked_) {
    discard_scratch_.insert(
        discard_scratch_.end(),
        lo_regions_.begin() + lo_offsets_[static_cast<size_t>(c)],
        lo_regions_.begin() + lo_offsets_[static_cast<size_t>(c) + 1]);
  }
  // Discard in ascending region id — the order the full rescan used — so
  // flush/emission order is byte-for-byte stable.
  std::sort(discard_scratch_.begin(), discard_scratch_.end());
  for (int32_t id : discard_scratch_) {
    Region& other = (*regions_)[static_cast<size_t>(id)];
    if (!other.Active()) continue;
    other.discarded = true;
    ++*discarded;
    RemoveRegion(other, pending);
  }
}

void RegionLoop::CompletenessSweep(std::vector<ResultTuple>* pending) {
  // Every populated unmarked cell must have flushed by now.
  for (CellIndex c : table_.PopulatedCells()) {
    if (!table_.emitted(c) && !table_.marked(c)) {
      // Unreachable by construction; fail loudly in debug, recover in
      // release so no result is ever lost.
      assert(false && "cell missed by progressive determination");
      std::vector<CellIndex> one{c};
      EmitCells(one, pending);
    }
  }
}

void RegionLoop::RemainingLowerBound(std::vector<double>* lo) const {
  if (done_) return;
  const GridGeometry& geom = table_.geometry();
  const int k = geom.dimensions();
  for (const Region& region : *regions_) {
    if (!region.Active()) continue;
    for (int d = 0; d < k; ++d) {
      const double edge = geom.CellLower(d, region.lo_cell[static_cast<size_t>(d)]);
      double& slot = (*lo)[static_cast<size_t>(d)];
      if (edge < slot) slot = edge;
    }
  }
}

bool RegionLoop::Step(std::vector<ResultTuple>* pending, size_t max_pairs) {
  if (done_) return false;
  // The seed marks are swept on the first Step, so their removals land in
  // a caller-visible Step.
  if (!seed_swept_) {
    seed_swept_ = true;
    DiscardSweep(pending, &stats_->regions_discarded_seed);
  }
  for (;;) {
    if (current_region_ < 0) {
      if (ReachedLimit()) {  // early termination (max_results)
        stats_->dominance_comparisons += table_.dom_counter()->comparisons;
        table_.dom_counter()->comparisons = 0;
        done_ = true;
        return false;
      }
      int32_t next;
      {
        TraceSpan span(trace_cats::kRegion, "region.pick");
        next = order_->PopNext();
        span.arg("region", next);
      }
      if (next < 0) {
        stats_->dominance_comparisons += table_.dom_counter()->comparisons;
        table_.dom_counter()->comparisons = 0;
        CompletenessSweep(pending);
        done_ = true;
        return false;
      }
      const Region& picked = (*regions_)[static_cast<size_t>(next)];
      if (!picked.Active()) continue;
      pipeline_.BeginRegion(
          prep_->inputs->r_grid.partitions()[static_cast<size_t>(picked.a)],
          prep_->inputs->t_grid.partitions()[static_cast<size_t>(picked.b)]);
      current_region_ = next;
    }

    // Advance the open region by ~max_pairs pairs (0 = all of it); flush
    // only once it is exhausted, so the table sees the identical insert
    // stream at any slice size. Look-ahead drops key-disjoint partition
    // pairs, so a region holds at least one pair and draws the
    // pipeline.chunk fault site at least once.
    Region& region = (*regions_)[static_cast<size_t>(current_region_)];
    if (!pipeline_.RegionExhausted()) {
      Status fault = MaybeInjectFault(faults_, fault_sites::kPipelineChunk,
                                      options_.fault_instance);
      if (PROGXE_PREDICT_FALSE(!fault.ok())) {
        status_ = std::move(fault);
        done_ = true;
        return false;
      }
      TraceSpan span(trace_cats::kRegion, "region.pipeline");
      span.arg("region", current_region_);
      const uint64_t pairs = pipeline_.ProcessSome(max_pairs, &table_);
      stats_->join_pairs_generated += pairs;
      span.arg("pairs", static_cast<int64_t>(pairs));
      if (!pipeline_.RegionExhausted()) return true;  // yielded mid-region
    }
    current_region_ = -1;
    region.processed = true;
    ++stats_->regions_processed;
    {
      TraceSpan span(trace_cats::kRegion, "region.flush");
      span.arg("region", region.id);
      RemoveRegion(region, pending);
    }
    DiscardSweep(pending, &stats_->regions_discarded_runtime);
    return true;
  }
}

}  // namespace progxe
