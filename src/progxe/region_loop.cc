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
  region_pairs_.assign(regions_->size(), 0);
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
  removal_log_.push_back(region.id);
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

bool RegionLoop::ExportCheckpoint(SessionCheckpoint* out) {
  // Only at a region boundary on a healthy, unfinished loop, and only when
  // no result cap is in play: with max_results set, EmitCells may truncate
  // a flush mid-cell, so "emitted" would no longer imply "delivered".
  if (done_ || current_region_ >= 0 || !status_.ok() ||
      options_.max_results != 0) {
    return false;
  }
  newly_safe_.clear();
  // Classify the regions removed since the last export. Discarded without
  // processing: every would-be tuple is strictly dominated by frontier
  // points that are themselves delivered or regenerated — safe at once.
  for (; export_cursor_ < removal_log_.size(); ++export_cursor_) {
    const int32_t id = removal_log_[export_cursor_];
    if ((*regions_)[static_cast<size_t>(id)].processed) {
      unsafe_.push_back(UnsafeRegion{id, -1});
    } else {
      newly_safe_.push_back(id);
    }
  }
  // Processed: safe iff no live tuple it could have contributed is still
  // waiting to flush — no unflushed cell left in its coverage box. The
  // cell that blocked the last test usually still does; only once it has
  // cleared is the unflushed-cell list searched for another.
  for (size_t i = 0; i < unsafe_.size();) {
    UnsafeRegion& entry = unsafe_[i];
    ++checkpoint_cells_examined_;
    if (entry.blocker < 0 || !table_.unflushed(entry.blocker)) {
      const Region& region = (*regions_)[static_cast<size_t>(entry.id)];
      entry.blocker = table_.FindUnflushedInBox(
          region.lo_cell.data(), region.hi_cell.data(),
          &checkpoint_cells_examined_);
    }
    if (entry.blocker >= 0) {
      ++i;
      continue;
    }
    newly_safe_.push_back(entry.id);
    skip_pairs_ += region_pairs_[static_cast<size_t>(entry.id)];
    entry = unsafe_.back();
    unsafe_.pop_back();
  }
  if (!newly_safe_.empty()) {
    // Merge the (few) new ids into the sorted list from the back, in place.
    std::sort(newly_safe_.begin(), newly_safe_.end());
    size_t a = skip_regions_.size();
    size_t b = newly_safe_.size();
    skip_regions_.resize(a + b);
    for (size_t w = a + b; b > 0;) {
      if (a > 0 && skip_regions_[a - 1] > newly_safe_[b - 1]) {
        skip_regions_[--w] = skip_regions_[--a];
      } else {
        skip_regions_[--w] = newly_safe_[--b];
      }
    }
  }
  out->k = static_cast<uint32_t>(prep_->inputs->k);
  out->region_count = regions_->size();
  out->replay_pairs_saved = skip_pairs_;
  out->skip_regions.assign(skip_regions_.begin(), skip_regions_.end());
  return true;
}

Status RegionLoop::RestoreCheckpoint(const SessionCheckpoint& checkpoint) {
  if (resumed_ || current_region_ >= 0 || done_ || !status_.ok()) {
    return Status::InvalidArgument(
        "RestoreCheckpoint: loop is not freshly constructed");
  }
  if (checkpoint.k != static_cast<uint32_t>(prep_->inputs->k)) {
    return Status::InvalidArgument("checkpoint dimensionality mismatch");
  }
  if (checkpoint.region_count != regions_->size()) {
    return Status::InvalidArgument("checkpoint region count mismatch");
  }
  int32_t prev = -1;
  for (int32_t id : checkpoint.skip_regions) {
    if (id <= prev || static_cast<size_t>(id) >= regions_->size()) {
      return Status::InvalidArgument("checkpoint skip list malformed");
    }
    if (!(*regions_)[static_cast<size_t>(id)].Active()) {
      return Status::InvalidArgument("checkpoint skips an inactive region");
    }
    prev = id;
  }
  // The dead incarnation's counters travel separately (shard lost_stats),
  // so no stats counter moves here. No cell is populated on a fresh table,
  // so nothing flushes and `pending` goes unused.
  for (int32_t id : checkpoint.skip_regions) {
    Region& region = (*regions_)[static_cast<size_t>(id)];
    region.discarded = true;
    RemoveRegion(region, /*pending=*/nullptr);
  }
  resumed_ = !checkpoint.skip_regions.empty();
  replay_pairs_saved_ = resumed_ ? checkpoint.replay_pairs_saved : 0;
  // The pre-removed regions stay skipped in every later export, and so do
  // the pairs their skip saves.
  skip_pairs_ = replay_pairs_saved_;
  resumed_regions_skipped_ =
      static_cast<uint32_t>(checkpoint.skip_regions.size());
  return Status::OK();
}

bool RegionLoop::Step(std::vector<ResultTuple>* pending, size_t max_pairs) {
  if (done_) return false;
  // The seed marks are swept on the first Step, after any
  // RestoreCheckpoint, so their removals land in a caller-visible Step.
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
      region_pairs_[static_cast<size_t>(current_region_)] += pairs;
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
