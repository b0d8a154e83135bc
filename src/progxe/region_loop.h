// RegionLoop: the incremental driver of ProgXe's main loop (Algorithm 1).
// One Step() = one iteration: ProgOrder picks a region, the tuple pipeline
// joins/maps/inserts it in one ordered stream, the region's removal flushes
// the cells whose cover_lo it brings to zero (Algorithm 2, see
// output_table.h), and the discard sweep removes the regions whose lo_cell
// the inserts have marked (wholly dominated). Every region leaves through
// RemoveRegion, and every region discard through the marked set:
// refinement seeds mark cells up front, and the first Step's sweep removes
// the regions they dominate. Emitted results are appended to the caller's
// pending vector, which is what lets ProgXeSession expose a pull-based
// NextBatch on top while ProgXeExecutor::Run stays a thin loop.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "elgraph/el_graph.h"
#include "progxe/output_table.h"
#include "progxe/pipeline.h"
#include "progxe/prepare.h"
#include "progxe/prog_order.h"

namespace progxe {

class RegionLoop {
 public:
  /// `prep` must outlive the loop and is consumed by it (region flags and
  /// the look-ahead marking move into the runtime structures): one
  /// PreparedQuery drives exactly one RegionLoop.
  RegionLoop(PreparedQuery* prep, const ProgXeOptions& options,
             ProgXeStats* stats);

  /// Runs one bounded slice of the main loop, appending any results it
  /// proves final to `*pending`. `max_pairs` caps the join pairs processed
  /// in this call: 0 drives the picked region all the way to its flush;
  /// otherwise the call may yield mid-region after ~max_pairs pairs
  /// (producing no results) and the next call resumes at the same pair
  /// without redoing work — the serving layer's preemption point. Slice
  /// boundaries never change results, emission order or any ProgXeStats
  /// counter. Returns false — without processing anything further — once
  /// no active regions remain or options.max_results has been reached; the
  /// final completeness sweep has run by then.
  bool Step(std::vector<ResultTuple>* pending, size_t max_pairs = 0);

  /// True once Step() has nothing left to do.
  bool done() const { return done_; }

  /// OK while healthy. The "pipeline.chunk" fault site (a stand-in for a
  /// join->map failure) lands here; the loop is done() afterwards and the
  /// session surfaces the failure through its own error channel.
  const Status& status() const { return status_; }

  /// Min-merges into `lo[0..k)` the canonical lower cell edges of every
  /// active region's lo_cell. Sound as a bound on anything the loop may
  /// still emit: future join results land inside some active region's box,
  /// and a populated unflushed cell c always has cover_lo[c] > 0 (it
  /// flushes in the removal that brings cover_lo to zero), so some active
  /// region's lo_cell is <= c and c's tuples sit above its lower edge.
  void RemainingLowerBound(std::vector<double>* lo) const;

  /// Cells visited by coverage upkeep and ProgCount plus EL-Graph
  /// watch-list entries examined over the loop's lifetime (deterministic
  /// work counter; not a ProgXeStats field).
  uint64_t coverage_cells_walked() const {
    return table_.coverage_cells_walked() +
           (el_graph_ != nullptr ? el_graph_->watch_entries_examined() : 0);
  }

  /// Read-only views of the runtime state (diagnostics and reference
  /// checks).
  const OutputTable& table() const { return table_; }
  const std::vector<Region>& regions() const { return *regions_; }

 private:
  bool ReachedLimit() const;
  void EmitCells(const std::vector<CellIndex>& cells,
                 std::vector<ResultTuple>* pending);
  /// The one region-removal path (processed, discarded or seeded):
  /// releases its coverage and emits the cells that flush.
  void RemoveRegion(Region& region, std::vector<ResultTuple>* pending);
  /// Removes the active regions whose lo_cell was marked since the last
  /// sweep, counting them into `*discarded`.
  void DiscardSweep(std::vector<ResultTuple>* pending, size_t* discarded);
  /// Recovery net behind the progressive guarantees: flushes any populated
  /// unmarked cell the flush rule somehow missed (unreachable by
  /// construction; see executor completeness notes).
  void CompletenessSweep(std::vector<ResultTuple>* pending);

  PreparedQuery* prep_;
  const ProgXeOptions& options_;
  ProgXeStats* stats_;
  std::vector<Region>* regions_;
  /// Effective injector for the pipeline.chunk site (programmatic when set,
  /// else ambient); not owned.
  FaultInjector* faults_ = nullptr;
  Status status_;

  OutputTable table_;
  std::unique_ptr<ElGraph> el_graph_;
  std::unique_ptr<ProgOrder> order_;
  RegionJoinPipeline pipeline_;

  bool done_ = false;
  size_t active_regions_ = 0;
  /// Region currently open in the pipeline (budgeted Step yielded inside
  /// it); -1 when the next Step picks a fresh region.
  int32_t current_region_ = -1;

  /// Regions RemoveRegion has removed (each exactly once).
  std::vector<uint8_t> removed_;

  // Refinement seeding (options.refinement_seed) marks cells in the
  // constructor; the first Step sweeps them into regions_discarded_seed.
  // Cost-only: the result set is unchanged, like an ordering-mode change.
  bool seed_swept_ = false;

  // Push-based region discard (Algorithm 1, line 9): a region is wholly
  // dominated once its lo_cell is marked, so each sweep looks up the cells
  // the table marked since the last one (newly_marked_) in the
  // active regions grouped by lo_cell: cell c's region ids, ascending, are
  // lo_regions_[lo_offsets_[c] .. lo_offsets_[c + 1]).
  std::vector<uint32_t> lo_offsets_;
  std::vector<int32_t> lo_regions_;
  std::vector<CellIndex> newly_marked_;

  // Emit-path scratch, reused across steps: the steady-state flush path
  // performs no allocations.
  std::vector<double> flush_values_;
  std::vector<CellTupleIds> flush_ids_;
  ResultTuple result_;
  OutputTable::CoverageRelease release_;
  std::vector<int32_t> discard_scratch_;
};

}  // namespace progxe
