// Runtime state of the output partition grid: per-cell region coverage,
// non-contributing marks and live intermediate tuples. Implements
// tuple-level processing (Section III-B): join results fight only tuples
// mapped to their *comparable slice* of partitions, and whole partitions
// are discarded by cell-level domination.
//
// Cell-level soundness relies on half-open grid cells (see
// grid/grid_geometry.h): a populated cell strictly below another cell in
// every coordinate dominates *all* of that cell's present and future tuples.
// So when a cell first populates, every cell strictly above it is marked
// (and any tuples there dropped). The look-ahead marking is up-closed too,
// so the marked set always is: "is this cell dominated at cell level" is
// one byte, and a marking walk stops at the first already-marked corner,
// which bounds all marking work by the grid.
//
// Hot-path layout: populated cells live in a shared DominanceIndex
// (dominance/dominance_index.h — flat coordinates plus a parallel slot
// payload, with per-dimension cumulative bitmaps) so the comparable-slice
// and eviction scans are word-wise cone sweeps over contiguous memory;
// marked cells leave tombstones that are compacted once they outnumber the
// live entries. Each cell slot also keeps the componentwise min and max of
// the values ever inserted there, in flat arrays beside the index, so the
// sweeps reject cells that hold nothing comparable without touching their
// tuples. The insert path is allocation-free in steady state — per-call
// coordinate buffers are member scratch — and the batched entry point
// (InsertBatch) amortizes coordinate computation and the marked check over
// runs of same-cell tuples while remaining result- and counter-identical to
// per-tuple Insert calls in the same order.
#pragma once

#include <cstdint>
#include <vector>

#include "dominance/dominance_index.h"
#include "grid/grid_geometry.h"
#include "outputspace/region.h"
#include "prefs/dominance.h"
#include "progxe/config.h"

namespace progxe {

/// Outcome of inserting one join result.
enum class InsertOutcome : uint8_t {
  /// Discarded: mapped to a marked cell — marked non-contributing at
  /// look-ahead, or strictly above a cell that has populated.
  kDiscardedMarked,
  /// Discarded: dominated by a live tuple in the comparable slice.
  kDominated,
  /// Inserted and currently alive.
  kInserted,
};

/// A live intermediate result within a cell.
struct CellTupleIds {
  RowId r;
  RowId t;
};

class OutputTable {
 public:
  /// `marked` is the look-ahead marking (moved in); it must be up-closed
  /// (a marked cell's every upper neighbour is marked).
  OutputTable(GridGeometry geometry, std::vector<uint8_t> marked,
              ProgXeStats* stats);

  const GridGeometry& geometry() const { return geometry_; }
  int dims() const { return geometry_.dimensions(); }

  // --- Region coverage -----------------------------------------------------
  //
  // One dense per-cell counter over the active regions:
  //   cover_lo[c] — regions whose lo_cell is <= c in every dimension.
  // It is the one answer to "can an active region still produce a tuple at
  // or below c", and it has three readers: ProgCount (Definition 2) counts
  // box cells with cover_lo == 1; the flush rule of Algorithm 2 releases a
  // populated cell once its cover_lo reaches 0; and the EL-Graph reads
  // in-degrees off it (an edge u -> v exists iff u.lo <= v.hi - 1, so
  // indegree(v) = cover_lo[v.hi - 1] minus v's own term).
  //
  // Algorithm 2 flushes a cell once no cell of its dominator cone has
  // RegCount > 0 (no active region's box reaches it). A region's lo_cell
  // lies in its own box, so that holds exactly when no active region's
  // lo_cell is <= the cell: cover_lo == 0. Such a cell is also covered by
  // no active region, so its tuples are final. Cell marking already handles
  // threats that are populated now, so the count fuses the paper's Dom /
  // Dependent lists and RegCount into one.

  /// Builds cover_lo over every active region by prefix sums of lo-cell
  /// point counts, one pass per dimension; then every region's ProgCount in
  /// one pass over the cells. O(cells * k). `regions` must outlive the
  /// table (ProgCount upkeep reads their boxes).
  void InitCoverage(const std::vector<Region>& regions);

  /// What one region's removal changed: up-set cells whose cover_lo dropped
  /// to 1 or 0 ("lowered"), and those of them whose cover_lo reached 0 while
  /// they hold live tuples ("flush": Algorithm 2's output, unmarked and
  /// unemitted). Both lists are in ascending cell order.
  struct CoverageRelease {
    std::vector<CellIndex> lowered;
    std::vector<CellIndex> flush;
  };

  /// Removes a completed or discarded region from cover_lo: one row walk
  /// over its up-set [lo_cell, top]. Assigns into `*out`, reusing its
  /// capacity.
  void ReleaseRegionCoverage(const Region& region, CoverageRelease* out);

  /// Allocating convenience overload (tests).
  CoverageRelease ReleaseRegionCoverage(const Region& region);

  int32_t cover_lo(CellIndex c) const {
    return static_cast<int32_t>(
        static_cast<uint32_t>(cover_[static_cast<size_t>(c)]));
  }

  /// ProgCount (Definition 2) of an active region: cells of its box that
  /// are unmarked and that no other active region covers or threatens. The
  /// region's own lo_cell is <= every box cell, so that is cover_lo == 1.
  /// Kept per region as cells reach cover_lo == 1 or get marked, so this is
  /// a lookup.
  int64_t ProgCount(const Region& region) const {
    return prog_count_[static_cast<size_t>(region.id)];
  }

  /// Cells visited by coverage upkeep (build passes, up-set row walks,
  /// lowered cells) so far — a deterministic work counter.
  uint64_t coverage_cells_walked() const { return coverage_cells_walked_; }

  // --- Tuple-level processing ----------------------------------------------

  /// Inserts one join result with canonical output vector `values[0..k)`.
  InsertOutcome Insert(const double* values, RowId r_id, RowId t_id);

  /// Inserts a block of `n` join results (`values` holds k doubles per
  /// tuple, pair-major; `ids` is parallel). Exactly equivalent — stats
  /// counters included — to calling Insert per tuple in order, but bins the
  /// block into runs of same-cell tuples: coordinates are computed in one
  /// tight pass and the marked check runs once per run (sound because an
  /// insert into a cell marks only cells strictly above it).
  void InsertBatch(const double* values, const RowIdPair* ids, size_t n);

  // --- Cell predicates -----------------------------------------------------

  bool marked(CellIndex c) const { return marked_[static_cast<size_t>(c)] != 0; }
  bool emitted(CellIndex c) const {
    return emitted_[static_cast<size_t>(c)] != 0;
  }
  /// True iff the cell holds at least one live tuple.
  bool populated(CellIndex c) const;
  /// Number of live tuples in the cell.
  size_t AliveCount(CellIndex c) const;
  /// Moves the cells marked since the last call (each once, in marking
  /// order) into `*out`, dropping its old contents. Cells are marked after
  /// look-ahead only strictly above a populated cell or a MarkDominatedBy
  /// point: the region discard (Algorithm 1, line 9) reads these lo_cells.
  void TakeNewlyMarked(std::vector<CellIndex>* out);

  /// Marks every cell strictly above the cell of `point`, a known output
  /// point of the query (canonical values): every tuple there is strictly
  /// dominated by it. A point below the grid in some dimension counts as
  /// one cell below cell 0 there; one above it (or NaN) marks nothing.
  /// Call after InitCoverage (marking keeps ProgCount). The marks reach
  /// TakeNewlyMarked like the insert path's.
  void MarkDominatedBy(const double* point);

  // --- Flushing ------------------------------------------------------------

  /// Marks the cell emitted and appends its live tuples (canonical values +
  /// ids) to the output vectors. Tuples stay resident afterwards: emitted
  /// tuples are final skyline members and still serve as dominators for
  /// later arrivals.
  void FlushCell(CellIndex c, std::vector<double>* values_out,
                 std::vector<CellTupleIds>* ids_out);

  /// All cells currently holding live tuples (diagnostic / final sweep).
  std::vector<CellIndex> PopulatedCells() const;

  DomCounter* dom_counter() { return &dom_counter_; }

 private:
  struct CellData {
    std::vector<double> values;     // flat, k per tuple
    std::vector<CellTupleIds> ids;  // parallel to values
    std::vector<uint8_t> alive;     // parallel
    std::vector<CellCoord> coords;  // this cell's grid coordinates
    CellIndex index = -1;           // cached geometry_.IndexOf(coords)
    int32_t pop_pos = -1;           // position in the populated-cell index
    size_t alive_count = 0;
    size_t dead_count = 0;

    void Compact(int k);
  };

  /// Slot of a cell in cells_, or -1.
  int32_t slot(CellIndex c) const { return cell_slot_[static_cast<size_t>(c)]; }

  /// Creates the slot of a cell about to receive its first tuple: its
  /// CellData, empty value bounds and populated-cell index entry.
  int32_t AddCell(CellIndex c, const CellCoord* coords);

  /// Marks every unmarked cell strictly above `coords` (see MarkCell). The
  /// walk over [coords + 1, top] ends a dimension's loop at the first
  /// corner already marked: the marked set is up-closed, so the rest of
  /// that slab is too.
  void MarkAbove(const CellCoord* coords);
  /// MarkAbove's walk over dimensions [d, k) from `corner`, the index of
  /// `at` (scratch coordinates, restored on return).
  void MarkFrom(int d, CellIndex corner, CellCoord* at);

  /// Marks an unmarked cell non-contributing: ProgCount upkeep, drops its
  /// live tuples (counted as evicted) and tombstones its index entry.
  void MarkCell(CellIndex c, const CellCoord* coords);

  /// Adds `delta` to the ProgCount of the single region counted in
  /// cover_lo at cell `c` (with coordinates `coords`), if its box holds c.
  void AdjustProgCount(CellIndex c, const CellCoord* coords, int64_t delta);

  /// Squeezes tombstones out of the populated-cell index once they
  /// dominate it. Must only run outside the index sweeps.
  void MaybeCompactPopulated();

  /// Insert continuation once the marked check has passed: slice dominance
  /// scan, first-population marking, eviction scan, and the append.
  InsertOutcome InsertAlive(const double* values, RowId r_id, RowId t_id,
                            const CellCoord* coords, CellIndex c);

  /// InsertBatch's pass 2: processes runs of consecutive same-cell tuples
  /// over the block's binned coordinates.
  void InsertRuns(const double* values, const RowIdPair* ids, size_t n,
                  const CellCoord* coords_flat, const CellIndex* cells);

  GridGeometry geometry_;
  int k_;
  ProgXeStats* stats_;
  DomCounter dom_counter_;

  /// cover_lo packed with the ids of the regions it counts: the low 32 bits
  /// hold the count, the high 32 bits the sum of their ids mod 2^32, so
  /// where the count is 1 the high half names that one region. Counts stay
  /// below 2^32, so one 64-bit add or subtract of CoverTerm(id) updates
  /// both halves without a carry between them — prefix sums included.
  std::vector<uint64_t> cover_;
  static uint64_t CoverTerm(int32_t id) {
    return static_cast<uint64_t>(static_cast<uint32_t>(id)) << 32 | 1u;
  }
  /// ProgCount per region id (see ProgCount); `regions_` is the vector
  /// InitCoverage was given.
  std::vector<int64_t> prog_count_;
  const std::vector<Region>* regions_ = nullptr;
  std::vector<CellCoord> prog_coords_;  // AdjustProgCount scratch
  /// Top corner of the grid (cells_per_dim - 1 in every dimension): the
  /// upper end of every up-set walk.
  std::vector<CellCoord> top_cell_;
  uint64_t coverage_cells_walked_ = 0;
  std::vector<uint8_t> marked_;
  std::vector<uint8_t> emitted_;
  std::vector<int32_t> cell_slot_;
  std::vector<CellData> cells_;
  /// Componentwise min / max of every value inserted into a slot (k per
  /// slot, parallel to cells_). They only widen, so after evictions they
  /// stay conservative: a slice sweep may skip a cell whose min is not <=
  /// the newcomer (nothing there can dominate it) or whose max is not >=
  /// it (nothing there can be evicted by it).
  std::vector<double> cell_min_;
  std::vector<double> cell_max_;

  // Populated-cell index, shared machinery with the sharded merge sink
  // (dominance/dominance_index.h): entry payload is the slot into cells_,
  // entry position is cached in CellData::pop_pos. The comparable-slice
  // and eviction scans run as cone sweeps over this index.
  DominanceIndex pop_index_;

  /// Cells marked at runtime since the last TakeNewlyMarked.
  std::vector<CellIndex> newly_marked_;

  // Reusable scratch: single-insert and marking-walk coordinates and the
  // batch pipeline's per-block coordinate / cell-index buffers.
  std::vector<CellCoord> scratch_coords_;
  std::vector<CellCoord> walk_coords_;
  std::vector<CellCoord> batch_coords_;
  std::vector<CellIndex> batch_cells_;
};

}  // namespace progxe
