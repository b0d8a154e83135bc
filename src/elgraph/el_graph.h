// Elimination graph (EL-Graph, Section IV-B).
//
// Vertices are the active output regions; a directed edge u -> v exists iff
// some output partition of u, once populated, could partially or completely
// dominate v (cell-level predicate CanEliminate in outputspace/region.h:
// u.lo_cell < v.hi_cell in every dimension). Roots — regions no other
// region can eliminate — are the candidates ProgOrder considers for
// tuple-level processing.
//
// Neither edges nor in-degrees are stored. u.lo < v.hi in every dimension
// means u.lo <= w for the cell w = v.hi - 1, so the active regions with an
// edge into v are exactly those counted by the table's cover_lo[w]
// (progxe/output_table.h), minus v itself when v.lo <= w:
//   indegree(v) = cover_lo[v.hi - 1] - [v.lo < v.hi in every dimension],
// and 0 when some hi coordinate is 0 (no cell lies below it). Initial roots
// take one lookup per region. Each region sits on a watch list keyed by its
// cell w; a removal's up-set walk reports the cells whose cover_lo dropped
// to 1 or 0, and v becomes a root when its watch cell drops to v's own
// term. Removal costs O(lowered cells + watch entries on them) — no
// pairwise predicate is ever evaluated.
//
// The paper's model assumes elimination is irreflexive between distinct
// regions; mutual partial elimination (cycles) is possible in practice, so
// ProgOrder force-roots the rest when the roots run out.
#pragma once

#include <cstdint>
#include <vector>

#include "outputspace/region.h"
#include "progxe/output_table.h"

namespace progxe {

class ElGraph {
 public:
  /// Indexes the regions with Active() == true over `table`'s cover_lo,
  /// which must already hold their coverage (OutputTable::InitCoverage) and
  /// must outlive the graph. Set-up is linear in regions plus cells, so the
  /// graph orders region sets of every size.
  ElGraph(const std::vector<Region>& regions, const OutputTable* table);

  /// Current roots: active regions with in-degree zero, in ascending id.
  std::vector<int32_t> InitialRoots(const std::vector<Region>& regions) const;

  /// Removes `removed_id` from the graph (it was processed or discarded).
  /// `lowered` is the table's report for the same removal (already applied
  /// to cover_lo). Assigns the ids of regions that *newly* became roots to
  /// `*new_roots` (reusing its capacity), in ascending id.
  void OnRegionRemoved(int32_t removed_id,
                       const std::vector<CellIndex>& lowered,
                       std::vector<int32_t>* new_roots);

  /// Allocating convenience overload (tests).
  std::vector<int32_t> OnRegionRemoved(int32_t removed_id,
                                       const std::vector<CellIndex>& lowered);

  /// Number of active non-root regions left (diagnostic).
  size_t NonRootCount() const;

  /// In-degree of an active region, read off cover_lo.
  int64_t indegree(int32_t id) const;

  /// Watch-list entries examined by removals so far (deterministic work
  /// counter).
  uint64_t watch_entries_examined() const { return watch_entries_examined_; }

 private:
  const OutputTable* table_;
  std::vector<uint8_t> removed_;
  /// Per region: its watch cell hi - 1 (-1 when some hi coordinate is 0)
  /// and its own term in that cell's cover_lo.
  std::vector<CellIndex> watch_cell_;
  std::vector<uint8_t> self_term_;
  /// Watch lists in CSR form: the regions watching cell c are
  /// watch_ids_[watch_begin_[c] .. watch_begin_[c + 1]), ascending id.
  std::vector<int32_t> watch_begin_;
  std::vector<int32_t> watch_ids_;
  uint64_t watch_entries_examined_ = 0;
};

}  // namespace progxe
