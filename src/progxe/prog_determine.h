// ProgDetermine (Section V, Algorithm 2): decides which output partitions
// can be flushed early while guaranteeing no false positives and no false
// negatives (Correctness Principle 1).
//
// Count-based realization, as the paper suggests ("we instead utilize a
// count-based realization"), read off the table's two coverage counters
// (progxe/output_table.h). A populated cell's tuples are final once
//   (1) no active region covers it (RegCount == 0: no future arrivals), and
//   (2) no active region can still produce a tuple in its dominator cone.
// Cell marking already handles threats that are populated now, so (2) is
// about future arrivals only: some cone cell has RegCount > 0 exactly when
// some active region's lo_cell is <= the cell, i.e. cover_lo > 0. This
// fuses the paper's Dom / Dependent lists into one count.
//
// The rule therefore has two steps, both driven by region removals:
//   - arm: when a cell's RegCount reaches 0 while it is populated,
//     unmarked and unemitted, it becomes armed (a cell emptied before it
//     settled never arms);
//   - flush: an armed cell flushes in the removal that brings its cover_lo
//     to 0, if it is still unmarked and unemitted. A cell that eviction
//     emptied after it armed still flushes (with no tuples).
// cover_lo >= RegCount always, so a cell's cover_lo reaches 0 in the same
// removal that settles it or later. Each removal costs O(settled + lowered)
// on top of the table's row walks.
#pragma once

#include <cstdint>
#include <vector>

#include "progxe/output_table.h"

namespace progxe {

class ProgDetermine {
 public:
  explicit ProgDetermine(const OutputTable* table);

  /// Processes one region removal's coverage release: arms the settled
  /// cells that hold live unflushed tuples, then assigns every armed cell
  /// whose cover_lo reached 0 and that is still unmarked and unemitted to
  /// `*flush_out` (reusing its capacity), in ascending cell order.
  void OnRegionReleased(const OutputTable::CoverageRelease& release,
                        std::vector<CellIndex>* flush_out);

  /// Allocating convenience overload (tests).
  std::vector<CellIndex> OnRegionReleased(
      const OutputTable::CoverageRelease& release);

  /// Number of armed cells still waiting for their cover_lo to reach 0
  /// (diagnostic).
  size_t PendingCount() const { return armed_count_; }

 private:
  const OutputTable* table_;
  std::vector<uint8_t> armed_;
  size_t armed_count_ = 0;
};

}  // namespace progxe
