// Output-space regions R_{a,b} (Section III-A, Table I).
//
// A region is the rectangular box of the canonical output space into which
// every join result of input-partition pair (I^R_a, I^T_b) must fall, as
// determined by pushing the partitions' contribution bounds through the
// mapping functions. Regions carry the ordering state used by ProgOrder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/grid_geometry.h"
#include "mapping/interval.h"

namespace progxe {

struct Region {
  /// Dense region id (index into the region collection).
  int32_t id = -1;
  /// Input partition indices: a into R's grid, b into T's grid.
  int32_t a = -1;
  int32_t b = -1;

  /// Real-valued canonical output bounds, one interval per output dimension.
  std::vector<Interval> bounds;

  /// Inclusive output-grid cell box covered by `bounds`.
  std::vector<CellCoord> lo_cell;
  std::vector<CellCoord> hi_cell;

  /// Eliminated during output-space look-ahead (Example 2): every tuple this
  /// region could produce is dominated by another region's results (every
  /// region holds >= 1 join result: its partitions share a join key).
  bool pruned = false;

  /// Set when tuple-level processing of this region has completed.
  bool processed = false;

  /// Discarded at runtime: dominated by actually-generated tuples
  /// (Algorithm 1, line 9).
  bool discarded = false;

  // --- ProgOrder state (Section IV) ---------------------------------------
  /// Estimated number of skyline results (Equation 1).
  double cardinality_est = 0.0;
  /// Estimated tuple-level processing cost (Equation 3/7).
  double cost_est = 1.0;
  /// Progressive partition count (Definition 2), refreshed at each rank.
  int64_t prog_count = 0;
  /// rank = Benefit / Cost (Equation 8).
  double rank = 0.0;
  /// Bumped whenever rank changes; stale priority-queue entries are skipped.
  uint32_t rank_version = 0;

  /// True iff the region still awaits tuple-level processing.
  bool Active() const { return !pruned && !processed && !discarded; }

  int64_t BoxVolume() const {
    int64_t v = 1;
    for (size_t i = 0; i < lo_cell.size(); ++i) {
      v *= static_cast<int64_t>(hi_cell[i] - lo_cell[i] + 1);
    }
    return v;
  }

  std::string ToString() const;
};

/// True iff there exist cells p in box(u), q in box(v) with p strictly
/// below q in every dimension — i.e. u could (at least partially) eliminate
/// v once populated. This is the EL-Graph edge predicate u -> v.
inline bool CanEliminate(const Region& u, const Region& v) {
  for (size_t i = 0; i < u.lo_cell.size(); ++i) {
    if (!(u.lo_cell[i] < v.hi_cell[i])) return false;
  }
  return true;
}

/// True iff u completely eliminates v at the cell level: every cell of v has
/// some cell of u strictly below it in all dimensions.
inline bool CompletelyEliminates(const Region& u, const Region& v) {
  for (size_t i = 0; i < u.lo_cell.size(); ++i) {
    if (!(u.lo_cell[i] < v.lo_cell[i])) return false;
  }
  return true;
}

}  // namespace progxe
