// Output-space look-ahead (Section III-A): build all viable output regions,
// prune dominated regions, and mark dominated output partitions — all
// before a single tuple is joined.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "grid/grid_geometry.h"
#include "grid/input_grid.h"
#include "mapping/canonical.h"
#include "outputspace/region.h"

namespace progxe {

/// Statistics of one look-ahead pass.
struct LookaheadStats {
  /// All partition pairs considered (|IR| * |IT|).
  size_t pairs_total = 0;
  /// Pairs skipped because signatures are provably disjoint.
  size_t pairs_skipped_signature = 0;
  /// Viable regions created.
  size_t regions_created = 0;
  /// Regions pruned by region-level domination (Example 2).
  size_t regions_pruned = 0;
  /// Output cells marked non-contributing (Example 3).
  size_t cells_marked = 0;
};

/// Result of look-ahead: the output grid, the region collection and the
/// per-cell non-contributing marks.
struct LookaheadResult {
  GridGeometry output_grid;
  std::vector<Region> regions;
  /// marked[cell] == 1 => every tuple mapping there is dominated by a
  /// guaranteed region's output and can be discarded unseen.
  std::vector<uint8_t> marked;
  /// The Pareto frontier (canonical-minimal) of guaranteed regions' upper
  /// corners; flat array of k-dim points. Used for soundness tests.
  std::vector<double> guaranteed_upper_frontier;
  LookaheadStats stats;
};

/// Hard cap on the dense output-cell table; exceeded => InvalidArgument.
inline constexpr int64_t kMaxOutputCells = 8 * 1000 * 1000;

struct LookaheadOptions {
  int output_cells_per_dim = 10;
};

/// Runs look-ahead over the two gridded sources.
Result<LookaheadResult> OutputSpaceLookahead(const InputGrid& r_grid,
                                             const InputGrid& t_grid,
                                             const CanonicalMapper& mapper,
                                             const LookaheadOptions& options);

}  // namespace progxe
