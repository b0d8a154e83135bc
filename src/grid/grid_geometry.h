// Uniform multi-dimensional grid geometry, shared by the input-space and
// output-space grids.
//
// Cells are half-open boxes [lo_i, hi_i) per dimension, except the last cell
// of each dimension which is closed on top so the whole domain is covered.
// Half-openness matters for soundness: a tuple in a cell is strictly below
// the cell's upper bound in every dimension (unless it lies in a top cell),
// which is what lets cell-coordinate comparisons imply strict Pareto
// dominance (see outputspace/README notes in DESIGN.md Section 2).
//
// Binning a value is inline: rel = (value - lo) * inv_width is clamped
// into [0, cells - 1] in double, then truncated. For every finite value
// that equals flooring rel and clamping the integer, and the conversion
// stays in range for infinities too. Input partitioning bins every source
// row and the output table's InsertBatch every mapped pair this way.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "mapping/interval.h"

namespace progxe {

/// Cell coordinate along one dimension.
using CellCoord = int32_t;

/// Dense linear index of a cell.
using CellIndex = int64_t;

class GridGeometry {
 public:
  GridGeometry() = default;

  /// A grid over the box `bounds` (one interval per dimension) with
  /// `cells_per_dim` cells along every dimension. Zero-width dimensions are
  /// widened by a tiny epsilon so every point falls into a valid cell.
  GridGeometry(std::vector<Interval> bounds, int cells_per_dim);

  int dimensions() const { return static_cast<int>(bounds_.size()); }
  int cells_per_dim() const { return cells_per_dim_; }

  /// Total number of cells (cells_per_dim ^ dimensions).
  CellIndex total_cells() const { return total_cells_; }

  const Interval& domain(int dim) const {
    return bounds_[static_cast<size_t>(dim)];
  }

  /// Coordinate of `value` along `dim`, clamped into [0, cells_per_dim).
  CellCoord CoordOf(int dim, double value) const {
    const size_t d = static_cast<size_t>(dim);
    const double rel = (value - lo_[d]) * inv_width_[d];
    // `rel > 0` is false for NaN too, which lands in cell 0.
    return static_cast<CellCoord>(rel > 0.0 ? std::min(rel, top_) : 0.0);
  }

  /// Fills `coords[0..dims)` for a point.
  void CoordsOf(const double* point, CellCoord* coords) const {
    for (int i = 0; i < dimensions(); ++i) coords[i] = CoordOf(i, point[i]);
  }

  /// Linearizes coordinates (row-major, dimension 0 slowest).
  CellIndex IndexOf(const CellCoord* coords) const {
    CellIndex idx = 0;
    for (int i = 0; i < dimensions(); ++i) {
      assert(coords[i] >= 0 && coords[i] < cells_per_dim_);
      idx = idx * cells_per_dim_ + coords[i];
    }
    return idx;
  }

  /// Inverse of IndexOf.
  void CoordsOfIndex(CellIndex index, CellCoord* coords) const;

  /// Lower bound of a cell along `dim`.
  double CellLower(int dim, CellCoord c) const;

  /// Upper bound of a cell along `dim`.
  double CellUpper(int dim, CellCoord c) const;

  /// The coordinate range [lo_out, hi_out] (inclusive) of cells that a real
  /// interval overlaps along `dim`, clamped to the grid.
  void CoordRange(int dim, const Interval& iv, CellCoord* lo_out,
                  CellCoord* hi_out) const;

  /// Iterates the inclusive coordinate box [lo, hi] as runs along the last
  /// dimension, whose stride is 1: fn(CellIndex first, int64_t len) once
  /// per row, rows in row-major order, so the cells first..first+len-1 are
  /// contiguous in any dense per-cell array. Allocation-free; coverage
  /// upkeep runs its counting loops over these rows.
  template <typename Fn>
  void ForEachRowInBox(const CellCoord* lo, const CellCoord* hi,
                       Fn&& fn) const {
    assert(dimensions() > 0);
    RowsFrom(0, IndexOf(lo), lo, hi, fn);
  }

  /// Iterates every cell index in the inclusive coordinate box [lo, hi],
  /// invoking fn(CellIndex) in row-major order.
  template <typename Fn>
  void ForEachCellInBox(const CellCoord* lo, const CellCoord* hi,
                        Fn&& fn) const {
    ForEachRowInBox(lo, hi, [&fn](CellIndex first, int64_t len) {
      for (CellIndex c = first; c < first + len; ++c) fn(c);
    });
  }

  /// Turns per-cell values into dominated-region sums in place: after one
  /// prefix-sum pass per dimension, a[c] holds the sum of the input values
  /// at every cell <= c in all dimensions. `a` has total_cells() entries.
  /// O(total_cells * dims).
  template <typename T>
  void PrefixSumAllDims(T* a) const {
    for (size_t d = 0; d < stride_.size(); ++d) {
      // Along dimension d, add each cell's lower neighbour (offset st) into
      // it: within a block of cells_per_dim slabs the inner loop is
      // contiguous.
      const CellIndex st = stride_[d];
      const CellIndex block = st * cells_per_dim_;
      for (CellIndex base = 0; base < total_cells_; base += block) {
        for (CellIndex i = base + st; i < base + block; ++i) a[i] += a[i - st];
      }
    }
  }

  /// Row-major linearization factor of `dim` (the last dimension's is 1).
  CellIndex stride(int dim) const { return stride_[static_cast<size_t>(dim)]; }

  /// Volume (cell count) of an inclusive coordinate box.
  int64_t BoxVolume(const CellCoord* lo, const CellCoord* hi) const {
    int64_t v = 1;
    for (int i = 0; i < dimensions(); ++i) {
      v *= static_cast<int64_t>(hi[i] - lo[i] + 1);
    }
    return v;
  }

  std::string ToString() const;

 private:
  template <typename Fn>
  void RowsFrom(int dim, CellIndex base, const CellCoord* lo,
                const CellCoord* hi, Fn& fn) const {
    const int last = dimensions() - 1;
    assert(lo[dim] <= hi[dim]);
    const int64_t len = static_cast<int64_t>(hi[last] - lo[last] + 1);
    if (dim == last) {
      fn(base, len);
      return;
    }
    const CellIndex st = stride_[static_cast<size_t>(dim)];
    for (CellCoord c = lo[dim]; c <= hi[dim]; ++c, base += st) {
      // The rows themselves come from a plain loop, not another call level.
      if (dim + 1 == last) {
        fn(base, len);
      } else {
        RowsFrom(dim + 1, base, lo, hi, fn);
      }
    }
  }

  std::vector<Interval> bounds_;
  std::vector<double> lo_;         // bounds_[d].lo, per dim
  std::vector<double> inv_width_;  // cells_per_dim / domain width, per dim
  double top_ = 0.0;               // cells_per_dim - 1, the last coordinate
  // Row-major linearization factor per dimension (dimension 0 slowest):
  // stride_[d] = cells_per_dim ^ (dims - 1 - d).
  std::vector<CellIndex> stride_;
  int cells_per_dim_ = 0;
  CellIndex total_cells_ = 0;
};

/// Picks the largest per-dimension cell count whose k-dimensional total
/// stays under `budget`, clamped to [lo, hi] — the auto-sizing rule shared
/// by the engine's grids (progxe/prepare.cc) and the sharded merge sink's
/// canonical-cell index, so the two cannot drift apart.
int AutoCellsPerDim(int k, double budget, int lo, int hi);

}  // namespace progxe
