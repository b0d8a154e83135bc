#include "grid/input_grid.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>

#include "common/radix_sort.h"
#include "grid/grid_geometry.h"

namespace progxe {

InputGrid::InputGrid(const Relation& rel, const ContributionTable& contribs,
                     const KeyIndex& keys, const InputGridOptions& options) {
  const int k = contribs.dimensions();
  const size_t n = rel.size();
  assert(keys.size() == n);

  // Global contribution bounds.
  std::vector<Interval> global_bounds(
      static_cast<size_t>(k), Interval(std::numeric_limits<double>::max(),
                                       std::numeric_limits<double>::max()));
  if (n > 0) {
    const double* first = contribs.vector(0);
    for (int j = 0; j < k; ++j) {
      global_bounds[static_cast<size_t>(j)] = Interval::Point(first[j]);
    }
    for (size_t i = 1; i < n; ++i) {
      const double* v = contribs.vector(static_cast<RowId>(i));
      for (int j = 0; j < k; ++j) {
        auto& b = global_bounds[static_cast<size_t>(j)];
        b = Interval(std::min(b.lo, v[j]), std::max(b.hi, v[j]));
      }
    }
  } else {
    global_bounds.assign(static_cast<size_t>(k), Interval(0.0, 0.0));
  }

  const GridGeometry geometry(global_bounds, options.cells_per_dim);

  // Every row's cell, in row order.
  std::vector<uint64_t> cell_of(n);
  std::vector<CellCoord> coords(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    geometry.CoordsOf(contribs.vector(static_cast<RowId>(i)), coords.data());
    cell_of[i] = static_cast<uint64_t>(geometry.IndexOf(coords.data()));
  }

  // One stable pass by cell over the key order: each cell's rows come out
  // contiguous, cells ascending, and within a cell still grouped by key
  // with rows ascending within a key.
  std::vector<RowId> rows(keys.rows().begin(), keys.rows().end());
  RadixSortBy(&rows, [&cell_of](RowId row) { return cell_of[row]; });

  for (size_t begin = 0; begin < n;) {
    const uint64_t cell = cell_of[rows[begin]];
    size_t end = begin + 1;
    while (end < n && cell_of[rows[end]] == cell) ++end;
    const std::span<const RowId> part_rows(rows.data() + begin, end - begin);
    begin = end;

    InputPartition part;
    // Tight observed bounds.
    part.bounds.assign(static_cast<size_t>(k), Interval());
    const double* v0 = contribs.vector(part_rows.front());
    for (int j = 0; j < k; ++j) {
      part.bounds[static_cast<size_t>(j)] = Interval::Point(v0[j]);
    }
    for (RowId id : part_rows) {
      const double* v = contribs.vector(id);
      for (int j = 0; j < k; ++j) {
        auto& b = part.bounds[static_cast<size_t>(j)];
        b = Interval(std::min(b.lo, v[j]), std::max(b.hi, v[j]));
      }
    }

    part.key_index = KeyIndex::FromGrouped(rel, part_rows);
    partitions_.push_back(std::move(part));
  }
}

size_t InputGrid::ApproxBytes() const {
  size_t bytes = 0;
  for (const InputPartition& p : partitions_) {
    bytes += sizeof(InputPartition);
    bytes += p.bounds.capacity() * sizeof(Interval);
    bytes += p.key_index.ApproxBytes();
  }
  return bytes;
}

}  // namespace progxe
