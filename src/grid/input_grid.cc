#include "grid/input_grid.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "grid/grid_geometry.h"

namespace progxe {

InputGrid::InputGrid(const Relation& rel, const ContributionTable& contribs,
                     const InputGridOptions& options) {
  const int k = contribs.dimensions();
  const size_t n = rel.size();

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

  // Bucket rows by cell.
  std::unordered_map<CellIndex, std::vector<RowId>> cells;
  std::vector<CellCoord> coords(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    geometry.CoordsOf(contribs.vector(static_cast<RowId>(i)), coords.data());
    cells[geometry.IndexOf(coords.data())].push_back(static_cast<RowId>(i));
  }

  // Materialize partitions in deterministic (cell index) order.
  std::vector<CellIndex> order;
  order.reserve(cells.size());
  for (const auto& [idx, rows] : cells) {
    (void)rows;
    order.push_back(idx);
  }
  std::sort(order.begin(), order.end());

  partitions_.reserve(order.size());
  for (CellIndex idx : order) {
    InputPartition part;
    part.rows = std::move(cells[idx]);

    // Tight observed bounds.
    part.bounds.assign(static_cast<size_t>(k), Interval());
    const double* v0 = contribs.vector(part.rows.front());
    for (int j = 0; j < k; ++j) {
      part.bounds[static_cast<size_t>(j)] = Interval::Point(v0[j]);
    }
    for (RowId id : part.rows) {
      const double* v = contribs.vector(id);
      for (int j = 0; j < k; ++j) {
        auto& b = part.bounds[static_cast<size_t>(j)];
        b = Interval(std::min(b.lo, v[j]), std::max(b.hi, v[j]));
      }
    }

    part.key_index = KeyIndex(rel, part.rows);
    partitions_.push_back(std::move(part));
  }
}

size_t InputGrid::ApproxBytes() const {
  size_t bytes = 0;
  for (const InputPartition& p : partitions_) {
    bytes += sizeof(InputPartition);
    bytes += p.rows.capacity() * sizeof(RowId);
    bytes += p.bounds.capacity() * sizeof(Interval);
    bytes += p.key_index.ApproxBytes();
  }
  return bytes;
}

}  // namespace progxe
