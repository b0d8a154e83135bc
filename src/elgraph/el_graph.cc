#include "elgraph/el_graph.h"

#include <algorithm>
#include <cassert>

namespace progxe {

ElGraph::ElGraph(const std::vector<Region>& regions, const OutputTable* table)
    : table_(table) {
  removed_.assign(regions.size(), 0);
  for (const Region& region : regions) {
    if (!region.Active()) removed_[static_cast<size_t>(region.id)] = 1;
  }

  const GridGeometry& geometry = table_->geometry();
  const size_t k = static_cast<size_t>(geometry.dimensions());
  watch_cell_.assign(regions.size(), -1);
  self_term_.assign(regions.size(), 0);
  watch_begin_.assign(static_cast<size_t>(geometry.total_cells()) + 1, 0);
  std::vector<CellCoord> w(k);
  for (const Region& region : regions) {
    if (!region.Active()) continue;
    bool below_hi = true;
    bool has_cell = true;
    for (size_t d = 0; d < k; ++d) {
      w[d] = region.hi_cell[d] - 1;
      has_cell &= w[d] >= 0;
      below_hi &= region.lo_cell[d] <= w[d];
    }
    if (!has_cell) continue;
    const CellIndex c = geometry.IndexOf(w.data());
    watch_cell_[static_cast<size_t>(region.id)] = c;
    self_term_[static_cast<size_t>(region.id)] = below_hi ? 1 : 0;
    ++watch_begin_[static_cast<size_t>(c) + 1];
  }
  // Counting sort by watch cell; ids stay ascending within a cell.
  for (size_t c = 1; c < watch_begin_.size(); ++c) {
    watch_begin_[c] += watch_begin_[c - 1];
  }
  watch_ids_.resize(static_cast<size_t>(watch_begin_.back()));
  std::vector<int32_t> next(watch_begin_.begin(), watch_begin_.end() - 1);
  for (const Region& region : regions) {
    const CellIndex c = watch_cell_[static_cast<size_t>(region.id)];
    if (c < 0) continue;
    watch_ids_[static_cast<size_t>(next[static_cast<size_t>(c)]++)] =
        region.id;
  }
}

int64_t ElGraph::indegree(int32_t id) const {
  const CellIndex c = watch_cell_[static_cast<size_t>(id)];
  if (c < 0) return 0;
  return table_->cover_lo(c) - self_term_[static_cast<size_t>(id)];
}

std::vector<int32_t> ElGraph::InitialRoots(
    const std::vector<Region>& regions) const {
  std::vector<int32_t> roots;
  for (const Region& region : regions) {
    if (!region.Active()) continue;
    if (indegree(region.id) == 0) roots.push_back(region.id);
  }
  return roots;
}

void ElGraph::OnRegionRemoved(int32_t removed_id,
                              const std::vector<CellIndex>& lowered,
                              std::vector<int32_t>* new_roots) {
  new_roots->clear();
  assert(static_cast<size_t>(removed_id) < removed_.size());
  if (removed_[static_cast<size_t>(removed_id)]) return;
  removed_[static_cast<size_t>(removed_id)] = 1;

  // cover_lo drops by exactly one per removal, so a watcher whose cell now
  // sits at its own term just went from in-degree 1 to 0.
  for (CellIndex c : lowered) {
    const int32_t cover = table_->cover_lo(c);
    const int32_t begin = watch_begin_[static_cast<size_t>(c)];
    const int32_t end = watch_begin_[static_cast<size_t>(c) + 1];
    watch_entries_examined_ += static_cast<uint64_t>(end - begin);
    for (int32_t i = begin; i < end; ++i) {
      const int32_t id = watch_ids_[static_cast<size_t>(i)];
      if (!removed_[static_cast<size_t>(id)] &&
          cover == self_term_[static_cast<size_t>(id)]) {
        new_roots->push_back(id);
      }
    }
  }
  std::sort(new_roots->begin(), new_roots->end());
}

std::vector<int32_t> ElGraph::OnRegionRemoved(
    int32_t removed_id, const std::vector<CellIndex>& lowered) {
  std::vector<int32_t> new_roots;
  OnRegionRemoved(removed_id, lowered, &new_roots);
  return new_roots;
}

size_t ElGraph::NonRootCount() const {
  size_t count = 0;
  for (size_t id = 0; id < removed_.size(); ++id) {
    if (!removed_[id] && indegree(static_cast<int32_t>(id)) > 0) ++count;
  }
  return count;
}

}  // namespace progxe
