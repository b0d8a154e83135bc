#include "progxe/output_table.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/compact.h"

namespace progxe {

namespace {

/// a <= b in every one of the k dimensions.
bool AllLeq(const double* a, const double* b, int k) {
  for (int d = 0; d < k; ++d) {
    if (a[d] > b[d]) return false;
  }
  return true;
}

}  // namespace

void OutputTable::CellData::Compact(int k) {
  if (dead_count == 0) return;
  const size_t kk = static_cast<size_t>(k);
  const size_t w = CompactParallel(
      ids.size(), [this](size_t i) { return alive[i] != 0; },
      [this, kk](size_t from, size_t to) {
        MoveFlatRow(values.data(), kk, from, to);
        ids[to] = ids[from];
      });
  values.resize(w * kk);
  ids.resize(w);
  alive.assign(w, 1);
  dead_count = 0;
  assert(alive_count == w);
}

OutputTable::OutputTable(GridGeometry geometry, std::vector<uint8_t> marked,
                         ProgXeStats* stats)
    : geometry_(std::move(geometry)),
      k_(geometry_.dimensions()),
      stats_(stats),
      marked_(std::move(marked)) {
  const size_t total = static_cast<size_t>(geometry_.total_cells());
  assert(marked_.size() == total);
  cover_.assign(total, 0);
  prog_coords_.resize(static_cast<size_t>(k_));
  top_cell_.assign(static_cast<size_t>(k_), geometry_.cells_per_dim() - 1);
  emitted_.assign(total, 0);
  cell_slot_.assign(total, -1);
  scratch_coords_.resize(static_cast<size_t>(k_));
  walk_coords_.resize(static_cast<size_t>(k_));
  pop_index_ = DominanceIndex(k_, geometry_.cells_per_dim());
#ifndef NDEBUG
  // Up-closure: a marked cell's upper neighbours are marked.
  std::vector<CellCoord> coords(static_cast<size_t>(k_));
  for (CellIndex c = 0; c < geometry_.total_cells(); ++c) {
    if (!marked_[static_cast<size_t>(c)]) continue;
    geometry_.CoordsOfIndex(c, coords.data());
    for (int d = 0; d < k_; ++d) {
      assert(coords[static_cast<size_t>(d)] == top_cell_[0] ||
             marked_[static_cast<size_t>(c + geometry_.stride(d))]);
    }
  }
#endif
}

void OutputTable::InitCoverage(const std::vector<Region>& regions) {
  regions_ = &regions;
  std::fill(cover_.begin(), cover_.end(), 0);
  for (const Region& region : regions) {
    if (!region.Active()) continue;
    cover_[static_cast<size_t>(geometry_.IndexOf(region.lo_cell.data()))] +=
        CoverTerm(region.id);
  }
  geometry_.PrefixSumAllDims(cover_.data());

  // ProgCount of every region in one pass over the cells with a single
  // coverer; the odometer keeps each cell's coordinates without division.
  prog_count_.assign(regions.size(), 0);
  const CellIndex total = geometry_.total_cells();
  const CellCoord top = geometry_.cells_per_dim() - 1;
  std::vector<CellCoord> coords(static_cast<size_t>(k_), 0);
  for (CellIndex c = 0; c < total; ++c) {
    if (cover_lo(c) == 1 && !marked_[static_cast<size_t>(c)]) {
      AdjustProgCount(c, coords.data(), +1);
    }
    for (int d = k_ - 1; d >= 0; --d) {
      CellCoord& x = coords[static_cast<size_t>(d)];
      if (++x <= top) break;
      x = 0;
    }
  }
  // One prefix-sum pass per dimension plus the ProgCount pass.
  coverage_cells_walked_ += (static_cast<uint64_t>(k_) + 1) *
                            static_cast<uint64_t>(total);
}

void OutputTable::AdjustProgCount(CellIndex c, const CellCoord* coords,
                                  int64_t delta) {
  // cover_lo == 1: the high half of cover_ names the cell's one coverer.
  // Only a region whose box holds the cell counts it, and any such region
  // has lo_cell <= the cell, so no other region can.
  const uint32_t id =
      static_cast<uint32_t>(cover_[static_cast<size_t>(c)] >> 32);
  const Region& region = (*regions_)[id];
  for (int d = 0; d < k_; ++d) {
    if (coords[d] > region.hi_cell[static_cast<size_t>(d)]) return;
  }
  prog_count_[id] += delta;
}

void OutputTable::ReleaseRegionCoverage(const Region& region,
                                        CoverageRelease* out) {
  out->lowered.clear();
  out->flush.clear();
  // cover_lo never decreases along a row, so the up-set row's first cell
  // is its minimum and the cells at or below 1 form a prefix of the row.
  uint64_t* cover = cover_.data();
  const uint64_t term = CoverTerm(region.id);
  geometry_.ForEachRowInBox(
      region.lo_cell.data(), top_cell_.data(),
      [cover, term, out](CellIndex first, int64_t len) {
        uint64_t* row = cover + first;
        for (int64_t i = 0; i < len; ++i) {
          assert(static_cast<uint32_t>(row[i]) > 0);
          row[i] -= term;
        }
        for (int64_t i = 0; i < len && static_cast<uint32_t>(row[i]) <= 1;
             ++i) {
          out->lowered.push_back(first + i);
        }
      });
  // A cell reaches cover_lo 1 once: it now counts for its one remaining
  // coverer's ProgCount if that region's box holds it. It reaches 0 once
  // too, and then flushes if it holds live tuples (a cell with live tuples
  // is unmarked; it is unemitted because only this rule flushes).
  CellCoord* coords = prog_coords_.data();
  for (CellIndex c : out->lowered) {
    if (cover_lo(c) == 0) {
      if (populated(c)) {
        assert(!marked_[static_cast<size_t>(c)] &&
               !emitted_[static_cast<size_t>(c)]);
        out->flush.push_back(c);
      }
      continue;
    }
    if (marked_[static_cast<size_t>(c)]) continue;
    geometry_.CoordsOfIndex(c, coords);
    AdjustProgCount(c, coords, +1);
  }
  coverage_cells_walked_ +=
      static_cast<uint64_t>(
          geometry_.BoxVolume(region.lo_cell.data(), top_cell_.data())) +
      out->lowered.size();
}

OutputTable::CoverageRelease OutputTable::ReleaseRegionCoverage(
    const Region& region) {
  CoverageRelease release;
  ReleaseRegionCoverage(region, &release);
  return release;
}

bool OutputTable::populated(CellIndex c) const {
  const int32_t s = slot(c);
  return s >= 0 && cells_[static_cast<size_t>(s)].alive_count > 0;
}

size_t OutputTable::AliveCount(CellIndex c) const {
  const int32_t s = slot(c);
  return s < 0 ? 0 : cells_[static_cast<size_t>(s)].alive_count;
}

int32_t OutputTable::AddCell(CellIndex c, const CellCoord* coords) {
  assert(slot(c) < 0);
  const int32_t s = static_cast<int32_t>(cells_.size());
  cells_.emplace_back();
  CellData& cell = cells_.back();
  cell.coords.assign(coords, coords + k_);
  cell.index = c;
  cell.pop_pos = pop_index_.Add(coords, s);
  cell_slot_[static_cast<size_t>(c)] = s;
  cell_min_.insert(cell_min_.end(), static_cast<size_t>(k_),
                   std::numeric_limits<double>::infinity());
  cell_max_.insert(cell_max_.end(), static_cast<size_t>(k_),
                   -std::numeric_limits<double>::infinity());
  return s;
}

void OutputTable::MarkCell(CellIndex c, const CellCoord* coords) {
  assert(!marked_[static_cast<size_t>(c)]);
  marked_[static_cast<size_t>(c)] = 1;
  newly_marked_.push_back(c);
  if (cover_lo(c) == 1) AdjustProgCount(c, coords, -1);
  const int32_t s = slot(c);
  if (s < 0) return;
  CellData& cell = cells_[static_cast<size_t>(s)];
  // Tuples arrive only in cells an active region covers, and a flushed
  // cell has no active region at or below it — so none is above one.
  assert(!emitted_[static_cast<size_t>(c)]);
  stats_->tuples_evicted += cell.alive_count;
  cell.values.clear();
  cell.ids.clear();
  cell.alive.clear();
  cell.alive_count = 0;
  cell.dead_count = 0;
  // A marked cell never receives tuples again, so it can never re-populate.
  pop_index_.Remove(cell.pop_pos);
  cell.pop_pos = -1;
}

void OutputTable::MarkAbove(const CellCoord* coords) {
  const CellCoord top = geometry_.cells_per_dim() - 1;
  CellCoord* at = walk_coords_.data();
  for (int d = 0; d < k_; ++d) {
    if (coords[d] == top) return;  // nothing strictly above
    at[d] = coords[d] + 1;
  }
  MarkFrom(0, geometry_.IndexOf(at), at);
}

void OutputTable::MarkDominatedBy(const double* point) {
  const CellCoord top = geometry_.cells_per_dim() - 1;
  CellCoord* coords = scratch_coords_.data();
  for (int d = 0; d < k_; ++d) {
    if (point[d] < geometry_.CellLower(d, 0)) {
      coords[d] = -1;
    } else if (point[d] <= geometry_.CellUpper(d, top)) {
      coords[d] = geometry_.CoordOf(d, point[d]);
    } else {
      return;  // above the grid (or NaN): no cell is strictly above it
    }
  }
  MarkAbove(coords);
}

void OutputTable::MarkFrom(int d, CellIndex corner, CellCoord* at) {
  const CellCoord top = geometry_.cells_per_dim() - 1;
  const CellCoord first = at[d];
  const CellIndex stride = geometry_.stride(d);
  for (; at[d] <= top; ++at[d], corner += stride) {
    // `corner` is the lowest cell left in this loop: at[0..d] as they
    // stand, at[e] in every later dimension. The walk has not visited it,
    // so a mark there predates the walk and, by up-closure, covers every
    // cell left in the loop.
    if (marked_[static_cast<size_t>(corner)]) break;
    if (d + 1 == k_) {
      MarkCell(corner, at);
    } else {
      MarkFrom(d + 1, corner, at);
    }
  }
  at[d] = first;
}

void OutputTable::TakeNewlyMarked(std::vector<CellIndex>* out) {
  out->clear();
  out->swap(newly_marked_);
}

void OutputTable::MaybeCompactPopulated() {
  pop_index_.MaybeCompact([this](int32_t cell_slot, int32_t pos) {
    cells_[static_cast<size_t>(cell_slot)].pop_pos = pos;
  });
}

InsertOutcome OutputTable::Insert(const double* values, RowId r_id,
                                  RowId t_id) {
  CellCoord* coords = scratch_coords_.data();
  geometry_.CoordsOf(values, coords);
  const CellIndex c = geometry_.IndexOf(coords);

  assert(!emitted_[static_cast<size_t>(c)] &&
         "tuple arrived in an already-flushed cell");

  if (marked_[static_cast<size_t>(c)]) {
    ++stats_->tuples_discarded_marked;
    return InsertOutcome::kDiscardedMarked;
  }
  MaybeCompactPopulated();
  return InsertAlive(values, r_id, t_id, coords, c);
}

void OutputTable::InsertBatch(const double* values, const RowIdPair* ids,
                              size_t n) {
  const size_t kk = static_cast<size_t>(k_);
  if (batch_coords_.size() < n * kk) batch_coords_.resize(n * kk);
  if (batch_cells_.size() < n) batch_cells_.resize(n);

  // Pass 1: coordinates and cell indices for the whole block, one tight
  // loop over the geometry.
  for (size_t i = 0; i < n; ++i) {
    CellCoord* coords = batch_coords_.data() + i * kk;
    geometry_.CoordsOf(values + i * kk, coords);
    batch_cells_[i] = geometry_.IndexOf(coords);
  }
  InsertRuns(values, ids, n, batch_coords_.data(), batch_cells_.data());
}

void OutputTable::InsertRuns(const double* values, const RowIdPair* ids,
                             size_t n, const CellCoord* coords_flat,
                             const CellIndex* cells) {
  const size_t kk = static_cast<size_t>(k_);
  // Pass 2: process runs of consecutive same-cell tuples. Processing order
  // is exactly the input order, so counters match the per-tuple path. The
  // run-level shortcut is sound because within a run the marked check
  // cannot flip: inserting into cell c marks only cells strictly above c.
  size_t i = 0;
  while (i < n) {
    const CellIndex c = cells[i];
    size_t run_end = i + 1;
    while (run_end < n && cells[run_end] == c) ++run_end;
    const size_t run_len = run_end - i;
    const CellCoord* coords = coords_flat + i * kk;

    assert(!emitted_[static_cast<size_t>(c)] &&
           "tuple arrived in an already-flushed cell");

    if (marked_[static_cast<size_t>(c)]) {
      stats_->tuples_discarded_marked += run_len;
      i = run_end;
      continue;
    }
    MaybeCompactPopulated();
    for (size_t t = i; t < run_end; ++t) {
      InsertAlive(values + t * kk, ids[t].r, ids[t].t, coords, c);
    }
    i = run_end;
  }
}

InsertOutcome OutputTable::InsertAlive(const double* values, RowId r_id,
                                       RowId t_id, const CellCoord* coords,
                                       CellIndex c) {
  const size_t kk = static_cast<size_t>(k_);

  // Dominance check against live tuples in the comparable dominator slice:
  // populated cells p with p <= coords in every dimension. None is strictly
  // below in all dimensions — it would have marked this cell — so every
  // candidate shares at least one coordinate (the paper's slice).
  // Candidates are enumerated by ANDing the per-dimension <= bitmaps; a
  // cell whose value min is not <= the newcomer holds no tuple that could
  // dominate or equal it, and is skipped on the flat bounds alone.
  //
  // Tie fast-path: if an *alive* tuple exactly equals the newcomer, nothing
  // generated so far dominates either (or the incumbent would be dead), and
  // anything the newcomer would evict is already evicted — so both scans can
  // stop. This keeps heavily-tied workloads (e.g. all-zero penalty
  // dimensions in query relaxation) linear instead of quadratic.
  bool found_equal_alive = false;
  bool dominated = false;
  pop_index_.SweepLe(coords, [&](size_t p) {
    assert(!DominanceIndex::CoordsStrictlyBelow(pop_index_.entry_coords(p),
                                                coords, k_));
    const size_t s = static_cast<size_t>(pop_index_.payload(p));
    if (!AllLeq(cell_min_.data() + s * kk, values, k_)) return true;
    const CellData& cell = cells_[s];
    if (cell.alive_count == 0) return true;
    const bool own_cell = cell.index == c;
    for (size_t i = 0; i < cell.ids.size(); ++i) {
      if (!cell.alive[i]) continue;
      if (own_cell) {
        DomResult r = CompareMin(cell.values.data() + i * kk, values, k_,
                                 &dom_counter_);
        if (r == DomResult::kLeftDominates) {
          dominated = true;
          return false;
        }
        if (r == DomResult::kEqual) {
          found_equal_alive = true;
          return false;
        }
      } else if (DominatesMin(cell.values.data() + i * kk, values, k_,
                              &dom_counter_)) {
        dominated = true;
        return false;
      }
    }
    return true;
  });
  if (dominated) {
    ++stats_->tuples_dominated_on_insert;
    return InsertOutcome::kDominated;
  }

  // First tuple of the cell: every cell strictly above is now dominated
  // (any tuple here dominates all of its tuples, half-open cells).
  int32_t own_slot = slot(c);
  if (own_slot < 0) {
    own_slot = AddCell(c, coords);
    MarkAbove(coords);
  }

  // Evict live tuples the new one dominates: populated cells p with
  // p >= coords in every dimension, none strictly above (just marked).
  if (!found_equal_alive) {
    pop_index_.SweepGe(coords, [&](size_t p) {
      assert(!DominanceIndex::CoordsStrictlyBelow(
          coords, pop_index_.entry_coords(p), k_));
      const size_t s = static_cast<size_t>(pop_index_.payload(p));
      if (!AllLeq(values, cell_max_.data() + s * kk, k_)) return true;
      CellData& cell = cells_[s];
      if (cell.alive_count == 0) return true;
      if (emitted_[static_cast<size_t>(cell.index)]) return true;
      for (size_t i = 0; i < cell.ids.size(); ++i) {
        if (!cell.alive[i]) continue;
        if (DominatesMin(values, cell.values.data() + i * kk, k_,
                         &dom_counter_)) {
          cell.alive[i] = 0;
          --cell.alive_count;
          ++cell.dead_count;
          ++stats_->tuples_evicted;
        }
      }
      if (cell.dead_count > cell.ids.size() / 2) cell.Compact(k_);
      return true;
    });
  }

  // Insert.
  CellData& cell = cells_[static_cast<size_t>(own_slot)];
  cell.values.insert(cell.values.end(), values, values + k_);
  cell.ids.push_back(CellTupleIds{r_id, t_id});
  cell.alive.push_back(1);
  ++cell.alive_count;
  double* lo = cell_min_.data() + static_cast<size_t>(own_slot) * kk;
  double* hi = cell_max_.data() + static_cast<size_t>(own_slot) * kk;
  for (int d = 0; d < k_; ++d) {
    lo[d] = std::min(lo[d], values[d]);
    hi[d] = std::max(hi[d], values[d]);
  }
  return InsertOutcome::kInserted;
}

void OutputTable::FlushCell(CellIndex c, std::vector<double>* values_out,
                            std::vector<CellTupleIds>* ids_out) {
  assert(!emitted_[static_cast<size_t>(c)]);
  assert(!marked_[static_cast<size_t>(c)]);
  emitted_[static_cast<size_t>(c)] = 1;
  const int32_t s = slot(c);
  if (s < 0) return;
  CellData& cell = cells_[static_cast<size_t>(s)];
  const size_t kk = static_cast<size_t>(k_);
  for (size_t i = 0; i < cell.ids.size(); ++i) {
    if (!cell.alive[i]) continue;
    values_out->insert(values_out->end(),
                       cell.values.begin() + static_cast<ptrdiff_t>(i * kk),
                       cell.values.begin() + static_cast<ptrdiff_t>((i + 1) * kk));
    ids_out->push_back(cell.ids[i]);
  }
}

std::vector<CellIndex> OutputTable::PopulatedCells() const {
  std::vector<CellIndex> out;
  for (const CellData& cell : cells_) {
    if (cell.alive_count == 0) continue;
    out.push_back(cell.index);
  }
  return out;
}

}  // namespace progxe
