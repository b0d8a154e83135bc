#include "progxe/output_table.h"

#include <algorithm>
#include <cassert>

#include "common/compact.h"

namespace progxe {

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
  reg_count_.assign(total, 0);
  emitted_.assign(total, 0);
  cell_slot_.assign(total, -1);
  scratch_coords_.resize(static_cast<size_t>(k_));
  pop_index_ = DominanceIndex(k_, geometry_.cells_per_dim());
}

void OutputTable::InitCoverage(const std::vector<Region>& regions) {
  for (const Region& region : regions) {
    if (!region.Active()) continue;
    geometry_.ForEachCellInBox(
        region.lo_cell.data(), region.hi_cell.data(),
        [this](CellIndex c) { ++reg_count_[static_cast<size_t>(c)]; });
  }
}

void OutputTable::ReleaseRegionCoverage(const Region& region,
                                        std::vector<CellIndex>* settled_out) {
  settled_out->clear();
  geometry_.ForEachCellInBox(
      region.lo_cell.data(), region.hi_cell.data(),
      [this, settled_out](CellIndex c) {
        int32_t& rc = reg_count_[static_cast<size_t>(c)];
        assert(rc > 0);
        if (--rc == 0) settled_out->push_back(c);
      });
}

std::vector<CellIndex> OutputTable::ReleaseRegionCoverage(
    const Region& region) {
  std::vector<CellIndex> settled;
  ReleaseRegionCoverage(region, &settled);
  return settled;
}

bool OutputTable::populated(CellIndex c) const {
  const int32_t s = slot(c);
  return s >= 0 && cells_[static_cast<size_t>(s)].alive_count > 0;
}

size_t OutputTable::AliveCount(CellIndex c) const {
  const int32_t s = slot(c);
  return s < 0 ? 0 : cells_[static_cast<size_t>(s)].alive_count;
}

bool OutputTable::FrontierStrictlyDominates(const CellCoord* coords) const {
  // Equivalent to scanning the frontier: a populated cell's index entry is
  // removed only when a strictly-lower populated cell exists (eager kill /
  // frontier kill), so a frontier dominator always implies a live one.
  return pop_index_.AnyLiveStrictlyBelow(coords);
}

bool OutputTable::RegionDominatedByFrontier(const Region& region) const {
  return FrontierStrictlyDominates(region.lo_cell.data());
}

bool OutputTable::FrontierDominatesSince(const CellCoord* coords,
                                         uint64_t since_epoch) const {
  return pop_index_.FrontierDominatesSince(coords, since_epoch);
}

OutputTable::CellData* OutputTable::EnsureCell(CellIndex c,
                                               const CellCoord* coords) {
  int32_t s = slot(c);
  if (s >= 0) return &cells_[static_cast<size_t>(s)];
  s = static_cast<int32_t>(cells_.size());
  cells_.emplace_back();
  cells_.back().coords.assign(coords, coords + k_);
  cells_.back().index = c;
  cell_slot_[static_cast<size_t>(c)] = s;
  return &cells_.back();
}

void OutputTable::AddUnflushed(int32_t cell_slot) {
  CellData& cell = cells_[static_cast<size_t>(cell_slot)];
  assert(cell.unflushed_pos < 0);
  cell.unflushed_pos = static_cast<int32_t>(unflushed_slots_.size());
  unflushed_slots_.push_back(cell_slot);
  unflushed_coords_.insert(unflushed_coords_.end(), cell.coords.begin(),
                           cell.coords.end());
}

void OutputTable::RemoveUnflushed(CellData& cell) {
  const int32_t pos = cell.unflushed_pos;
  if (pos < 0) return;
  cell.unflushed_pos = -1;
  const size_t last = unflushed_slots_.size() - 1;
  const size_t kk = static_cast<size_t>(k_);
  if (static_cast<size_t>(pos) != last) {
    const int32_t moved = unflushed_slots_[last];
    unflushed_slots_[static_cast<size_t>(pos)] = moved;
    std::copy_n(unflushed_coords_.begin() + static_cast<ptrdiff_t>(last * kk),
                kk,
                unflushed_coords_.begin() +
                    static_cast<ptrdiff_t>(static_cast<size_t>(pos) * kk));
    cells_[static_cast<size_t>(moved)].unflushed_pos = pos;
  }
  unflushed_slots_.pop_back();
  unflushed_coords_.resize(last * kk);
}

CellIndex OutputTable::FindUnflushedInBox(const CellCoord* lo,
                                          const CellCoord* hi,
                                          uint64_t* examined) const {
  const size_t kk = static_cast<size_t>(k_);
  for (size_t i = 0; i < unflushed_slots_.size(); ++i) {
    const CellCoord* coords = unflushed_coords_.data() + i * kk;
    if (DominanceIndex::CoordsLeq(lo, coords, k_) &&
        DominanceIndex::CoordsLeq(coords, hi, k_)) {
      *examined += i + 1;
      return cells_[static_cast<size_t>(unflushed_slots_[i])].index;
    }
  }
  *examined += unflushed_slots_.size();
  return -1;
}

void OutputTable::KillCell(CellIndex c) {
  if (marked_[static_cast<size_t>(c)]) return;
  marked_[static_cast<size_t>(c)] = 1;
  marked_events_.push_back(c);
  const int32_t s = slot(c);
  if (s >= 0) {
    CellData& cell = cells_[static_cast<size_t>(s)];
    RemoveUnflushed(cell);
    stats_->tuples_evicted += cell.alive_count;
    cell.values.clear();
    cell.ids.clear();
    cell.alive.clear();
    cell.alive_count = 0;
    cell.dead_count = 0;
    // Tombstone the populated-cell index entry: a marked cell never
    // receives tuples again, so it can never re-populate.
    if (cell.pop_pos >= 0) {
      pop_index_.Remove(cell.pop_pos);
      cell.pop_pos = -1;
    }
  }
}

void OutputTable::MaybeCompactPopulated() {
  pop_index_.MaybeCompact([this](int32_t cell_slot, int32_t pos) {
    cells_[static_cast<size_t>(cell_slot)].pop_pos = pos;
  });
}

void OutputTable::OnCellPopulated(CellIndex c, const CellCoord* coords) {
  CellData& self = cells_[static_cast<size_t>(slot(c))];
  if (self.pop_pos < 0) {
    self.pop_pos = pop_index_.Add(coords, slot(c));
  }
  pop_index_.NoteFrontier(coords);
  // Eager kill: every populated cell strictly above `coords` is now wholly
  // dominated (any tuple here dominates all of its tuples, half-open
  // cells). Candidates have coord[d] >= coords[d] + 1 in every dimension.
  pop_index_.SweepGe(coords, 1, [this](size_t p) {
    CellData& other = cells_[static_cast<size_t>(pop_index_.payload(p))];
    const CellIndex oc = other.index;
    if (other.alive_count != 0 && !emitted_[static_cast<size_t>(oc)]) {
      KillCell(oc);
    }
    return true;
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
  if (FrontierStrictlyDominates(coords)) {
    KillCell(c);
    ++stats_->tuples_discarded_frontier;
    return InsertOutcome::kDiscardedFrontier;
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

void OutputTable::InsertBatchPrebinned(const double* values,
                                       const RowIdPair* ids, size_t n,
                                       const CellCoord* coords,
                                       const CellIndex* cells) {
  InsertRuns(values, ids, n, coords, cells);
}

void OutputTable::InsertRuns(const double* values, const RowIdPair* ids,
                             size_t n, const CellCoord* coords_flat,
                             const CellIndex* cells) {
  const size_t kk = static_cast<size_t>(k_);
  // Pass 2: process runs of consecutive same-cell tuples. Processing order
  // is exactly the input order, so counters match the per-tuple path. The
  // run-level shortcut is sound because within a run neither check can
  // flip: inserting into cell c never marks c (the eager kill skips cells
  // the new tuple does not strictly dominate, c included), and never makes
  // the frontier strictly dominate c (the only entry added is c's own
  // coordinates, and entries it evicts are covered by it).
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
    if (FrontierStrictlyDominates(coords)) {
      // Per-tuple equivalence: the first tuple takes the frontier hit and
      // kills the cell; the rest would then see the cell marked.
      KillCell(c);
      ++stats_->tuples_discarded_frontier;
      stats_->tuples_discarded_marked += run_len - 1;
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
  // populated cells p with p <= coords in every dimension (cells strictly
  // below in all dimensions were handled by the frontier test above, so any
  // survivor here shares at least one coordinate — the paper's slice).
  // Candidates are enumerated by ANDing the per-dimension <= bitmaps.
  //
  // Tie fast-path: if an *alive* tuple exactly equals the newcomer, nothing
  // generated so far dominates either (or the incumbent would be dead), and
  // anything the newcomer would evict is already evicted — so both scans can
  // stop. This keeps heavily-tied workloads (e.g. all-zero penalty
  // dimensions in query relaxation) linear instead of quadratic.
  bool found_equal_alive = false;
  bool dominated = false;
  pop_index_.SweepLe(coords, [&](size_t p) {
    const CellCoord* pc = pop_index_.entry_coords(p);
    // Strictly-below populated cells cannot exist here (the frontier
    // test ran first); skipping them keeps the slice identical to the
    // paper's.
    if (DominanceIndex::CoordsStrictlyBelow(pc, coords, k_)) return true;
    const CellData& cell =
        cells_[static_cast<size_t>(pop_index_.payload(p))];
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

  // Evict live tuples the new one dominates: populated cells p with
  // p >= coords in every dimension (again, sharing a coordinate; strictly
  // greater cells are killed wholesale when this cell first populates).
  if (!found_equal_alive) {
    pop_index_.SweepGe(coords, 0, [&](size_t p) {
      const CellCoord* pc = pop_index_.entry_coords(p);
      // Strictly-above cells are killed wholesale (and marked) when this
      // cell first populates; evicting their tuples here instead would
      // leave them unmarked and still accepting arrivals.
      if (DominanceIndex::CoordsStrictlyBelow(coords, pc, k_)) return true;
      CellData& cell = cells_[static_cast<size_t>(pop_index_.payload(p))];
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
      if (cell.alive_count == 0) RemoveUnflushed(cell);
      if (cell.dead_count > cell.ids.size() / 2) cell.Compact(k_);
      return true;
    });
  }

  // Insert.
  CellData* cell = EnsureCell(c, coords);
  const bool newly_populated = cell->alive_count == 0 && cell->ids.empty();
  cell->values.insert(cell->values.end(), values, values + k_);
  cell->ids.push_back(CellTupleIds{r_id, t_id});
  cell->alive.push_back(1);
  if (++cell->alive_count == 1) AddUnflushed(slot(c));
  if (newly_populated) OnCellPopulated(c, coords);
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
  RemoveUnflushed(cell);
  const size_t kk = static_cast<size_t>(k_);
  for (size_t i = 0; i < cell.ids.size(); ++i) {
    if (!cell.alive[i]) continue;
    values_out->insert(values_out->end(),
                       cell.values.begin() + static_cast<ptrdiff_t>(i * kk),
                       cell.values.begin() + static_cast<ptrdiff_t>((i + 1) * kk));
    ids_out->push_back(cell.ids[i]);
  }
}

void OutputTable::DrainMarkedEvents(std::vector<CellIndex>* out) {
  out->assign(marked_events_.begin(), marked_events_.end());
  marked_events_.clear();
}

std::vector<CellIndex> OutputTable::DrainMarkedEvents() {
  std::vector<CellIndex> out;
  out.swap(marked_events_);
  return out;
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
