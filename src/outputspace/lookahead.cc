#include "outputspace/lookahead.h"

#include <algorithm>
#include <limits>

#include "skyline/skyline.h"

namespace progxe {

namespace {

/// True iff point u Pareto-dominates point v (minimize-all, strict).
bool PointDominates(const double* u, const double* v, int k) {
  bool strict = false;
  for (int i = 0; i < k; ++i) {
    if (u[i] > v[i]) return false;
    if (u[i] < v[i]) strict = true;
  }
  return strict;
}

}  // namespace

Result<LookaheadResult> OutputSpaceLookahead(const InputGrid& r_grid,
                                             const InputGrid& t_grid,
                                             const CanonicalMapper& mapper,
                                             const LookaheadOptions& options) {
  LookaheadResult out;
  const int k = mapper.output_dimensions();

  // --- Step 1: viable partition pairs -> regions ---------------------------
  const auto& r_parts = r_grid.partitions();
  const auto& t_parts = t_grid.partitions();
  out.stats.pairs_total = r_parts.size() * t_parts.size();

  std::vector<Interval> bounds(static_cast<size_t>(k));
  for (size_t a = 0; a < r_parts.size(); ++a) {
    for (size_t b = 0; b < t_parts.size(); ++b) {
      const InputPartition& pa = r_parts[a];
      const InputPartition& pb = t_parts[b];
      // A shared key guarantees the region >= 1 join result.
      if (!pa.key_index.SharesKeyWith(pb.key_index)) {
        ++out.stats.pairs_skipped_signature;
        continue;
      }
      Region region;
      region.id = static_cast<int32_t>(out.regions.size());
      region.a = static_cast<int32_t>(a);
      region.b = static_cast<int32_t>(b);
      mapper.CombineBounds(pa.bounds.data(), pb.bounds.data(), bounds.data());
      region.bounds = bounds;
      out.regions.push_back(std::move(region));
    }
  }
  out.stats.regions_created = out.regions.size();

  // --- Step 2: output grid over the hull of all region bounds --------------
  std::vector<Interval> hull(static_cast<size_t>(k), Interval(0.0, 0.0));
  if (!out.regions.empty()) {
    hull = out.regions.front().bounds;
    for (const Region& region : out.regions) {
      for (int j = 0; j < k; ++j) {
        hull[static_cast<size_t>(j)] =
            hull[static_cast<size_t>(j)].Hull(region.bounds[static_cast<size_t>(j)]);
      }
    }
  }
  out.output_grid = GridGeometry(hull, options.output_cells_per_dim);
  if (out.output_grid.total_cells() > kMaxOutputCells) {
    return Status::InvalidArgument(
        "output grid would have " +
        std::to_string(out.output_grid.total_cells()) +
        " cells; lower output_cells_per_dim or the output dimensionality");
  }

  // Cell boxes per region.
  for (Region& region : out.regions) {
    region.lo_cell.resize(static_cast<size_t>(k));
    region.hi_cell.resize(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
      out.output_grid.CoordRange(j, region.bounds[static_cast<size_t>(j)],
                                 &region.lo_cell[static_cast<size_t>(j)],
                                 &region.hi_cell[static_cast<size_t>(j)]);
    }
  }

  // --- Step 3: region-level domination pruning (Example 2) -----------------
  // Pareto frontier (minimize) of the regions' upper corners (every region
  // holds >= 1 join result); any region whose lower corner is dominated by
  // a frontier point can never contribute and is pruned before any join
  // work.
  std::vector<double> uppers;
  for (const Region& region : out.regions) {
    for (int j = 0; j < k; ++j) {
      uppers.push_back(region.bounds[static_cast<size_t>(j)].hi);
    }
  }
  if (!uppers.empty()) {
    PointView upper_view{uppers.data(), uppers.size() / static_cast<size_t>(k),
                         k};
    std::vector<uint32_t> frontier_idx = SkylineSFS(upper_view);
    for (uint32_t fi : frontier_idx) {
      const double* p = upper_view.point(fi);
      out.guaranteed_upper_frontier.insert(out.guaranteed_upper_frontier.end(),
                                           p, p + k);
    }
  }
  const size_t frontier_n =
      out.guaranteed_upper_frontier.size() / static_cast<size_t>(k);

  std::vector<double> lower(static_cast<size_t>(k));
  for (Region& region : out.regions) {
    for (int j = 0; j < k; ++j) {
      lower[static_cast<size_t>(j)] = region.bounds[static_cast<size_t>(j)].lo;
    }
    for (size_t f = 0; f < frontier_n; ++f) {
      const double* u =
          out.guaranteed_upper_frontier.data() + f * static_cast<size_t>(k);
      if (PointDominates(u, lower.data(), k)) {
        region.pruned = true;
        ++out.stats.regions_pruned;
        break;
      }
    }
  }

  // --- Step 4: partition-level marking (Example 3) -------------------------
  // A cell is non-contributing when some region's upper corner u dominates
  // the cell's lower corner: the region's guaranteed tuple (<= u in every
  // dimension) then dominates every tuple that could map there. CellLower
  // is monotone in the coordinate, so per dimension j the cells with lower
  // bound >= u_j start at m_j and those with lower bound > u_j at s_j; u's
  // marked set is the union over j of the up-sets of m with m_j := s_j.
  // One seed per such corner and one prefix-sum pass per dimension (as for
  // cover_lo) mark the union over all u, up-closed by construction.
  const GridGeometry& grid = out.output_grid;
  const CellIndex total = grid.total_cells();
  out.marked.assign(static_cast<size_t>(total), 0);
  if (frontier_n > 0) {
    const int cpd = grid.cells_per_dim();
    std::vector<double> cell_lower(static_cast<size_t>(k * cpd));
    for (int j = 0; j < k; ++j) {
      for (CellCoord c = 0; c < cpd; ++c) {
        cell_lower[static_cast<size_t>(j * cpd + c)] = grid.CellLower(j, c);
      }
    }
    std::vector<uint32_t> seeds(static_cast<size_t>(total), 0);
    std::vector<CellCoord> m(static_cast<size_t>(k));
    std::vector<CellCoord> s(static_cast<size_t>(k));
    for (size_t f = 0; f < frontier_n; ++f) {
      const double* u =
          out.guaranteed_upper_frontier.data() + f * static_cast<size_t>(k);
      bool reachable = true;
      for (int j = 0; j < k && reachable; ++j) {
        const double* row = cell_lower.data() + j * cpd;
        m[static_cast<size_t>(j)] = static_cast<CellCoord>(
            std::lower_bound(row, row + cpd, u[j]) - row);
        s[static_cast<size_t>(j)] = static_cast<CellCoord>(
            std::upper_bound(row, row + cpd, u[j]) - row);
        reachable = m[static_cast<size_t>(j)] < cpd;
      }
      if (!reachable) continue;
      const CellIndex base = grid.IndexOf(m.data());
      for (int j = 0; j < k; ++j) {
        const CellCoord sj = s[static_cast<size_t>(j)];
        if (sj == cpd) continue;
        ++seeds[static_cast<size_t>(
            base + (sj - m[static_cast<size_t>(j)]) * grid.stride(j))];
      }
    }
    grid.PrefixSumAllDims(seeds.data());
    for (CellIndex c = 0; c < total; ++c) {
      if (seeds[static_cast<size_t>(c)] > 0) {
        out.marked[static_cast<size_t>(c)] = 1;
        ++out.stats.cells_marked;
      }
    }
  }

  return out;
}

}  // namespace progxe
