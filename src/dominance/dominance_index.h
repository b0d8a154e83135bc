// DominanceIndex: a bitmap-indexed set of grid-cell coordinate vectors
// supporting the dominance-cone sweeps both Pareto hot paths in this repo
// need. It is the machinery that made OutputTable inserts ~6x faster in the
// batched-pipeline PR, extracted so the engine's output grid and the
// sharded merge sink share one implementation and cannot drift:
//
//   * OutputTable (progxe/output_table.h) indexes its populated output
//     cells here and runs the comparable-slice and eviction scans through
//     SweepLe/SweepGe.
//   * ShardedStream (shard/sharded_stream.cc) indexes the accepted global
//     skyline candidates by canonical cell and filters dominated arrivals /
//     disproved held candidates through the same sweeps, instead of a flat
//     O(|accepted|) scan per arrival.
//
// Layout: entries are a structure of arrays — flat coordinates (k per
// entry) plus a parallel int32 payload (the caller's back-reference; -1
// marks a tombstone). For each dimension d and coordinate v, bit i of
// le_bits_[d][v] is set iff entry i is live with coord[d] <= v (ge_bits_
// for >=), so a cone sweep ANDs k bitmap rows word by word and touches
// only real candidates: cost O(live/64) words plus the true cone members.
// Removals tombstone; once tombstones dominate, MaybeCompact squeezes the
// arrays and tells the owner every entry's new position.
//
// Sweeps rely only on the *monotonicity* of the caller's point-to-cell
// quantization (a <= b componentwise implies coord(a) <= coord(b)), so the
// cone is a sound superset filter even when points clamp at the grid edge;
// exact point comparisons stay with the caller.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/grid_geometry.h"

namespace progxe {

class DominanceIndex {
 public:
  DominanceIndex() = default;

  /// An index over k-dimensional cell coordinates in [0, cells_per_dim).
  DominanceIndex(int k, int cells_per_dim);

  int dims() const { return k_; }
  int cells_per_dim() const { return cells_per_dim_; }

  /// Entry positions handed out so far, tombstones included.
  size_t size() const { return payloads_.size(); }
  /// Live (non-tombstoned) entries.
  size_t live_size() const { return payloads_.size() - tombstones_; }
  size_t tombstones() const { return tombstones_; }

  /// The caller's payload of entry `pos`; -1 iff tombstoned.
  int32_t payload(size_t pos) const { return payloads_[pos]; }
  /// Coordinates of entry `pos` (k values; valid for tombstones too).
  const CellCoord* entry_coords(size_t pos) const {
    return coords_.data() + pos * static_cast<size_t>(k_);
  }

  /// Adds a live entry; returns its position. Positions are stable until
  /// MaybeCompact actually compacts (which remaps them via its callback).
  int32_t Add(const CellCoord* coords, int32_t payload);

  /// Tombstones entry `pos`: its bits clear and sweeps skip it. The
  /// position stays allocated until the next compaction.
  void Remove(int32_t pos);

  /// Enumerates live entries whose coordinates are <= `coords` in every
  /// dimension (the dominator cone), in ascending position order.
  /// `fn(pos)` returns false to stop early. Entries removed by `fn` during
  /// the sweep are skipped from that point on.
  template <typename Fn>
  void SweepLe(const CellCoord* coords, Fn&& fn) const {
    SweepWords(GatherSweep(/*ge=*/false, coords), fn);
  }

  /// Enumerates live entries whose coordinates are >= `coords` in every
  /// dimension (the dominated cone), like SweepLe.
  template <typename Fn>
  void SweepGe(const CellCoord* coords, Fn&& fn) const {
    SweepWords(GatherSweep(/*ge=*/true, coords), fn);
  }

  /// Compacts once tombstones outnumber live entries (and the index is big
  /// enough to care), rebuilding the bitmaps and reporting every surviving
  /// entry's new position as `remap(payload, new_pos)`. Must not run inside
  /// a sweep.
  template <typename Fn>
  void MaybeCompact(Fn&& remap) {
    if (tombstones_ * 2 <= payloads_.size() || payloads_.size() < 64) return;
    Compact();
    for (size_t i = 0; i < payloads_.size(); ++i) {
      remap(payloads_[i], static_cast<int32_t>(i));
    }
  }

  // --- Coordinate predicates shared with callers ---------------------------

  /// a <= b in every dimension.
  static bool CoordsLeq(const CellCoord* a, const CellCoord* b, int k) {
    for (int i = 0; i < k; ++i) {
      if (a[i] > b[i]) return false;
    }
    return true;
  }

  /// a < b in every dimension.
  static bool CoordsStrictlyBelow(const CellCoord* a, const CellCoord* b,
                                  int k) {
    for (int i = 0; i < k; ++i) {
      if (a[i] >= b[i]) return false;
    }
    return true;
  }

 private:
  /// Sets/clears entry i's bit across the cumulative rows of every
  /// dimension.
  void SetBits(size_t i, const CellCoord* coords, bool value);

  /// Fills sweep_ptrs_ with the per-dimension bitmap rows at `coords`
  /// (ge_bits_ when `ge`, le_bits_ otherwise) and returns the common
  /// sweepable word count — 0 when any dimension's candidate set is empty.
  size_t GatherSweep(bool ge, const CellCoord* coords) const;

  /// Enumerates ascending live entry positions in the AND of the gathered
  /// rows.
  template <typename Fn>
  void SweepWords(size_t min_words, Fn&& fn) const {
    for (size_t w = 0; w < min_words; ++w) {
      uint64_t m = sweep_ptrs_[0][w];
      for (int d = 1; d < k_; ++d) m &= sweep_ptrs_[static_cast<size_t>(d)][w];
      while (m != 0) {
        const size_t p =
            (w << 6) + static_cast<size_t>(__builtin_ctzll(m));
        m &= m - 1;
        // Tombstoned after this word was captured (an fn-driven removal):
        // the cleared bit is stale within `m`.
        if (payloads_[p] < 0) continue;
        if (!fn(p)) return;
      }
    }
  }

  void Compact();
  void RebuildBits();

  int k_ = 0;
  int cells_per_dim_ = 0;

  std::vector<CellCoord> coords_;  // flat, k_ per entry
  std::vector<int32_t> payloads_;  // parallel; -1 = tombstone
  size_t tombstones_ = 0;

  // Cumulative coordinate bitmaps: [dim][coord][word]; rows grow lazily as
  // entries are added.
  std::vector<std::vector<std::vector<uint64_t>>> le_bits_;
  std::vector<std::vector<std::vector<uint64_t>>> ge_bits_;

  // Reusable per-sweep row pointers (sweeps are logically const).
  mutable std::vector<const uint64_t*> sweep_ptrs_;
};

}  // namespace progxe
