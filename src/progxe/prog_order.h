// ProgOrder (Section IV, Algorithm 1): chooses the next region for
// tuple-level processing by ranking current EL-Graph roots with
// rank = Benefit / Cost (Equation 8).
//
// Benefit(R) = ProgCount(R) / PartitionCount(R) * Cardinality(R)  (Eq. 2)
// where ProgCount (Definition 2) counts the cells of R's box that no
// *other* unprocessed region covers-or-threatens — kept per region by the
// output table alongside its cover_lo counter (OutputTable::ProgCount), so
// a rank is a lookup and a few flops. A region's rank is computed when it
// becomes a root. The paper re-ranks affected regions after every removal
// (line 13); here ranks refresh lazily instead: PopNext recomputes the top
// entry's rank and re-queues it if it no longer leads, with a budget of 64
// such refreshes per pick. Stale priority-queue entries are version-skipped.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "elgraph/el_graph.h"
#include "outputspace/region.h"
#include "progxe/config.h"
#include "progxe/cost_model.h"
#include "progxe/output_table.h"

namespace progxe {

class ProgOrder {
 public:
  /// `regions` outlives this object and is mutated (rank fields) through it.
  /// `r_sizes` / `t_sizes` give |I^R_a| / |I^T_b| per partition index.
  ProgOrder(std::vector<Region>* regions, ElGraph* el_graph,
            OutputTable* table, CostModelParams cost_params,
            std::vector<size_t> r_sizes, std::vector<size_t> t_sizes,
            OrderingMode mode, uint64_t seed, ProgXeStats* stats);

  /// Next region to process, or -1 when none remain. Regions discarded
  /// after being queued are skipped. If the EL-Graph deadlocks on a cycle
  /// of mutual partial elimination, all remaining regions are force-rooted.
  int32_t PopNext();

  /// Must be called after a region completes or is discarded, once its
  /// coverage has left the table: `lowered` is that release's report
  /// (OutputTable::CoverageRelease). Updates the EL-Graph and admits the
  /// new roots; queued ranks refresh lazily in PopNext.
  void OnRegionRemoved(int32_t id, const std::vector<CellIndex>& lowered);

 private:
  struct Entry {
    double rank;
    uint32_t version;
    int32_t id;
    bool operator<(const Entry& o) const {
      if (rank != o.rank) return rank < o.rank;  // max-heap by rank
      return id > o.id;  // deterministic tiebreak: lower id first
    }
  };

  /// Rank (Equation 8) of one region; refreshes its prog_count.
  double ComputeRank(Region& region);
  void PushRegion(int32_t id);

  std::vector<Region>* regions_;
  ElGraph* el_graph_;
  OutputTable* table_;
  CostModelParams cost_params_;
  std::vector<size_t> r_sizes_;
  std::vector<size_t> t_sizes_;
  OrderingMode mode_;
  ProgXeStats* stats_;

  // kProgOrder state.
  std::priority_queue<Entry> queue_;
  std::vector<uint8_t> in_queue_;  // region currently admitted as root
  std::vector<int32_t> new_roots_;  // OnRegionRemoved scratch
  bool cycle_fallback_done_ = false;

  // kRandom / kSequential state.
  std::vector<int32_t> static_order_;
  size_t static_pos_ = 0;
};

}  // namespace progxe
