// The region-level tuple pipeline: join a region's partition pair, map the
// pairs through CanonicalMapper, and insert into the OutputTable in one
// ordered stream, on the calling thread.
//
// A region's join is one merge of the two partitions' sorted key runs
// (KeyIndex::ForEachMatch), enumerated as *tasks*: one R row of a shared
// key, paired with that key's T rows. Pairs are visited in key order, then
// ascending R row, then ascending T row, so the order, and every counter
// that depends on it, is a function of the data alone. A cursor over the
// tasks fills insert blocks of kInsertBlockPairs pairs for
// CanonicalMapper::CombineBatch and OutputTable::InsertBatch. Slicing never
// changes the pair order the table sees, so every ProgXeStats counter is
// identical at any slice boundary (SessionBudgetSweep in
// tests/session_test.cc). Intra-query parallelism lives one level up, in
// ShardedStream's concurrent shard pumps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "grid/input_grid.h"
#include "mapping/canonical.h"
#include "progxe/output_table.h"

namespace progxe {

/// Join pairs mapped and inserted per block: amortizes per-tuple call and
/// lookup overhead while the block stays cache-resident.
inline constexpr size_t kInsertBlockPairs = 256;

class RegionJoinPipeline {
 public:
  /// `mapper` and `r_flat`/`t_flat` (flat contribution tables) must outlive
  /// the pipeline.
  RegionJoinPipeline(const CanonicalMapper* mapper, const double* r_flat,
                     const double* t_flat);

  RegionJoinPipeline(const RegionJoinPipeline&) = delete;
  RegionJoinPipeline& operator=(const RegionJoinPipeline&) = delete;

  /// Resumable join — the serving layer's yield point. BeginRegion
  /// enumerates the region's tasks; each ProcessSome call then advances at
  /// least one block of join pairs and at most ~`max_pairs` (0 = all
  /// remaining), mapping and inserting them into `*table` in the sequential
  /// pair order, and returns the pairs it inserted. Results and every
  /// ProgXeStats counter are bit-identical no matter where the slice
  /// boundaries fall. A region is complete once RegionExhausted();
  /// abandoning one mid-way holds no resources beyond the task list.
  void BeginRegion(const InputPartition& pa, const InputPartition& pb);
  uint64_t ProcessSome(size_t max_pairs, OutputTable* table);
  bool RegionExhausted() const { return !region_open_; }

 private:
  /// One R row joined against its group's T rows: |t_rows| consecutive
  /// pairs of the sequential order.
  struct Task {
    RowId r;
    std::span<const RowId> t_rows;  // into pb's key runs
  };

  const CanonicalMapper* mapper_;
  const double* r_flat_;
  const double* t_flat_;

  // One insert block: its pairs and their mapped values.
  std::vector<RowIdPair> seq_pairs_;
  std::vector<double> seq_values_;

  // The open region's tasks and the resumable cursor over them.
  std::vector<Task> tasks_;
  bool region_open_ = false;
  size_t cursor_task_ = 0;    // next task to expand
  size_t cursor_offset_ = 0;  // offset into that task's t_rows
};

}  // namespace progxe
