#include "progxe/pipeline.h"

namespace progxe {

RegionJoinPipeline::RegionJoinPipeline(const CanonicalMapper* mapper,
                                       const double* r_flat,
                                       const double* t_flat)
    : mapper_(mapper),
      r_flat_(r_flat),
      t_flat_(t_flat),
      seq_pairs_(kInsertBlockPairs),
      seq_values_(kInsertBlockPairs *
                  static_cast<size_t>(mapper->output_dimensions())) {}

void RegionJoinPipeline::BeginRegion(const InputPartition& pa,
                                     const InputPartition& pb) {
  // Task list in key order: the JoinIndexes enumeration order.
  tasks_.clear();
  pa.key_index.ForEachMatch(pb.key_index, [&](std::span<const RowId> r_rows,
                                              std::span<const RowId> t_rows) {
    for (RowId r : r_rows) tasks_.push_back(Task{r, t_rows});
  });
  cursor_task_ = 0;
  cursor_offset_ = 0;
  region_open_ = !tasks_.empty();
}

uint64_t RegionJoinPipeline::ProcessSome(size_t max_pairs,
                                         OutputTable* table) {
  if (!region_open_) return 0;
  uint64_t done = 0;
  while (cursor_task_ < tasks_.size()) {
    // Fill one insert block from the cursor; a block may span tasks.
    size_t n = 0;
    while (n < kInsertBlockPairs && cursor_task_ < tasks_.size()) {
      const Task& task = tasks_[cursor_task_];
      const std::span<const RowId> t_rows = task.t_rows;
      while (cursor_offset_ < t_rows.size() && n < kInsertBlockPairs) {
        seq_pairs_[n++] = RowIdPair{task.r, t_rows[cursor_offset_++]};
      }
      if (cursor_offset_ == t_rows.size()) {
        ++cursor_task_;
        cursor_offset_ = 0;
      }
    }
    mapper_->CombineBatch(seq_pairs_.data(), n, r_flat_, t_flat_,
                          seq_values_.data());
    table->InsertBatch(seq_values_.data(), seq_pairs_.data(), n);
    done += n;
    if (max_pairs != 0 && done >= max_pairs) break;
  }
  if (cursor_task_ >= tasks_.size()) region_open_ = false;
  return done;
}

}  // namespace progxe
