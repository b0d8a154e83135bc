#include "progxe/pipeline.h"

namespace progxe {

RegionJoinPipeline::RegionJoinPipeline(const CanonicalMapper* mapper,
                                       const double* r_flat,
                                       const double* t_flat,
                                       size_t insert_batch_size)
    : mapper_(mapper),
      r_flat_(r_flat),
      t_flat_(t_flat),
      batch_cap_(insert_batch_size > 1 ? insert_batch_size : 0),
      k_(mapper->output_dimensions()) {
  seq_pairs_.resize(batch_cap_);
  seq_values_.resize(batch_cap_ * static_cast<size_t>(k_));
  tuple_values_.resize(static_cast<size_t>(k_));
}

uint64_t RegionJoinPipeline::ProcessRegion(const InputPartition& pa,
                                           const InputPartition& pb,
                                           OutputTable* table) {
  // The whole-region path is the resumable path run to exhaustion, so both
  // share one implementation and the equivalence suites cover them
  // together.
  BeginRegion(pa, pb);
  return ProcessSome(/*max_pairs=*/0, table);
}

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
  const size_t kk = static_cast<size_t>(k_);
  uint64_t done = 0;
  if (batch_cap_ > 0) {
    while (cursor_task_ < tasks_.size()) {
      // Fill one insert block from the cursor; a block may span tasks.
      size_t n = 0;
      while (n < batch_cap_ && cursor_task_ < tasks_.size()) {
        const Task& task = tasks_[cursor_task_];
        const std::span<const RowId> t_rows = task.t_rows;
        while (cursor_offset_ < t_rows.size() && n < batch_cap_) {
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
  } else {
    // Per-tuple legacy path, sliced at pair granularity.
    bool stop = false;
    while (!stop && cursor_task_ < tasks_.size()) {
      const Task& task = tasks_[cursor_task_];
      const std::span<const RowId> t_rows = task.t_rows;
      while (cursor_offset_ < t_rows.size()) {
        const RowId t = t_rows[cursor_offset_++];
        mapper_->Combine(r_flat_ + static_cast<size_t>(task.r) * kk,
                         t_flat_ + static_cast<size_t>(t) * kk,
                         tuple_values_.data());
        table->Insert(tuple_values_.data(), task.r, t);
        ++done;
        if (max_pairs != 0 && done >= max_pairs) {
          stop = true;
          break;
        }
      }
      if (cursor_offset_ >= t_rows.size()) {
        ++cursor_task_;
        cursor_offset_ = 0;
      }
    }
  }
  if (cursor_task_ >= tasks_.size()) region_open_ = false;
  return done;
}

}  // namespace progxe
