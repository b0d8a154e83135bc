#include "progxe/executor.h"

#include <sstream>

#include "common/macros.h"
#include "progxe/stream.h"

namespace progxe {

std::string ProgXeStats::ToString() const {
  std::ostringstream os;
  os << "ProgXeStats{rows=" << r_rows << "x" << t_rows
     << " pushed=" << r_rows_after_push_through << "x"
     << t_rows_after_push_through << " sigma=" << sigma_used
     << " pairs=" << partition_pairs_total << " skipped="
     << partition_pairs_skipped << " regions=" << regions_created
     << " pruned=" << regions_pruned_lookahead
     << " discarded=" << regions_discarded_runtime
     << " seed_discarded=" << regions_discarded_seed
     << " processed=" << regions_processed
     << " reorderings=" << pq_reorderings
     << " cells_marked=" << cells_marked_lookahead
     << " join_pairs=" << join_pairs_generated
     << " disc_marked=" << tuples_discarded_marked
     << " dominated=" << tuples_dominated_on_insert
     << " evicted=" << tuples_evicted
     << " cmps=" << dominance_comparisons
     << " emitted=" << results_emitted << " early=" << results_emitted_early
     << " flushes=" << cells_flushed << "}";
  return os.str();
}

void ProgXeStats::Accumulate(const ProgXeStats& s) {
  r_rows += s.r_rows;
  t_rows += s.t_rows;
  r_rows_after_push_through += s.r_rows_after_push_through;
  t_rows_after_push_through += s.t_rows_after_push_through;
  sigma_used += s.sigma_used;
  partition_pairs_total += s.partition_pairs_total;
  partition_pairs_skipped += s.partition_pairs_skipped;
  regions_created += s.regions_created;
  regions_pruned_lookahead += s.regions_pruned_lookahead;
  cells_marked_lookahead += s.cells_marked_lookahead;
  regions_processed += s.regions_processed;
  regions_discarded_runtime += s.regions_discarded_runtime;
  regions_discarded_seed += s.regions_discarded_seed;
  pq_reorderings += s.pq_reorderings;
  join_pairs_generated += s.join_pairs_generated;
  tuples_discarded_marked += s.tuples_discarded_marked;
  tuples_dominated_on_insert += s.tuples_dominated_on_insert;
  tuples_evicted += s.tuples_evicted;
  dominance_comparisons += s.dominance_comparisons;
  results_emitted += s.results_emitted;
  cells_flushed += s.cells_flushed;
  results_emitted_early += s.results_emitted_early;
}

ProgXeExecutor::ProgXeExecutor(SkyMapJoinQuery query, ProgXeOptions options)
    : query_(std::move(query)), options_(std::move(options)) {}

ProgXeExecutor::~ProgXeExecutor() = default;

Status ProgXeExecutor::Run(const EmitFn& emit) {
  // Reusable: each Run opens a fresh stream over the same query object and
  // starts from zeroed counters.
  stats_ = ProgXeStats{};
  auto stream = OpenProgXeStream(query_, options_);
  if (!stream.ok()) {
    return stream.status();
  }
  std::vector<ResultTuple> batch;
  while ((*stream)->NextBatch(0, &batch) > 0) {
    stats_ = (*stream)->stats();  // keep stats() live for emit callbacks
    for (const ResultTuple& result : batch) emit(result);
  }
  stats_ = (*stream)->stats();
  // A stream that died (injected fault, retry exhaustion) drains to empty
  // just like a completed one; the error channel is the only difference.
  return (*stream)->last_status();
}

Result<std::vector<ResultTuple>> RunProgXe(const SkyMapJoinQuery& query,
                                           const ProgXeOptions& options,
                                           ProgXeStats* stats_out) {
  ProgXeExecutor executor(query, options);
  std::vector<ResultTuple> results;
  Status st = executor.Run(
      [&results](const ResultTuple& r) { results.push_back(r); });
  if (!st.ok()) return st;
  if (stats_out != nullptr) *stats_out = executor.stats();
  return results;
}

}  // namespace progxe
