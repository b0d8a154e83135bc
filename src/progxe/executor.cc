#include "progxe/executor.h"

#include "common/macros.h"
#include "progxe/stream.h"

namespace progxe {

std::string ProgXeStats::ToString() const {
  return "ProgXeStats{" + FormatStatFields(kProgXeStatsFields, *this) + "}";
}

void ProgXeStats::Accumulate(const ProgXeStats& s) {
  for (const StatField<ProgXeStats>& f : kProgXeStatsFields) {
    if (f.real != nullptr) {
      this->*f.real += s.*f.real;
    } else {
      this->*f.count += s.*f.count;
    }
  }
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
