#include "baselines/jf_sl.h"

#include <numeric>
#include <sstream>
#include <vector>

#include "common/macros.h"
#include "join/key_index.h"
#include "skyline/group_skyline.h"
#include "skyline/skyline.h"

namespace progxe {

std::string BaselineStats::ToString() const {
  std::ostringstream os;
  os << "BaselineStats{join_pairs=" << join_pairs
     << " cmps=" << dominance_comparisons << " rows=" << r_rows_used << "x"
     << t_rows_used << " results=" << results << " batches=" << batches
     << " early_fp=" << early_false_positives << "}";
  return os.str();
}

namespace {

struct Candidate {
  RowId r;
  RowId t;
};

Status RunJfSlImpl(const SkyMapJoinQuery& query, const EmitFn& emit,
                   bool push_through, BaselineStats* stats) {
  BaselineStats local;
  BaselineStats& s = stats != nullptr ? *stats : local;
  s = BaselineStats();

  if (query.r == nullptr || query.t == nullptr) {
    return Status::InvalidArgument("query sources must be non-null");
  }
  if (query.pref.dimensions() != query.map.output_dimensions()) {
    return Status::InvalidArgument(
        "preference dimensionality must match the map output");
  }
  PROGXE_RETURN_NOT_OK(query.map.Validate(query.r->num_attributes(),
                                          query.t->num_attributes()));

  CanonicalMapper mapper(query.map, query.pref);
  const int k = mapper.output_dimensions();

  // Optional push-through pre-pass (JF-SL+).
  Relation r_pruned{Schema::Anonymous(0)};
  Relation t_pruned{Schema::Anonymous(0)};
  std::vector<RowId> r_ids;
  std::vector<RowId> t_ids;
  const Relation* r_rel = query.r;
  const Relation* t_rel = query.t;
  if (push_through) {
    DomCounter counter;
    ContributionTable r_contrib(*query.r, mapper, Side::kR);
    ContributionTable t_contrib(*query.t, mapper, Side::kT);
    r_pruned = query.r->Select(PushThroughPrune(*query.r, r_contrib, &counter),
                               &r_ids);
    t_pruned = query.t->Select(PushThroughPrune(*query.t, t_contrib, &counter),
                               &t_ids);
    s.dominance_comparisons += counter.comparisons;
    r_rel = &r_pruned;
    t_rel = &t_pruned;
  } else {
    r_ids.resize(query.r->size());
    std::iota(r_ids.begin(), r_ids.end(), 0u);
    t_ids.resize(query.t->size());
    std::iota(t_ids.begin(), t_ids.end(), 0u);
  }
  s.r_rows_used = r_rel->size();
  s.t_rows_used = t_rel->size();

  // Phase 1 (blocking): materialize and map every join result.
  ContributionTable r_contrib(*r_rel, mapper, Side::kR);
  ContributionTable t_contrib(*t_rel, mapper, Side::kT);
  std::vector<double> values;  // flat, k per candidate, canonical
  std::vector<Candidate> cands;
  std::vector<double> buf(static_cast<size_t>(k));
  JoinIndexes(KeyIndex(*r_rel), KeyIndex(*t_rel), [&](RowId r_id, RowId t_id) {
    ++s.join_pairs;
    mapper.Combine(r_contrib.vector(r_id), t_contrib.vector(t_id), buf.data());
    values.insert(values.end(), buf.begin(), buf.end());
    cands.push_back(Candidate{r_id, t_id});
  });

  // Phase 2 (blocking): one skyline pass over all candidates.
  DomCounter sky_counter;
  PointView view{values.data(), cands.size(), k};
  std::vector<uint32_t> sky = SkylineSFS(view, &sky_counter);
  s.dominance_comparisons += sky_counter.comparisons;

  // Single batch of output at the very end.
  s.batches = 1;
  ResultTuple result;
  result.values.resize(static_cast<size_t>(k));
  for (uint32_t idx : sky) {
    result.r_id = r_ids[cands[idx].r];
    result.t_id = t_ids[cands[idx].t];
    const double* v = view.point(idx);
    for (int j = 0; j < k; ++j) {
      result.values[static_cast<size_t>(j)] = mapper.Decanonicalize(j, v[j]);
    }
    emit(result);
    ++s.results;
  }
  return Status::OK();
}

}  // namespace

Status RunJfSl(const SkyMapJoinQuery& query, const EmitFn& emit,
               BaselineStats* stats) {
  return RunJfSlImpl(query, emit, /*push_through=*/false, stats);
}

Status RunJfSlPlus(const SkyMapJoinQuery& query, const EmitFn& emit,
                   BaselineStats* stats) {
  return RunJfSlImpl(query, emit, /*push_through=*/true, stats);
}

}  // namespace progxe
