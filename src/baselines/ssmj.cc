#include "baselines/ssmj.h"

#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "join/key_index.h"
#include "skyline/group_skyline.h"
#include "skyline/skyline.h"

namespace progxe {

namespace {

struct Candidate {
  RowId r;
  RowId t;
};

inline uint64_t PairKey(RowId r, RowId t) {
  return (static_cast<uint64_t>(r) << 32) | static_cast<uint64_t>(t);
}

}  // namespace

Status RunSsmj(const SkyMapJoinQuery& query, const EmitFn& emit,
               BaselineStats* stats, SsmjResult* result,
               const BatchFn& on_batch) {
  BaselineStats local_stats;
  BaselineStats& s = stats != nullptr ? *stats : local_stats;
  s = BaselineStats();
  SsmjResult local_result;
  SsmjResult& res = result != nullptr ? *result : local_result;
  res = SsmjResult();

  if (query.r == nullptr || query.t == nullptr) {
    return Status::InvalidArgument("query sources must be non-null");
  }
  if (query.pref.dimensions() != query.map.output_dimensions()) {
    return Status::InvalidArgument(
        "preference dimensionality must match the map output");
  }
  PROGXE_RETURN_NOT_OK(query.map.Validate(query.r->num_attributes(),
                                          query.t->num_attributes()));

  const Relation& r_rel = *query.r;
  const Relation& t_rel = *query.t;
  CanonicalMapper mapper(query.map, query.pref);
  const int k = mapper.output_dimensions();

  // --- List construction (blocking pre-pass) --------------------------------
  ContributionTable r_contrib(r_rel, mapper, Side::kR);
  ContributionTable t_contrib(t_rel, mapper, Side::kT);
  DomCounter counter;
  SourceLists r_lists = ComputeSourceLists(r_rel, r_contrib, &counter);
  SourceLists t_lists = ComputeSourceLists(t_rel, t_contrib, &counter);

  // LS(N)' = group-level members that are not already in LS(S).
  std::vector<RowId> r_n_only;
  for (RowId id : r_lists.group_skyline) {
    if (!r_lists.in_source_skyline[id]) r_n_only.push_back(id);
  }
  std::vector<RowId> t_n_only;
  for (RowId id : t_lists.group_skyline) {
    if (!t_lists.in_source_skyline[id]) t_n_only.push_back(id);
  }
  s.r_rows_used = r_lists.group_skyline.size();
  s.t_rows_used = t_lists.group_skyline.size();

  const KeyIndex r_s(r_rel, r_lists.source_skyline);
  const KeyIndex r_n(r_rel, r_n_only);
  const KeyIndex t_s(t_rel, t_lists.source_skyline);
  const KeyIndex t_n(t_rel, t_n_only);

  std::vector<double> values;  // flat canonical vectors of all candidates
  std::vector<Candidate> cands;
  std::vector<double> buf(static_cast<size_t>(k));
  auto collect = [&](RowId r_id, RowId t_id) {
    ++s.join_pairs;
    mapper.Combine(r_contrib.vector(r_id), t_contrib.vector(t_id), buf.data());
    values.insert(values.end(), buf.begin(), buf.end());
    cands.push_back(Candidate{r_id, t_id});
  };

  auto make_result = [&](size_t cand_idx) {
    ResultTuple out;
    out.r_id = cands[cand_idx].r;
    out.t_id = cands[cand_idx].t;
    out.values.resize(static_cast<size_t>(k));
    const double* v = values.data() + cand_idx * static_cast<size_t>(k);
    for (int j = 0; j < k; ++j) {
      out.values[static_cast<size_t>(j)] = mapper.Decanonicalize(j, v[j]);
    }
    return out;
  };

  // --- Phase 1: LS(S) join LS(S) -> first output batch ----------------------
  JoinIndexes(r_s, t_s, collect);
  const size_t phase1_count = cands.size();
  std::unordered_set<uint64_t> batch1_keys;
  {
    PointView view{values.data(), phase1_count, k};
    for (uint32_t idx : SkylineSFS(view, &counter)) {
      ResultTuple out = make_result(idx);
      batch1_keys.insert(PairKey(out.r_id, out.t_id));
      res.batch1.push_back(out);
      emit(out);
      ++s.results;
    }
  }
  s.batches = 1;
  if (on_batch) on_batch(1);

  // --- Phase 2: remaining LS combinations, final skyline at the end ---------
  JoinIndexes(r_s, t_n, collect);
  JoinIndexes(r_n, t_s, collect);
  JoinIndexes(r_n, t_n, collect);

  {
    PointView view{values.data(), cands.size(), k};
    std::vector<uint32_t> final_sky = SkylineSFS(view, &counter);
    std::unordered_set<uint64_t> final_keys;
    for (uint32_t idx : final_sky) {
      ResultTuple out = make_result(idx);
      final_keys.insert(PairKey(out.r_id, out.t_id));
      res.final_results.push_back(out);
      if (batch1_keys.count(PairKey(out.r_id, out.t_id)) == 0) {
        emit(out);
        ++s.results;
      }
    }
    // Count batch-1 results that did not survive phase 2: the mapping-
    // induced false positives of SSMJ's early batch.
    for (uint64_t key : batch1_keys) {
      if (final_keys.count(key) == 0) ++s.early_false_positives;
    }
  }
  s.batches = 2;
  if (on_batch) on_batch(2);

  s.dominance_comparisons = counter.comparisons;
  return Status::OK();
}

}  // namespace progxe
