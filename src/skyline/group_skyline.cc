#include "skyline/group_skyline.h"

#include <algorithm>

#include "join/key_index.h"
#include "skyline/skyline.h"

namespace progxe {

ContributionTable::ContributionTable(const Relation& rel,
                                     const CanonicalMapper& mapper,
                                     Side side)
    : n_(rel.size()), k_(mapper.output_dimensions()) {
  data_.resize(n_ * static_cast<size_t>(k_));
  if (n_ == 0) return;
  // Column by column, term by term: the same operations in the same order
  // as CanonicalMapper::ContributionVector per row (start at the side's
  // constant, add each of the side's weighted attributes, fold the sign),
  // so every value is bit-identical, with loop-invariant weights.
  const size_t kk = static_cast<size_t>(k_);
  const size_t width = static_cast<size_t>(rel.num_attributes());
  const double* attrs = rel.attrs(0).data();
  for (int j = 0; j < k_; ++j) {
    const MapFunc& func = mapper.spec().func(j);
    double* col = data_.data() + static_cast<size_t>(j);
    const double start = side == Side::kR ? func.constant() : 0.0;
    for (size_t i = 0; i < n_; ++i) col[i * kk] = start;
    for (const MapTerm& term : func.terms()) {
      if (term.side != side) continue;
      const double weight = term.weight;
      const double* attr = attrs + static_cast<size_t>(term.attr_index);
      for (size_t i = 0; i < n_; ++i) col[i * kk] += weight * attr[i * width];
    }
    for (size_t i = 0; i < n_; ++i) {
      col[i * kk] = mapper.Canonicalize(j, col[i * kk]);
    }
  }
}

SourceLists ComputeSourceLists(const Relation& rel,
                               const ContributionTable& contribs,
                               DomCounter* counter) {
  SourceLists lists;
  const size_t n = rel.size();
  const int k = contribs.dimensions();
  lists.in_source_skyline.assign(n, false);
  lists.in_group_skyline.assign(n, false);

  // Source-level skyline over all contribution vectors.
  PointView all{contribs.flat().data(), n, k};
  lists.source_skyline = SkylineSFS(all, counter);
  for (uint32_t id : lists.source_skyline) {
    lists.in_source_skyline[id] = true;
  }

  // Group-level skyline: skyline each join-key group. Each group's result
  // is independent of the order groups are visited in.
  std::vector<double> scratch;
  KeyIndex(rel).ForEach([&](JoinKey, std::span<const RowId> rows) {
    scratch.clear();
    scratch.reserve(rows.size() * static_cast<size_t>(k));
    for (RowId id : rows) {
      const double* v = contribs.vector(id);
      scratch.insert(scratch.end(), v, v + k);
    }
    PointView group_view{scratch.data(), rows.size(), k};
    for (uint32_t local : SkylineSFS(group_view, counter)) {
      lists.in_group_skyline[rows[local]] = true;
      lists.group_skyline.push_back(rows[local]);
    }
  });
  std::sort(lists.group_skyline.begin(), lists.group_skyline.end());
  return lists;
}

std::vector<RowId> PushThroughPrune(const Relation& rel,
                                    const ContributionTable& contribs,
                                    DomCounter* counter) {
  SourceLists lists = ComputeSourceLists(rel, contribs, counter);
  return lists.group_skyline;
}

}  // namespace progxe
