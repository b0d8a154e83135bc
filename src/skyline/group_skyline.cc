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
  for (size_t i = 0; i < n_; ++i) {
    mapper.ContributionVector(side, rel.attrs(static_cast<RowId>(i)),
                              data_.data() + i * static_cast<size_t>(k_));
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
