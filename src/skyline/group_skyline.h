// Source-level and group-level skylines over canonical contribution vectors
// (the lists SSMJ maintains, Section VI-A, and the basis of skyline partial
// push-through).
//
// For a source relation S with per-tuple canonical contribution vectors
// c(s) in R^k:
//  * LS(S)  - the source-level skyline: tuples whose contribution vector is
//    not dominated by any other tuple's, ignoring the join attribute.
//  * LS(N)  - the group-level skyline: within each join-key group, tuples
//    whose contribution is not dominated by another tuple *of the same
//    group*.
//
// Because mapping functions are separable and monotone in each source's
// contribution (see mapping/map_expr.h), a tuple strictly dominated within
// its join group can never produce an undominated join result: any partner
// t pairs with the dominating tuple to produce a dominating output. Hence
// pruning a source to LS(N) ("partial push-through") is result-preserving.
#pragma once

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "mapping/canonical.h"
#include "prefs/dominance.h"

namespace progxe {

/// Canonical contribution vectors of every tuple of one source.
class ContributionTable {
 public:
  /// Computes c(s) for all tuples of `rel` on the given side.
  ContributionTable(const Relation& rel, const CanonicalMapper& mapper,
                    Side side);

  size_t size() const { return n_; }
  int dimensions() const { return k_; }

  const double* vector(RowId id) const {
    return data_.data() + static_cast<size_t>(id) * static_cast<size_t>(k_);
  }

  const std::vector<double>& flat() const { return data_; }

 private:
  size_t n_;
  int k_;
  std::vector<double> data_;
};

/// The two pruning lists of one source.
struct SourceLists {
  /// LS(S): row ids in the source-level skyline.
  std::vector<RowId> source_skyline;
  /// LS(N): row ids in their join-group skyline (superset of LS(S) members
  /// that survive within their group; every LS(S) member is also here).
  std::vector<RowId> group_skyline;
  /// Membership flags indexed by row id.
  std::vector<bool> in_source_skyline;
  std::vector<bool> in_group_skyline;
};

/// Computes LS(S) and LS(N) for one source.
SourceLists ComputeSourceLists(const Relation& rel,
                               const ContributionTable& contribs,
                               DomCounter* counter = nullptr);

/// Partial push-through: the row ids that survive group-level pruning,
/// i.e. LS(N). Pruning to this set preserves the final SkyMapJoin result.
std::vector<RowId> PushThroughPrune(const Relation& rel,
                                    const ContributionTable& contribs,
                                    DomCounter* counter = nullptr);

}  // namespace progxe
