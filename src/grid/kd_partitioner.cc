#include "grid/kd_partitioner.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace progxe {

KdPartitioner::KdPartitioner(const Relation& rel,
                             const ContributionTable& contribs,
                             const KdPartitionerOptions& options)
    : options_(options) {
  if (rel.empty()) return;
  size_t target = options_.max_rows_per_partition;
  if (target == 0) {
    target = std::max<size_t>(
        1, rel.size() / std::max<size_t>(1, options_.max_partitions));
  }
  std::vector<RowId> rows(rel.size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<RowId>(i);
  Split(rel, contribs, &rows, target,
        std::max<size_t>(1, options_.max_partitions), /*depth=*/0);
}

void KdPartitioner::Split(const Relation& rel,
                          const ContributionTable& contribs,
                          std::vector<RowId>* rows, size_t target_rows,
                          size_t leaf_budget, int depth) {
  // Leaf conditions: small enough, out of leaf budget, or a depth backstop
  // against degenerate (all-equal) splits. The budget halves down each
  // branch, capping total leaves at max_partitions exactly.
  constexpr int kMaxDepth = 40;
  if (rows->size() <= target_rows || leaf_budget <= 1 || depth >= kMaxDepth) {
    EmitLeaf(rel, contribs, std::move(*rows));
    return;
  }

  // Split the dimension with the widest observed contribution range.
  const int k = contribs.dimensions();
  int best_dim = 0;
  double best_spread = -1.0;
  for (int j = 0; j < k; ++j) {
    double lo = std::numeric_limits<double>::max();
    double hi = std::numeric_limits<double>::lowest();
    for (RowId id : *rows) {
      const double v = contribs.vector(id)[j];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_dim = j;
    }
  }
  if (best_spread <= 0.0) {
    // All contribution vectors identical; splitting cannot help.
    EmitLeaf(rel, contribs, std::move(*rows));
    return;
  }

  const size_t mid = rows->size() / 2;
  std::nth_element(rows->begin(), rows->begin() + static_cast<ptrdiff_t>(mid),
                   rows->end(), [&](RowId a, RowId b) {
                     const double va = contribs.vector(a)[best_dim];
                     const double vb = contribs.vector(b)[best_dim];
                     if (va != vb) return va < vb;
                     return a < b;
                   });
  std::vector<RowId> left(rows->begin(),
                          rows->begin() + static_cast<ptrdiff_t>(mid));
  std::vector<RowId> right(rows->begin() + static_cast<ptrdiff_t>(mid),
                           rows->end());
  rows->clear();
  rows->shrink_to_fit();
  const size_t left_budget = leaf_budget / 2;
  Split(rel, contribs, &left, target_rows, left_budget, depth + 1);
  Split(rel, contribs, &right, target_rows, leaf_budget - left_budget,
        depth + 1);
}

void KdPartitioner::EmitLeaf(const Relation& rel,
                             const ContributionTable& contribs,
                             std::vector<RowId> rows) {
  assert(!rows.empty());
  InputPartition part;
  const int k = contribs.dimensions();
  part.bounds.assign(static_cast<size_t>(k), Interval());
  const double* v0 = contribs.vector(rows.front());
  for (int j = 0; j < k; ++j) {
    part.bounds[static_cast<size_t>(j)] = Interval::Point(v0[j]);
  }
  for (RowId id : rows) {
    const double* v = contribs.vector(id);
    for (int j = 0; j < k; ++j) {
      auto& b = part.bounds[static_cast<size_t>(j)];
      b = Interval(std::min(b.lo, v[j]), std::max(b.hi, v[j]));
    }
  }
  part.coords.assign(static_cast<size_t>(k), 0);  // not grid-aligned
  part.rows = std::move(rows);
  part.key_index = KeyIndex(rel, part.rows);
  partitions_.push_back(std::move(part));
}

}  // namespace progxe
