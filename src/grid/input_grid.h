// Uniform-grid input partitioning of one source relation (Section III of
// the paper: "we assume the input data sets are partitioned into a
// multi-dimensional grid structure").
//
// Partitioning is done in *contribution space*: each tuple's canonical
// k-dimensional contribution vector (see mapping/canonical.h) determines its
// cell. Partition bounds are the tight (observed) min/max contribution per
// dimension, which subsumes "apply the mapping functions to the partition
// bounds" (Example 1) and gives strictly tighter output regions than raw
// cell bounds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "grid/partitioning.h"
#include "mapping/canonical.h"
#include "skyline/group_skyline.h"

namespace progxe {

/// Options controlling uniform-grid input partitioning.
struct InputGridOptions {
  int cells_per_dim = 3;
};

/// The gridded view of one source.
class InputGrid : public InputPartitioning {
 public:
  /// Builds the grid for `rel`. `contribs` must have been computed with the
  /// same mapper/side.
  InputGrid(const Relation& rel, const ContributionTable& contribs,
            const InputGridOptions& options);

  /// Non-empty partitions only.
  const std::vector<InputPartition>& partitions() const override {
    return partitions_;
  }

  const GridGeometry& geometry() const { return geometry_; }

  /// Hull of all partition bounds: the source's contribution bounding box.
  const std::vector<Interval>& global_bounds() const { return global_bounds_; }

 private:
  GridGeometry geometry_;
  std::vector<InputPartition> partitions_;
  std::vector<Interval> global_bounds_;
};

}  // namespace progxe
