// Adaptive kd-style partitioner over contribution space.
//
// Unlike the uniform grid, which wastes cells on empty space and produces
// wildly unbalanced partitions on skewed (correlated / anti-correlated)
// data, this partitioner recursively splits the rows at the *median* of the
// dimension with the widest contribution spread. Partitions are balanced in
// cardinality and tight in volume, which makes region bounds tighter and
// the ProgOrder cost model's n_a * n_b terms uniform.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/partitioning.h"
#include "skyline/group_skyline.h"

namespace progxe {

struct KdPartitionerOptions {
  /// Stop splitting below this many rows; 0 = derive from max_partitions.
  size_t max_rows_per_partition = 0;
  /// Upper bound on the number of leaves produced.
  size_t max_partitions = 128;
};

class KdPartitioner : public InputPartitioning {
 public:
  KdPartitioner(const Relation& rel, const ContributionTable& contribs,
                const KdPartitionerOptions& options);

  const std::vector<InputPartition>& partitions() const override {
    return partitions_;
  }

 private:
  void Split(const Relation& rel, const ContributionTable& contribs,
             std::vector<RowId>* rows, size_t target_rows, size_t leaf_budget,
             int depth);
  void EmitLeaf(const Relation& rel, const ContributionTable& contribs,
                std::vector<RowId> rows);

  KdPartitionerOptions options_;
  std::vector<InputPartition> partitions_;
};

}  // namespace progxe
