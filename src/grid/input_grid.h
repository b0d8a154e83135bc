// Uniform-grid input partitioning of one source relation (Section III of
// the paper: "we assume the input data sets are partitioned into a
// multi-dimensional grid structure"). Everything downstream (look-ahead,
// ProgOrder, tuple-level processing) reads only the partition list.
//
// Partitioning is done in *contribution space*: each tuple's canonical
// k-dimensional contribution vector (see mapping/canonical.h) determines its
// cell. Partition bounds are the tight (observed) min/max contribution per
// dimension, which subsumes "apply the mapping functions to the partition
// bounds" (Example 1) and gives strictly tighter output regions than raw
// cell bounds.
//
// Nothing here hashes or compares rows: every row's cell is computed in row
// order, one stable radix pass by cell runs over the source's key order
// (its whole-relation KeyIndex), and each partition is one stretch of the
// result, already grouped by key with rows ascending within a key, so its
// KeyIndex is read straight off it. A partition's rows are its key runs'
// rows; there is no second copy.
#pragma once

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "join/key_index.h"
#include "mapping/interval.h"
#include "skyline/group_skyline.h"

namespace progxe {

/// One non-empty input partition I_a of a source.
struct InputPartition {
  /// Tight contribution bounds per output dimension (canonical space).
  std::vector<Interval> bounds;
  /// The partition's rows as join-key runs (key_index.rows()): the
  /// partition signature (Section III-A). Two partitions share a join key
  /// iff their runs share one (KeyIndex::SharesKeyWith), an exact test.
  KeyIndex key_index;

  size_t size() const { return key_index.size(); }
};

/// Options controlling uniform-grid input partitioning.
struct InputGridOptions {
  int cells_per_dim = 3;
};

/// The gridded view of one source.
class InputGrid {
 public:
  /// No partitions (a prepare that returned before partitioning).
  InputGrid() = default;

  /// Builds the grid for `rel`. `contribs` must have been computed with the
  /// same mapper/side, and `keys` is KeyIndex(rel), the source's key order.
  InputGrid(const Relation& rel, const ContributionTable& contribs,
            const KeyIndex& keys, const InputGridOptions& options);

  /// Non-empty partitions covering every source row exactly once, in cell
  /// index order.
  const std::vector<InputPartition>& partitions() const { return partitions_; }

  size_t num_partitions() const { return partitions_.size(); }

  /// Heap bytes held by the partitions: bounds and key runs (the
  /// prepared-state cache's byte budget).
  size_t ApproxBytes() const;

 private:
  std::vector<InputPartition> partitions_;
};

}  // namespace progxe
