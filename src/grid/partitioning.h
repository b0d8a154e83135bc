// Input-space partitions and the abstract partitioning interface.
//
// Section III of the paper assumes a multi-dimensional grid but notes that
// "other space-partitioning methodologies such as quad-tree and R-tree
// structures can also be utilized". Everything downstream (look-ahead,
// ProgOrder, tuple-level processing) only needs the partition list, so the
// executor works against this interface; InputGrid (uniform grid) and
// KdPartitioner (adaptive median splits) are the two realizations.
#pragma once

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "grid/grid_geometry.h"
#include "join/key_index.h"
#include "mapping/interval.h"

namespace progxe {

/// One non-empty input partition I_a of a source.
struct InputPartition {
  /// Rows of the source relation in this partition.
  std::vector<RowId> rows;
  /// Tight contribution bounds per output dimension (canonical space).
  std::vector<Interval> bounds;
  /// Join-key runs over `rows`: the partition signature (Section III-A).
  /// Two partitions share a join key iff their runs share one
  /// (KeyIndex::SharesKeyWith), an exact test.
  KeyIndex key_index;
  /// Cell coordinates for grid-aligned partitioners (diagnostic only;
  /// all-zero for adaptive partitioners).
  std::vector<CellCoord> coords;

  size_t size() const { return rows.size(); }
};

/// Abstract partitioned view of one source.
class InputPartitioning {
 public:
  virtual ~InputPartitioning() = default;

  /// Non-empty partitions covering every source row exactly once.
  virtual const std::vector<InputPartition>& partitions() const = 0;

  size_t num_partitions() const { return partitions().size(); }

  /// Heap bytes held by the partitions: row lists, bounds, coordinates,
  /// and key runs (the prepared-state cache's byte budget).
  size_t ApproxBytes() const {
    size_t bytes = 0;
    for (const InputPartition& p : partitions()) {
      bytes += sizeof(InputPartition);
      bytes += p.rows.capacity() * sizeof(RowId);
      bytes += p.bounds.capacity() * sizeof(Interval);
      bytes += p.coords.capacity() * sizeof(CellCoord);
      bytes += p.key_index.ApproxBytes();
    }
    return bytes;
  }
};

}  // namespace progxe
