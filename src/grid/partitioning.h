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
#include <optional>
#include <vector>

#include "data/relation.h"
#include "grid/bloom_filter.h"
#include "grid/grid_geometry.h"
#include "join/key_index.h"
#include "mapping/interval.h"

namespace progxe {

/// How the look-ahead tests a partition pair for a shared join key (the
/// paper's partition signatures, Section III-A). kExact merges the two
/// partitions' key lists, and a hit guarantees >= 1 join result. kBloom
/// ANDs per-partition Bloom filters: a miss proves the pair empty, a hit
/// means "maybe".
enum class SharedKeyTest : uint8_t { kExact, kBloom };

/// How partitioners index each partition's join keys.
struct PartitionKeyOptions {
  SharedKeyTest test = SharedKeyTest::kExact;
  /// Bloom mode only: filter geometry, identical for every partition.
  size_t bloom_bits = 2048;
  int bloom_hashes = 4;
};

/// One non-empty input partition I_a of a source.
struct InputPartition {
  /// Rows of the source relation in this partition.
  std::vector<RowId> rows;
  /// Tight contribution bounds per output dimension (canonical space).
  std::vector<Interval> bounds;
  /// Join-key runs over `rows`.
  KeyIndex key_index;
  /// Bloom mode only: a Bloom filter over the join keys of `rows`.
  std::optional<BloomFilter> bloom;
  /// Cell coordinates for grid-aligned partitioners (diagnostic only;
  /// all-zero for adaptive partitioners).
  std::vector<CellCoord> coords;

  size_t size() const { return rows.size(); }
};

/// Indexes `part->rows`' join keys: the key runs always, the Bloom filter
/// in Bloom mode only. Shared by every partitioner.
inline void IndexPartitionKeys(const Relation& rel,
                               const PartitionKeyOptions& options,
                               InputPartition* part) {
  part->key_index = KeyIndex(rel, part->rows);
  if (options.test != SharedKeyTest::kBloom) return;
  part->bloom.emplace(options.bloom_bits, options.bloom_hashes);
  for (RowId id : part->rows) {
    part->bloom->Add(static_cast<uint64_t>(rel.join_key(id)));
  }
}

/// Abstract partitioned view of one source.
class InputPartitioning {
 public:
  virtual ~InputPartitioning() = default;

  /// Non-empty partitions covering every source row exactly once.
  virtual const std::vector<InputPartition>& partitions() const = 0;

  size_t num_partitions() const { return partitions().size(); }

  /// Heap bytes held by the partitions: row lists, bounds, coordinates,
  /// key runs and Bloom words (the prepared-state cache's byte budget).
  size_t ApproxBytes() const {
    size_t bytes = 0;
    for (const InputPartition& p : partitions()) {
      bytes += sizeof(InputPartition);
      bytes += p.rows.capacity() * sizeof(RowId);
      bytes += p.bounds.capacity() * sizeof(Interval);
      bytes += p.coords.capacity() * sizeof(CellCoord);
      bytes += p.key_index.ApproxBytes();
      if (p.bloom) bytes += p.bloom->ApproxBytes();
    }
    return bytes;
  }
};

}  // namespace progxe
