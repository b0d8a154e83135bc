// Join-key index over a set of a relation's rows, as sorted key runs.
//
// Input partitions keep one of these so that tuple-level processing of a
// region (Section III-B) joins two partitions in time proportional to their
// key lists plus the matching pairs, rather than |I_a| * |I_b|. It is the
// one key structure every equi-join reads: a region's join and the
// look-ahead's shared-key test (ForEachMatch, SharesKeyWith), the
// baselines' joins (JoinIndexes) and push-through's join groups (ForEach).
//
// The index is CSR-shaped: the distinct keys in ascending order, and per
// key a run of its rows in ascending row id. Joins therefore visit pairs in
// (key, r row, t row) order, a function of the data alone.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/relation.h"

namespace progxe {

class KeyIndex {
 public:
  KeyIndex() = default;

  /// Indexes the given rows of `rel`.
  KeyIndex(const Relation& rel, const std::vector<RowId>& rows);

  /// Indexes every row of `rel`.
  explicit KeyIndex(const Relation& rel);

  /// Calls fn(key, rows) per distinct key, in ascending key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) fn(keys_[i], run(i));
  }

  /// Calls fn(my_rows, other_rows) per key both indexes hold, in ascending
  /// key order: one linear merge of the two key lists.
  template <typename Fn>
  void ForEachMatch(const KeyIndex& other, Fn&& fn) const {
    size_t i = 0;
    size_t j = 0;
    while (i < keys_.size() && j < other.keys_.size()) {
      if (keys_[i] < other.keys_[j]) {
        ++i;
      } else if (other.keys_[j] < keys_[i]) {
        ++j;
      } else {
        fn(run(i++), other.run(j++));
      }
    }
  }

  /// True iff this index and `other` share at least one key: the merge of
  /// ForEachMatch, stopping at the first match.
  bool SharesKeyWith(const KeyIndex& other) const;

  /// Heap bytes held: the key list, the run offsets and the rows.
  size_t ApproxBytes() const {
    return keys_.capacity() * sizeof(JoinKey) +
           offsets_.capacity() * sizeof(uint32_t) +
           rows_.capacity() * sizeof(RowId);
  }

 private:
  /// Sorts the (key, row) entries and lays them out as key runs.
  void Build(std::vector<std::pair<JoinKey, RowId>> entries);

  std::span<const RowId> run(size_t i) const {
    return {rows_.data() + offsets_[i], rows_.data() + offsets_[i + 1]};
  }

  std::vector<JoinKey> keys_;      // distinct keys, ascending
  std::vector<uint32_t> offsets_;  // key i's run: [offsets_[i], offsets_[i+1])
  std::vector<RowId> rows_;        // grouped by key, ascending within a key
};

/// Joins two key indexes, invoking `emit(r_id, t_id)` for every matching
/// pair in (key, r, t) order. Returns the number of pairs emitted.
template <typename Fn>
size_t JoinIndexes(const KeyIndex& r_index, const KeyIndex& t_index,
                   Fn&& emit) {
  size_t count = 0;
  r_index.ForEachMatch(t_index, [&](std::span<const RowId> r_rows,
                                    std::span<const RowId> t_rows) {
    for (RowId r : r_rows) {
      for (RowId t : t_rows) emit(r, t);
    }
    count += r_rows.size() * t_rows.size();
  });
  return count;
}

}  // namespace progxe
