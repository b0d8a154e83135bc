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
//
// Building one is linear: stable LSD radix passes over the key (biased to
// unsigned, one pass per key byte that varies), after a pass by row id
// when the given rows are not ascending. The prepare phase sorts each
// source once this way; the measured selectivity merges the two sources'
// key lists, and each input partition reads its index straight off its
// stretch of that order (FromGrouped), with no second sort.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/relation.h"

namespace progxe {

class KeyIndex {
 public:
  KeyIndex() = default;

  /// Indexes the given rows of `rel`, in any order.
  KeyIndex(const Relation& rel, const std::vector<RowId>& rows);

  /// Indexes every row of `rel`.
  explicit KeyIndex(const Relation& rel);

  /// Reads the index off rows already in its layout: grouped by key in
  /// ascending key order, ascending within a key. No sort.
  static KeyIndex FromGrouped(const Relation& rel,
                              std::span<const RowId> rows);

  /// Number of rows indexed.
  size_t size() const { return rows_.size(); }

  /// The indexed rows: grouped by key, keys ascending, rows ascending
  /// within a key.
  std::span<const RowId> rows() const { return rows_; }

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
  /// Radix-sorts `rows` (ascending) by key and lays them out as key runs.
  void Build(const Relation& rel, std::vector<RowId> rows);

  /// Fills keys_ and offsets_ for rows_, which is already in the layout.
  void SetRuns(const Relation& rel);

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
