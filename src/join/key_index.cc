#include "join/key_index.h"

#include <algorithm>
#include <numeric>

#include "common/radix_sort.h"

namespace progxe {

namespace {

/// Maps a signed key onto an unsigned one with the same order.
constexpr uint64_t kKeyBias = uint64_t{1} << 63;

}  // namespace

KeyIndex::KeyIndex(const Relation& rel, const std::vector<RowId>& rows) {
  std::vector<RowId> ascending = rows;
  if (!std::is_sorted(ascending.begin(), ascending.end())) {
    RadixSortBy(&ascending, [](RowId row) { return uint64_t{row}; });
  }
  Build(rel, std::move(ascending));
}

KeyIndex::KeyIndex(const Relation& rel) {
  std::vector<RowId> rows(rel.size());
  std::iota(rows.begin(), rows.end(), RowId{0});
  Build(rel, std::move(rows));
}

KeyIndex KeyIndex::FromGrouped(const Relation& rel,
                               std::span<const RowId> rows) {
  KeyIndex index;
  index.rows_.assign(rows.begin(), rows.end());
  index.SetRuns(rel);
  return index;
}

void KeyIndex::Build(const Relation& rel, std::vector<RowId> rows) {
  const JoinKey* keys = rel.join_keys().data();
  RadixSortBy(&rows, [keys](RowId row) {
    return static_cast<uint64_t>(keys[row]) ^ kKeyBias;
  });
  rows_ = std::move(rows);
  SetRuns(rel);
}

void KeyIndex::SetRuns(const Relation& rel) {
  for (size_t i = 0; i < rows_.size(); ++i) {
    const JoinKey key = rel.join_key(rows_[i]);
    if (keys_.empty() || keys_.back() != key) {
      keys_.push_back(key);
      offsets_.push_back(static_cast<uint32_t>(i));
    }
  }
  offsets_.push_back(static_cast<uint32_t>(rows_.size()));
}

bool KeyIndex::SharesKeyWith(const KeyIndex& other) const {
  size_t i = 0;
  size_t j = 0;
  while (i < keys_.size() && j < other.keys_.size()) {
    if (keys_[i] < other.keys_[j]) {
      ++i;
    } else if (other.keys_[j] < keys_[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace progxe
