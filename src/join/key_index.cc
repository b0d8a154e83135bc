#include "join/key_index.h"

#include <algorithm>

namespace progxe {

KeyIndex::KeyIndex(const Relation& rel, const std::vector<RowId>& rows) {
  std::vector<std::pair<JoinKey, RowId>> entries;
  entries.reserve(rows.size());
  for (RowId id : rows) entries.emplace_back(rel.join_key(id), id);
  Build(std::move(entries));
}

KeyIndex::KeyIndex(const Relation& rel) {
  std::vector<std::pair<JoinKey, RowId>> entries;
  entries.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    const RowId id = static_cast<RowId>(i);
    entries.emplace_back(rel.join_key(id), id);
  }
  Build(std::move(entries));
}

void KeyIndex::Build(std::vector<std::pair<JoinKey, RowId>> entries) {
  std::sort(entries.begin(), entries.end());
  rows_.reserve(entries.size());
  for (const auto& [key, id] : entries) {
    if (keys_.empty() || keys_.back() != key) {
      keys_.push_back(key);
      offsets_.push_back(static_cast<uint32_t>(rows_.size()));
    }
    rows_.push_back(id);
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
