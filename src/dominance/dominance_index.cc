#include "dominance/dominance_index.h"

#include <algorithm>
#include <cstddef>

#include "common/compact.h"

namespace progxe {

DominanceIndex::DominanceIndex(int k, int cells_per_dim)
    : k_(k), cells_per_dim_(cells_per_dim) {
  sweep_ptrs_.resize(static_cast<size_t>(k_));
  le_bits_.resize(static_cast<size_t>(k_));
  ge_bits_.resize(static_cast<size_t>(k_));
  for (int d = 0; d < k_; ++d) {
    le_bits_[static_cast<size_t>(d)].resize(
        static_cast<size_t>(cells_per_dim_));
    ge_bits_[static_cast<size_t>(d)].resize(
        static_cast<size_t>(cells_per_dim_));
  }
}

int32_t DominanceIndex::Add(const CellCoord* coords, int32_t payload) {
  const int32_t pos = static_cast<int32_t>(payloads_.size());
  coords_.insert(coords_.end(), coords, coords + k_);
  payloads_.push_back(payload);
  SetBits(static_cast<size_t>(pos), coords, true);
  return pos;
}

void DominanceIndex::Remove(int32_t pos) {
  SetBits(static_cast<size_t>(pos), entry_coords(static_cast<size_t>(pos)),
          false);
  payloads_[static_cast<size_t>(pos)] = -1;
  ++tombstones_;
}

void DominanceIndex::SetBits(size_t i, const CellCoord* coords, bool value) {
  const size_t word = i >> 6;
  const uint64_t bit = uint64_t{1} << (i & 63);
  for (int d = 0; d < k_; ++d) {
    auto& le = le_bits_[static_cast<size_t>(d)];
    auto& ge = ge_bits_[static_cast<size_t>(d)];
    for (CellCoord v = coords[d]; v < cells_per_dim_; ++v) {
      auto& w = le[static_cast<size_t>(v)];
      if (w.size() <= word) {
        if (!value) continue;  // an unset bit needs no storage
        w.resize(word + 1, 0);
      }
      if (value) {
        w[word] |= bit;
      } else {
        w[word] &= ~bit;
      }
    }
    for (CellCoord v = 0; v <= coords[d]; ++v) {
      auto& w = ge[static_cast<size_t>(v)];
      if (w.size() <= word) {
        if (!value) continue;
        w.resize(word + 1, 0);
      }
      if (value) {
        w[word] |= bit;
      } else {
        w[word] &= ~bit;
      }
    }
  }
}

size_t DominanceIndex::GatherSweep(bool ge, const CellCoord* coords) const {
  size_t min_words = SIZE_MAX;
  for (int d = 0; d < k_; ++d) {
    const auto& rows = (ge ? ge_bits_ : le_bits_)[static_cast<size_t>(d)];
    const auto& bits = rows[static_cast<size_t>(coords[d])];
    sweep_ptrs_[static_cast<size_t>(d)] = bits.data();
    min_words = std::min(min_words, bits.size());
  }
  return min_words == SIZE_MAX ? 0 : min_words;
}

void DominanceIndex::Compact() {
  const size_t kk = static_cast<size_t>(k_);
  const size_t w = CompactParallel(
      payloads_.size(), [this](size_t i) { return payloads_[i] >= 0; },
      [this, kk](size_t from, size_t to) {
        std::copy(coords_.begin() + static_cast<ptrdiff_t>(from * kk),
                  coords_.begin() + static_cast<ptrdiff_t>((from + 1) * kk),
                  coords_.begin() + static_cast<ptrdiff_t>(to * kk));
        payloads_[to] = payloads_[from];
      });
  coords_.resize(w * kk);
  payloads_.resize(w);
  tombstones_ = 0;
  RebuildBits();
}

void DominanceIndex::RebuildBits() {
  const size_t kk = static_cast<size_t>(k_);
  const size_t words = (payloads_.size() + 63) >> 6;
  for (int d = 0; d < k_; ++d) {
    for (auto& bits : le_bits_[static_cast<size_t>(d)]) {
      bits.assign(words, 0);
    }
    for (auto& bits : ge_bits_[static_cast<size_t>(d)]) {
      bits.assign(words, 0);
    }
  }
  for (size_t i = 0; i < payloads_.size(); ++i) {
    SetBits(i, coords_.data() + i * kk, true);
  }
}

}  // namespace progxe
