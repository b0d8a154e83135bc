// Stable least-significant-digit radix sort of items by a 64-bit key.
//
// The prepare phase orders rows by join key and then by input cell with
// it: linear in the row count, with one counting pass per key byte that
// is not the same in every key (join keys from a small domain take two
// passes, a grid's cell index usually one). Keys are recomputed from the
// item on every pass rather than moved with it, so a pass scatters only
// the items.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace progxe {

/// Reorders `items` by ascending key_of(item), a uint64_t. Stable: items
/// with equal keys keep their relative order.
template <typename T, typename KeyOf>
void RadixSortBy(std::vector<T>* items, KeyOf key_of) {
  const size_t n = items->size();
  if (n < 2) return;
  const uint64_t first = key_of((*items)[0]);
  uint64_t differing = 0;
  for (const T& item : *items) differing |= key_of(item) ^ first;
  std::vector<T> sorted;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((differing >> shift) & 0xff) == 0) continue;
    std::array<size_t, 256> next{};
    for (const T& item : *items) ++next[(key_of(item) >> shift) & 0xff];
    size_t offset = 0;
    for (size_t& slot : next) {
      const size_t count = slot;
      slot = offset;
      offset += count;
    }
    sorted.resize(n);
    for (const T& item : *items) {
      sorted[next[(key_of(item) >> shift) & 0xff]++] = item;
    }
    items->swap(sorted);
  }
}

}  // namespace progxe
