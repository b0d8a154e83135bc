// Bloom filter over join-key values (Section III-A: partition signatures
// "efficiently maintained by either Bloom Filter or a bit vector").
//
// A Bloom filter can only prove that two partitions do NOT share a join
// value (no false negatives); a positive intersection test is "maybe". In
// Bloom mode the engine therefore uses the filters to skip partition pairs,
// but only the exact key-run test (KeyIndex::SharesKeyWith) establishes the
// guaranteed-populated property that region- and partition-level pruning
// require.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace progxe {

class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 64; `num_hashes` probes per key.
  explicit BloomFilter(size_t bits = 1024, int num_hashes = 4);

  void Add(uint64_t key);
  bool MightContain(uint64_t key) const;

  /// True iff this and `other` might share at least one added key.
  /// Sound skip test: returns false only when provably disjoint, under the
  /// (checked) precondition that both filters have identical geometry.
  bool MightIntersect(const BloomFilter& other) const;

  size_t bit_count() const { return words_.size() * 64; }
  /// Heap bytes held by the bit array.
  size_t ApproxBytes() const { return words_.capacity() * sizeof(uint64_t); }
  int num_hashes() const { return num_hashes_; }
  size_t popcount() const;

  /// Estimated false-positive rate after `n` insertions.
  double EstimatedFpRate(size_t n) const;

 private:
  static uint64_t Mix(uint64_t key, uint64_t salt);

  std::vector<uint64_t> words_;
  int num_hashes_;
};

}  // namespace progxe
