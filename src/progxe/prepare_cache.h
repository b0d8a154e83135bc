// Cross-query prepared-state cache.
//
// A serving workload sees overlapping queries: the same join under perturbed
// preferences, budgets or serving parameters. Everything the prepare phase
// builds (push-through, contribution tables, input grids, look-ahead) is a
// pure function of the sources, the canonical mapping and a handful of
// prepare-affecting options — so it can be built once and shared, read-only,
// by any number of concurrent sessions. PrepareCache keys immutable
// PreparedInputs by a content fingerprint and serves them under an LRU
// byte budget; ProgXeSession::Open consults it when
// ProgXeOptions::prepare_cache is set, and the QueryScheduler hands every
// submitted query its scheduler-wide instance.
//
// The fingerprint covers, bit-exactly: both relations' contents (attribute
// values, join keys, widths, sizes), the MapSpec (terms, constants,
// transforms), the preference directions (they fold into the canonical
// mapper's signs, which the contribution tables bake in), and the
// prepare-affecting options (push_through, raw input/output grid
// resolutions). Consumption-side
// options — ordering, seed, budgets, faults, seeding — are deliberately
// excluded: they never change what the prepare phase builds.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "progxe/prepare.h"

namespace progxe {

/// Thread-safe LRU cache of immutable PreparedInputs. Shared via
/// shared_ptr across the scheduler, sessions and sharded sub-sessions.
class PrepareCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  /// `max_bytes`: 0 = unbounded. Every entry charges at least
  /// sizeof(PreparedInputs), so the byte budget also bounds the entry count.
  explicit PrepareCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Content fingerprint of everything PreparedInputs depends on. Stable
  /// across Relation object identities: equal contents hash equal (sound,
  /// because cached inputs own copies of their sources).
  static std::string Fingerprint(const SkyMapJoinQuery& query,
                                 const ProgXeOptions& options);

  /// Returns the cached inputs for `key` (bumping recency and the hit
  /// counter), or nullptr on miss.
  std::shared_ptr<const PreparedInputs> Lookup(const std::string& key);

  /// Inserts `inputs` under `key`, evicting LRU entries past the budget.
  /// Returns the canonical entry for `key`: on an insert race the first
  /// writer wins and its entry is returned, so concurrent submitters
  /// converge on one shared instance. Entries larger than the whole byte
  /// budget are served back uncached.
  std::shared_ptr<const PreparedInputs> Insert(
      const std::string& key, std::shared_ptr<const PreparedInputs> inputs);

  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const PreparedInputs> inputs;
    size_t bytes = 0;
  };

  const size_t max_bytes_;

  mutable std::mutex mtx_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace progxe
