#include "progxe/prepare_cache.h"

#include <cstdio>
#include <cstring>

namespace progxe {

namespace {

/// splitmix64 finalizer — the repo's standard cheap mixer (shard_planner.h).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Streaming word hasher: absorbs one 64-bit word per call.
class Hasher {
 public:
  explicit Hasher(uint64_t seed) : state_(Mix64(seed)) {}

  void U64(uint64_t v) { state_ = Mix64(state_ ^ v); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  uint64_t digest() const { return state_; }

 private:
  uint64_t state_;
};

void AbsorbRelation(Hasher* h, const Relation& rel) {
  h->U64(rel.size());
  h->U64(static_cast<uint64_t>(rel.num_attributes()));
  for (size_t i = 0; i < rel.size(); ++i) {
    const RowId id = static_cast<RowId>(i);
    for (double v : rel.attrs(id)) h->F64(v);
    h->I64(rel.join_key(id));
  }
}

void AbsorbQuery(Hasher* h, const SkyMapJoinQuery& query,
                 const ProgXeOptions& options) {
  AbsorbRelation(h, *query.r);
  AbsorbRelation(h, *query.t);

  h->U64(static_cast<uint64_t>(query.map.output_dimensions()));
  for (const MapFunc& f : query.map.funcs()) {
    h->U64(f.terms().size());
    for (const MapTerm& term : f.terms()) {
      h->U64(static_cast<uint64_t>(term.side));
      h->U64(static_cast<uint64_t>(term.attr_index));
      h->F64(term.weight);
    }
    h->F64(f.constant());
    h->U64(static_cast<uint64_t>(f.transform()));
  }

  h->U64(static_cast<uint64_t>(query.pref.dimensions()));
  for (Direction d : query.pref.directions()) {
    h->U64(static_cast<uint64_t>(d));
  }

  // Prepare-affecting options only; grid resolutions as *requested* (0 =
  // auto resolves deterministically from the same sources, so raw values
  // fingerprint correctly).
  h->U64(options.push_through ? 1 : 0);
  h->U64(static_cast<uint64_t>(options.input_cells_per_dim));
  h->U64(static_cast<uint64_t>(options.output_cells_per_dim));
}

}  // namespace

std::string PrepareCache::Fingerprint(const SkyMapJoinQuery& query,
                                      const ProgXeOptions& options) {
  // Two independently-seeded passes -> a 128-bit key; collisions across
  // distinct prepared states are negligible.
  Hasher lo(0x70726570ULL);  // "prep"
  Hasher hi(0x63616368ULL);  // "cach"
  AbsorbQuery(&lo, query, options);
  AbsorbQuery(&hi, query, options);
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(lo.digest()),
                static_cast<unsigned long long>(hi.digest()));
  return std::string(buf, 32);
}

std::shared_ptr<const PreparedInputs> PrepareCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->inputs;
}

std::shared_ptr<const PreparedInputs> PrepareCache::Insert(
    const std::string& key, std::shared_ptr<const PreparedInputs> inputs) {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Insert race: the first writer's entry is canonical so concurrent
    // submitters end up sharing one instance.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->inputs;
  }
  const size_t bytes = inputs->ApproxBytes();
  if (max_bytes_ > 0 && bytes > max_bytes_) {
    return inputs;  // would evict the whole cache; serve it uncached
  }
  lru_.push_front(Entry{key, inputs, bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  while (!lru_.empty() && max_bytes_ > 0 && bytes_ > max_bytes_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
  return inputs;
}

PrepareCache::Stats PrepareCache::stats() const {
  std::lock_guard<std::mutex> lock(mtx_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace progxe
