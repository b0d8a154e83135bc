// Property tests for the shared DominanceIndex (dominance/dominance_index.h):
// randomized insert/remove/query sweeps checked against a brute-force flat
// scan, plus the sweep contracts the sharded merge sink and the OutputTable
// rely on (early exit, removal mid-sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dominance/dominance_index.h"

namespace progxe {
namespace {

struct RefEntry {
  std::vector<CellCoord> coords;
  int32_t payload = 0;
  bool live = false;
};

/// Brute-force mirror of the index: flat entry list + naive scans.
struct Reference {
  int k = 0;
  std::vector<RefEntry> entries;  // by insertion order

  std::vector<int32_t> ConePayloads(const CellCoord* q, bool ge) const {
    std::vector<int32_t> out;
    for (const RefEntry& e : entries) {
      if (!e.live) continue;
      bool in_cone = true;
      for (int d = 0; d < k && in_cone; ++d) {
        in_cone = ge ? e.coords[static_cast<size_t>(d)] >= q[d]
                     : e.coords[static_cast<size_t>(d)] <= q[d];
      }
      if (in_cone) out.push_back(e.payload);
    }
    return out;
  }
};

class DominanceIndexSweep : public ::testing::TestWithParam<int> {};

TEST_P(DominanceIndexSweep, MatchesBruteForceUnderRandomChurn) {
  const int param = GetParam();
  Rng rng(0xd031 + static_cast<uint64_t>(param));
  const int k = 2 + static_cast<int>(rng.NextBelow(3));
  const int cpd = 4 + static_cast<int>(rng.NextBelow(12));

  DominanceIndex index(k, cpd);
  Reference ref;
  ref.k = k;
  std::vector<int32_t> pos_of;  // payload -> index position

  std::vector<CellCoord> q(static_cast<size_t>(k));
  const auto random_coords = [&](CellCoord* out) {
    for (int d = 0; d < k; ++d) {
      out[d] = static_cast<CellCoord>(rng.NextBelow(
          static_cast<uint64_t>(cpd)));
    }
  };

  for (int step = 0; step < 400; ++step) {
    const uint64_t action = rng.NextBelow(10);
    if (action < 5 || ref.entries.empty()) {
      RefEntry e;
      e.coords.resize(static_cast<size_t>(k));
      random_coords(e.coords.data());
      e.payload = static_cast<int32_t>(ref.entries.size());
      e.live = true;
      pos_of.push_back(index.Add(e.coords.data(), e.payload));
      ref.entries.push_back(std::move(e));
    } else if (action < 7) {
      // Remove a random live entry.
      std::vector<int32_t> live;
      for (const RefEntry& e : ref.entries) {
        if (e.live) live.push_back(e.payload);
      }
      if (live.empty()) continue;
      const int32_t victim =
          live[rng.NextBelow(static_cast<uint64_t>(live.size()))];
      index.Remove(pos_of[static_cast<size_t>(victim)]);
      ref.entries[static_cast<size_t>(victim)].live = false;
      index.MaybeCompact([&](int32_t payload, int32_t pos) {
        pos_of[static_cast<size_t>(payload)] = pos;
      });
    } else {
      // Query: cone sweeps vs brute force.
      random_coords(q.data());
      const bool ge = rng.Bernoulli(0.5);
      std::vector<int32_t> got;
      if (ge) {
        index.SweepGe(q.data(), [&](size_t p) {
          got.push_back(index.payload(p));
          return true;
        });
      } else {
        index.SweepLe(q.data(), [&](size_t p) {
          got.push_back(index.payload(p));
          return true;
        });
      }
      std::vector<int32_t> want = ref.ConePayloads(q.data(), ge);
      // Sweeps enumerate ascending positions; payloads follow insertion
      // order modulo compaction, which preserves relative order — so both
      // sides sort to the same multiset AND the sweep order itself is the
      // reference order.
      EXPECT_EQ(got, want) << "step=" << step << " ge=" << ge;
    }

    // Structural invariants, every step.
    ASSERT_EQ(index.live_size(),
              static_cast<size_t>(std::count_if(
                  ref.entries.begin(), ref.entries.end(),
                  [](const RefEntry& e) { return e.live; })));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceIndexSweep, ::testing::Range(0, 10));

// Early-exit contract: a sweep stops as soon as fn returns false.
TEST(DominanceIndex, SweepStopsOnFalse) {
  DominanceIndex index(2, 8);
  const CellCoord a[2] = {1, 1};
  const CellCoord b[2] = {2, 2};
  const CellCoord c[2] = {3, 3};
  index.Add(a, 0);
  index.Add(b, 1);
  index.Add(c, 2);
  size_t visits = 0;
  const CellCoord q[2] = {7, 7};
  index.SweepLe(q, [&](size_t) {
    ++visits;
    return false;
  });
  EXPECT_EQ(visits, 1u);
}

// Removal mid-sweep: entries tombstoned by fn within the currently captured
// word must not be visited afterwards (the merge sink drops dominated held
// candidates from inside SweepGe).
TEST(DominanceIndex, RemovalDuringSweepSkipsTombstones) {
  DominanceIndex index(2, 8);
  std::vector<int32_t> pos;
  const CellCoord coords[2] = {4, 4};
  for (int32_t i = 0; i < 8; ++i) pos.push_back(index.Add(coords, i));
  std::vector<int32_t> seen;
  const CellCoord q[2] = {4, 4};
  index.SweepGe(q, [&](size_t p) {
    const int32_t id = index.payload(p);
    seen.push_back(id);
    if (id == 0) {
      // Drop two later entries while their bits are already captured.
      index.Remove(pos[3]);
      index.Remove(pos[5]);
    }
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int32_t>{0, 1, 2, 4, 6, 7}));
  EXPECT_EQ(index.live_size(), 6u);
}

}  // namespace
}  // namespace progxe
