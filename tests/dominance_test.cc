// Unit tests for the preference model and dominance predicates
// (Definition 1 of the paper).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "prefs/dominance.h"

namespace progxe {
namespace {

TEST(Preference, FactoriesAndAccessors) {
  Preference low = Preference::AllLowest(3);
  EXPECT_EQ(low.dimensions(), 3);
  EXPECT_TRUE(low.IsAllLowest());
  EXPECT_EQ(low.direction(1), Direction::kLowest);

  Preference high = Preference::AllHighest(2);
  EXPECT_FALSE(high.IsAllLowest());
  EXPECT_EQ(high.ToString(), "HIGHEST,HIGHEST");
}

TEST(Preference, CanonicalizeIsInvolution) {
  Preference mixed({Direction::kLowest, Direction::kHighest});
  EXPECT_EQ(mixed.Canonicalize(0, 5.0), 5.0);
  EXPECT_EQ(mixed.Canonicalize(1, 5.0), -5.0);
  EXPECT_EQ(mixed.Decanonicalize(1, mixed.Canonicalize(1, 5.0)), 5.0);
}

TEST(Dominance, BasicMinimizeCases) {
  Preference pref = Preference::AllLowest(2);
  std::vector<double> a{1.0, 2.0};
  std::vector<double> b{2.0, 3.0};
  std::vector<double> c{2.0, 1.0};
  std::vector<double> a2{1.0, 2.0};

  EXPECT_EQ(Compare(a, b, pref), DomResult::kLeftDominates);
  EXPECT_EQ(Compare(b, a, pref), DomResult::kRightDominates);
  EXPECT_EQ(Compare(a, c, pref), DomResult::kIncomparable);
  EXPECT_EQ(Compare(a, a2, pref), DomResult::kEqual);

  EXPECT_TRUE(Dominates(a, b, pref));
  EXPECT_FALSE(Dominates(b, a, pref));
  EXPECT_FALSE(Dominates(a, a2, pref));  // equality is not dominance

  EXPECT_TRUE(WeaklyDominates(a, a2, pref));
  EXPECT_TRUE(WeaklyDominates(a, b, pref));
  EXPECT_FALSE(WeaklyDominates(b, a, pref));
}

TEST(Dominance, PartialImprovementIsNotDominance) {
  Preference pref = Preference::AllLowest(3);
  std::vector<double> a{1.0, 5.0, 3.0};
  std::vector<double> b{2.0, 4.0, 3.0};
  EXPECT_EQ(Compare(a, b, pref), DomResult::kIncomparable);
}

TEST(Dominance, HighestDirectionFlipsOrder) {
  Preference pref = Preference::AllHighest(2);
  std::vector<double> big{10.0, 10.0};
  std::vector<double> small{1.0, 1.0};
  EXPECT_TRUE(Dominates(big, small, pref));
  EXPECT_FALSE(Dominates(small, big, pref));
}

TEST(Dominance, MixedDirections) {
  // Minimize cost (dim 0), maximize quality (dim 1).
  Preference pref({Direction::kLowest, Direction::kHighest});
  std::vector<double> cheap_good{1.0, 9.0};
  std::vector<double> costly_bad{5.0, 2.0};
  std::vector<double> cheap_bad{1.0, 2.0};
  EXPECT_TRUE(Dominates(cheap_good, costly_bad, pref));
  EXPECT_TRUE(Dominates(cheap_good, cheap_bad, pref));
  EXPECT_EQ(Compare(cheap_bad, costly_bad, pref), DomResult::kLeftDominates);
}

TEST(Dominance, CounterCountsCalls) {
  Preference pref = Preference::AllLowest(2);
  DomCounter counter;
  std::vector<double> a{1.0, 2.0};
  std::vector<double> b{2.0, 3.0};
  Dominates(a, b, pref, &counter);
  Compare(a, b, pref, &counter);
  WeaklyDominates(a, b, pref, &counter);
  EXPECT_EQ(counter.comparisons, 3u);
  counter.Reset();
  EXPECT_EQ(counter.comparisons, 0u);
}

TEST(DominanceMin, MatchesGenericOnCanonicalVectors) {
  Rng rng(404);
  Preference pref = Preference::AllLowest(4);
  for (int trial = 0; trial < 2000; ++trial) {
    double a[4];
    double b[4];
    for (int i = 0; i < 4; ++i) {
      // Small integer grid to generate many ties.
      a[i] = static_cast<double>(rng.NextBelow(4));
      b[i] = static_cast<double>(rng.NextBelow(4));
    }
    std::span<const double> sa(a, 4);
    std::span<const double> sb(b, 4);
    EXPECT_EQ(DominatesMin(a, b, 4), Dominates(sa, sb, pref));
    EXPECT_EQ(CompareMin(a, b, 4), Compare(sa, sb, pref));
  }
}

// Property: dominance is a strict partial order on any sample —
// irreflexive, asymmetric, transitive.
TEST(DominanceProperty, StrictPartialOrder) {
  Rng rng(7);
  constexpr int kN = 60;
  constexpr int kD = 3;
  std::vector<std::array<double, kD>> pts(kN);
  for (auto& p : pts) {
    for (double& v : p) v = static_cast<double>(rng.NextBelow(5));
  }
  auto dom = [&](int i, int j) {
    return DominatesMin(pts[i].data(), pts[j].data(), kD);
  };
  for (int i = 0; i < kN; ++i) {
    EXPECT_FALSE(dom(i, i));
    for (int j = 0; j < kN; ++j) {
      if (dom(i, j)) {
        EXPECT_FALSE(dom(j, i));
      }
      for (int l = 0; l < kN; ++l) {
        if (dom(i, j) && dom(j, l)) {
          EXPECT_TRUE(dom(i, l))
              << "transitivity violated at " << i << "," << j << "," << l;
        }
      }
    }
  }
}

}  // namespace
}  // namespace progxe
