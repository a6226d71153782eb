#include "core/indices.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace fairjob {
namespace {

TEST(InvertedIndexTest, SortsDescending) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}, {2, 0.5}});
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.entry(0).pos, 1);
  EXPECT_EQ(index.entry(1).pos, 2);
  EXPECT_EQ(index.entry(2).pos, 0);
}

TEST(InvertedIndexTest, TiesBrokenByPosition) {
  InvertedIndex index({{5, 0.5}, {2, 0.5}, {9, 0.5}});
  EXPECT_EQ(index.entry(0).pos, 2);
  EXPECT_EQ(index.entry(1).pos, 5);
  EXPECT_EQ(index.entry(2).pos, 9);
}

TEST(InvertedIndexTest, RandomAccess) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  EXPECT_DOUBLE_EQ(*index.Find(0), 0.3);
  EXPECT_DOUBLE_EQ(*index.Find(1), 0.9);
  EXPECT_FALSE(index.Find(7).has_value());
}

TEST(InvertedIndexTest, EmptyIndex) {
  InvertedIndex index({});
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.Find(0).has_value());
}

class IndexSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cube_ = std::make_unique<UnfairnessCube>(
        *UnfairnessCube::Make({0, 1, 2}, {0, 1}, {0, 1}));
    // d<g,q,l> = g + 10q + 100l for present cells; (2, *, *) left missing.
    for (size_t g = 0; g < 2; ++g) {
      for (size_t q = 0; q < 2; ++q) {
        for (size_t l = 0; l < 2; ++l) {
          cube_->Set(g, q, l, static_cast<double>(g + 10 * q + 100 * l));
        }
      }
    }
    indices_ = std::make_unique<IndexSet>(IndexSet::Build(*cube_));
  }

  std::unique_ptr<UnfairnessCube> cube_;
  std::unique_ptr<IndexSet> indices_;
};

TEST_F(IndexSetTest, GroupBasedListPerQueryLocationPair) {
  // I(q=1, l=0): groups with their d values, descending.
  const InvertedIndex& list = indices_->ListAt(Dimension::kGroup, 1, 0);
  ASSERT_EQ(list.size(), 2u);  // group 2 has no value
  EXPECT_EQ(list.entry(0).pos, 1);
  EXPECT_DOUBLE_EQ(list.entry(0).value, 11.0);
  EXPECT_EQ(list.entry(1).pos, 0);
  EXPECT_DOUBLE_EQ(list.entry(1).value, 10.0);
}

TEST_F(IndexSetTest, QueryBasedListPerGroupLocationPair) {
  // I(g=0, l=1): queries descending: q1 -> 110, q0 -> 100.
  const InvertedIndex& list = indices_->ListAt(Dimension::kQuery, 0, 1);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.entry(0).pos, 1);
  EXPECT_DOUBLE_EQ(list.entry(0).value, 110.0);
}

TEST_F(IndexSetTest, LocationBasedListPerGroupQueryPair) {
  const InvertedIndex& list = indices_->ListAt(Dimension::kLocation, 1, 1);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.entry(0).pos, 1);  // l=1 -> 111
  EXPECT_DOUBLE_EQ(list.entry(0).value, 111.0);
  EXPECT_DOUBLE_EQ(*list.Find(0), 11.0);
}

TEST_F(IndexSetTest, MissingGroupAbsentFromEveryList) {
  for (size_t q = 0; q < 2; ++q) {
    for (size_t l = 0; l < 2; ++l) {
      EXPECT_FALSE(
          indices_->ListAt(Dimension::kGroup, q, l).Find(2).has_value());
    }
  }
}

TEST_F(IndexSetTest, ListsForAllSelectorsCoversCrossProduct) {
  std::vector<const InvertedIndex*> lists = indices_->ListsFor(
      Dimension::kGroup, AxisSelector::All(), AxisSelector::All());
  EXPECT_EQ(lists.size(), 4u);  // 2 queries × 2 locations
}

TEST_F(IndexSetTest, ListsForSubsetsSelectsPairs) {
  std::vector<const InvertedIndex*> lists = indices_->ListsFor(
      Dimension::kGroup, AxisSelector::Single(1), AxisSelector::All());
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_DOUBLE_EQ(lists[0]->entry(0).value, 11.0);   // (q=1, l=0)
  EXPECT_DOUBLE_EQ(lists[1]->entry(0).value, 111.0);  // (q=1, l=1)
}

TEST_F(IndexSetTest, AxisSizes) {
  EXPECT_EQ(indices_->axis_size(Dimension::kGroup), 3u);
  EXPECT_EQ(indices_->axis_size(Dimension::kQuery), 2u);
  EXPECT_EQ(indices_->axis_size(Dimension::kLocation), 2u);
}

TEST(InvertedIndexUpdateTest, UpsertInsertsAndKeepsOrder) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  index.Upsert(2, 0.5);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.entry(0).pos, 1);
  EXPECT_EQ(index.entry(1).pos, 2);
  EXPECT_EQ(index.entry(2).pos, 0);
  EXPECT_DOUBLE_EQ(*index.Find(2), 0.5);
}

TEST(InvertedIndexUpdateTest, UpsertReplacesExisting) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  index.Upsert(0, 0.95);  // moves to the top
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index.entry(0).pos, 0);
  EXPECT_DOUBLE_EQ(*index.Find(0), 0.95);
  index.Upsert(0, 0.95);  // no-op
  EXPECT_EQ(index.size(), 2u);
}

TEST(InvertedIndexUpdateTest, RemoveDeletesOrIgnores) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  index.Remove(0);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_FALSE(index.Find(0).has_value());
  index.Remove(42);  // absent: no-op
  EXPECT_EQ(index.size(), 1u);
}

TEST_F(IndexSetTest, RefreshColumnMatchesFullRebuild) {
  // Mutate a column of the cube, refresh incrementally, and compare every
  // list against a from-scratch build.
  cube_->Set(0, 1, 0, 99.0);
  cube_->Set(2, 1, 0, 55.0);   // group 2 becomes defined here
  cube_->Clear(1, 1, 0);       // group 1 becomes undefined here
  indices_->RefreshColumn(*cube_, 1, 0);
  IndexSet rebuilt = IndexSet::Build(*cube_);

  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    size_t n1;
    size_t n2;
    if (target == Dimension::kGroup) {
      n1 = 2;  // queries
      n2 = 2;  // locations
    } else if (target == Dimension::kQuery) {
      n1 = 3;  // groups
      n2 = 2;  // locations
    } else {
      n1 = 3;  // groups
      n2 = 2;  // queries
    }
    for (size_t p1 = 0; p1 < n1; ++p1) {
      for (size_t p2 = 0; p2 < n2; ++p2) {
        const InvertedIndex& incremental = indices_->ListAt(target, p1, p2);
        const InvertedIndex& fresh = rebuilt.ListAt(target, p1, p2);
        ASSERT_EQ(incremental.size(), fresh.size())
            << DimensionName(target) << " " << p1 << " " << p2;
        for (size_t i = 0; i < fresh.size(); ++i) {
          EXPECT_EQ(incremental.entry(i).pos, fresh.entry(i).pos);
          EXPECT_DOUBLE_EQ(incremental.entry(i).value, fresh.entry(i).value);
        }
      }
    }
  }
}

// --- One-pass build vs the per-family walks ------------------------------

// The build before the one-pass walk, kept as the reference: one walk per
// family, list by list, along the target axis.
std::vector<InvertedIndex> ThreeWalkFamily(const UnfairnessCube& cube,
                                           Dimension target) {
  Dimension d1 = target == Dimension::kGroup ? Dimension::kQuery
                                             : Dimension::kGroup;
  Dimension d2 = target == Dimension::kLocation ? Dimension::kQuery
                                                : Dimension::kLocation;
  const size_t n1 = cube.axis_size(d1);
  const size_t n2 = cube.axis_size(d2);
  const size_t nt = cube.axis_size(target);
  std::vector<InvertedIndex> family;
  for (size_t p1 = 0; p1 < n1; ++p1) {
    for (size_t p2 = 0; p2 < n2; ++p2) {
      std::vector<ScoredEntry> entries;
      for (size_t t = 0; t < nt; ++t) {
        size_t coords[3];
        coords[static_cast<size_t>(target)] = t;
        coords[static_cast<size_t>(d1)] = p1;
        coords[static_cast<size_t>(d2)] = p2;
        std::optional<double> v = cube.Get(coords[0], coords[1], coords[2]);
        if (v.has_value()) {
          entries.push_back(ScoredEntry{static_cast<int32_t>(t), *v});
        }
      }
      family.emplace_back(std::move(entries));
    }
  }
  return family;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Every list of `indices` equals the three-walk reference over `cube`:
// entry by entry (value bits included), Find on every target position plus
// one past the axis, and for a fresh build the dense extent too (Remove
// keeps a list's extent, so a refreshed list may be wider).
void ExpectMatchesThreeWalk(const IndexSet& indices,
                            const UnfairnessCube& cube,
                            bool fresh_build = true) {
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    std::vector<InvertedIndex> reference = ThreeWalkFamily(cube, target);
    std::vector<const InvertedIndex*> lists = indices.ListsFor(
        target, AxisSelector::All(), AxisSelector::All());
    ASSERT_EQ(lists.size(), reference.size()) << DimensionName(target);
    for (size_t i = 0; i < lists.size(); ++i) {
      const InvertedIndex& got = *lists[i];
      const InvertedIndex& want = reference[i];
      ASSERT_EQ(got.size(), want.size())
          << DimensionName(target) << " list " << i;
      if (fresh_build) {
        EXPECT_EQ(got.dense_size(), want.dense_size());
      }
      for (size_t e = 0; e < want.size(); ++e) {
        EXPECT_EQ(got.entry(e).pos, want.entry(e).pos)
            << DimensionName(target) << " list " << i << " entry " << e;
        EXPECT_EQ(Bits(got.entry(e).value), Bits(want.entry(e).value));
      }
      for (int32_t pos = 0;
           pos <= static_cast<int32_t>(cube.axis_size(target)); ++pos) {
        std::optional<double> a = got.Find(pos);
        std::optional<double> b = want.Find(pos);
        ASSERT_EQ(a.has_value(), b.has_value()) << "pos " << pos;
        if (a.has_value()) {
          EXPECT_EQ(Bits(*a), Bits(*b));
        }
      }
    }
  }
}

// Random cube over the given axis sizes: each cell present with
// `present_share`, values drawn from a small set (ties, negatives, both
// zeros) or uniformly from [-1, 1).
UnfairnessCube RandomCube(size_t g, size_t q, size_t l, double present_share,
                          bool few_values, Rng* rng) {
  auto ids = [](size_t n) {
    std::vector<int32_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<int32_t>(3 * i + 1);
    return v;
  };
  UnfairnessCube cube = *UnfairnessCube::Make(ids(g), ids(q), ids(l));
  static const double kFew[] = {-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0};
  for (size_t a = 0; a < g; ++a) {
    for (size_t b = 0; b < q; ++b) {
      for (size_t c = 0; c < l; ++c) {
        if (!rng->NextBernoulli(present_share)) continue;
        cube.Set(a, b, c, few_values ? kFew[rng->NextBelow(7)]
                                     : rng->NextDouble(-1.0, 1.0));
      }
    }
  }
  return cube;
}

TEST(IndexSetOnePassTest, MatchesThreeWalkOnRandomCubes) {
  Rng rng(20260415);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t g = 1 + rng.NextBelow(9);
    const size_t q = 1 + rng.NextBelow(7);
    const size_t l = 1 + rng.NextBelow(6);
    const double share = trial % 5 == 0 ? 1.0 : rng.NextDouble(0.0, 0.6);
    UnfairnessCube cube = RandomCube(g, q, l, share, trial % 2 == 0, &rng);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " axes " << g
                                    << "x" << q << "x" << l);
    ExpectMatchesThreeWalk(IndexSet::Build(cube), cube);
  }
}

TEST(IndexSetOnePassTest, OneWideAxesAndEmptyCube) {
  Rng rng(7);
  for (auto [g, q, l] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                         {1, 5, 1},
                         {6, 1, 1},
                         {1, 1, 9},
                         {4, 1, 3}}) {
    UnfairnessCube cube = RandomCube(g, q, l, 0.7, true, &rng);
    ExpectMatchesThreeWalk(IndexSet::Build(cube), cube);
    UnfairnessCube empty = RandomCube(g, q, l, 0.0, true, &rng);
    ASSERT_EQ(empty.num_present(), 0u);
    ExpectMatchesThreeWalk(IndexSet::Build(empty), empty);
  }
}

TEST(IndexSetOnePassTest, RefreshColumnAfterBuildMatchesThreeWalk) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t g = 1 + rng.NextBelow(8);
    const size_t q = 1 + rng.NextBelow(5);
    const size_t l = 1 + rng.NextBelow(5);
    UnfairnessCube cube = RandomCube(g, q, l, 0.5, trial % 2 == 0, &rng);
    IndexSet indices = IndexSet::Build(cube);
    // Rewrite one column: cells appear, change, tie and disappear.
    const size_t qp = rng.NextBelow(static_cast<uint32_t>(q));
    const size_t lp = rng.NextBelow(static_cast<uint32_t>(l));
    for (size_t a = 0; a < g; ++a) {
      if (rng.NextBernoulli(0.3)) {
        cube.Clear(a, qp, lp);
      } else {
        cube.Set(a, qp, lp, rng.NextBernoulli(0.5) ? 0.5 : -rng.NextDouble());
      }
    }
    indices.RefreshColumn(cube, qp, lp);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectMatchesThreeWalk(indices, cube, /*fresh_build=*/false);
  }
}

}  // namespace
}  // namespace fairjob
