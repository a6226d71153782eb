// Metamorphic properties of the framework: invariances that must hold for
// any input, checked on randomized instances.

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/comparison.h"
#include "core/fbox.h"

namespace fairjob {
namespace {

AttributeSchema Schema() {
  AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  EXPECT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  return schema;
}

struct RandomMarket {
  std::unique_ptr<MarketplaceDataset> data;
  std::unique_ptr<GroupSpace> space;
};

RandomMarket MakeRandomMarket(Rng* rng, size_t workers = 18, size_t queries = 3,
                              size_t locations = 2, bool with_scores = false) {
  RandomMarket market;
  market.data = std::make_unique<MarketplaceDataset>(Schema());
  market.space = std::make_unique<GroupSpace>(
      *GroupSpace::Enumerate(market.data->schema()));
  std::vector<WorkerId> ids;
  for (size_t i = 0; i < workers; ++i) {
    Demographics d = {static_cast<ValueId>(rng->NextBelow(3)),
                      static_cast<ValueId>(rng->NextBelow(2))};
    ids.push_back(*market.data->AddWorker("w" + std::to_string(i), d));
  }
  for (QueryId q = 0; q < static_cast<QueryId>(queries); ++q) {
    market.data->queries().GetOrAdd("q" + std::to_string(q));
    for (LocationId l = 0; l < static_cast<LocationId>(locations); ++l) {
      market.data->locations().GetOrAdd("l" + std::to_string(l));
      MarketRanking ranking;
      ranking.workers = ids;
      rng->Shuffle(ranking.workers);
      if (with_scores) {
        ranking.scores.resize(ids.size());
        double score = 1.0;
        for (double& s : ranking.scores) {
          score -= rng->NextDouble() * 0.1;
          s = std::max(score, 0.0);
        }
      }
      EXPECT_TRUE(market.data->SetRanking(q, l, std::move(ranking)).ok());
    }
  }
  return market;
}

// 1. Worker registration order is irrelevant: renaming/reordering the
// worker table while keeping each ranking's demographic sequence fixed
// leaves every unfairness value unchanged.
TEST(MetamorphicTest, WorkerRegistrationOrderIrrelevant) {
  Rng rng(1);
  RandomMarket original = MakeRandomMarket(&rng);

  // Rebuild with workers registered in reverse order but identical ranked
  // demographic sequences.
  MarketplaceDataset reordered(Schema());
  size_t n = original.data->num_workers();
  std::vector<WorkerId> remap(n);  // original id -> new id
  for (size_t i = n; i-- > 0;) {
    remap[i] = *reordered.AddWorker(
        "r" + std::to_string(i),
        original.data->worker_demographics(static_cast<WorkerId>(i)));
  }
  for (QueryId q = 0; q < 3; ++q) {
    reordered.queries().GetOrAdd("q" + std::to_string(q));
    for (LocationId l = 0; l < 2; ++l) {
      reordered.locations().GetOrAdd("l" + std::to_string(l));
      const MarketRanking* ranking = original.data->GetRanking(q, l);
      MarketRanking copy;
      for (WorkerId w : ranking->workers) copy.workers.push_back(remap[w]);
      ASSERT_TRUE(reordered.SetRanking(q, l, std::move(copy)).ok());
    }
  }

  for (MarketMeasure measure :
       {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    UnfairnessCube a =
        *BuildMarketplaceCube(*original.data, *original.space, measure);
    UnfairnessCube b =
        *BuildMarketplaceCube(reordered, *original.space, measure);
    ASSERT_EQ(a.num_present(), b.num_present());
    for (size_t g = 0; g < a.axis_size(Dimension::kGroup); ++g) {
      for (size_t q = 0; q < 3; ++q) {
        for (size_t l = 0; l < 2; ++l) {
          ASSERT_EQ(a.Get(g, q, l).has_value(), b.Get(g, q, l).has_value());
          if (a.Get(g, q, l).has_value()) {
            EXPECT_NEAR(*a.Get(g, q, l), *b.Get(g, q, l), 1e-12);
          }
        }
      }
    }
  }
}

// 2. A cube built over an axis subset equals the corresponding cells of the
// full cube.
TEST(MetamorphicTest, SubsetCubeMatchesFullCube) {
  Rng rng(2);
  RandomMarket market = MakeRandomMarket(&rng, 20, 4, 3);
  UnfairnessCube full =
      *BuildMarketplaceCube(*market.data, *market.space, MarketMeasure::kEmd);

  CubeAxes axes;
  axes.groups = {1, 4, 7};
  axes.queries = {0, 2};
  axes.locations = {1};
  UnfairnessCube subset = *BuildMarketplaceCube(
      *market.data, *market.space, MarketMeasure::kEmd, {}, axes);
  for (size_t gi = 0; gi < axes.groups.size(); ++gi) {
    for (size_t qi = 0; qi < axes.queries.size(); ++qi) {
      std::optional<double> sub = subset.Get(gi, qi, 0);
      std::optional<double> ref = full.Get(
          static_cast<size_t>(axes.groups[gi]),
          static_cast<size_t>(axes.queries[qi]),
          static_cast<size_t>(axes.locations[0]));
      ASSERT_EQ(sub.has_value(), ref.has_value());
      if (sub.has_value()) {
        EXPECT_NEAR(*sub, *ref, 1e-12);
      }
    }
  }
}

// 3. Duplicating an inverted list leaves the kSkip top-k unchanged (the
// average over present lists is duplication-invariant).
TEST(MetamorphicTest, DuplicatedListInvariantUnderSkipPolicy) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ScoredEntry> entries;
    for (int32_t id = 0; id < 30; ++id) {
      if (rng.NextBernoulli(0.8)) {
        entries.push_back({id, rng.NextDouble()});
      }
    }
    InvertedIndex list(entries);
    TopKOptions options;
    options.k = 5;
    options.missing = MissingCellPolicy::kSkip;
    const TopKAlgorithm ta = TopKAlgorithm::kThresholdAlgorithm;
    auto once = *RunTopK(ta, {&list}, options);
    auto twice = *RunTopK(ta, {&list, &list}, options);
    ASSERT_EQ(once.size(), twice.size());
    for (size_t i = 0; i < once.size(); ++i) {
      EXPECT_EQ(once[i].pos, twice[i].pos);
      EXPECT_NEAR(once[i].value, twice[i].value, 1e-12);
    }
  }
}

// 4. EMD is invariant under bin-aligned translation of the inputs.
TEST(MetamorphicTest, MarketplaceEmdInvariantUnderBinAlignedScoreShift) {
  Rng rng(4);
  RandomMarket market = MakeRandomMarket(&rng, 16, 2, 1, /*with_scores=*/true);
  // Compress scores into [0.2, 0.6] then shift by exactly two bins (0.2).
  MarketplaceDataset shifted(Schema());
  for (size_t i = 0; i < market.data->num_workers(); ++i) {
    ASSERT_TRUE(shifted
                    .AddWorker("s" + std::to_string(i),
                               market.data->worker_demographics(
                                   static_cast<WorkerId>(i)))
                    .ok());
  }
  for (QueryId q = 0; q < 2; ++q) {
    shifted.queries().GetOrAdd("q" + std::to_string(q));
    shifted.locations().GetOrAdd("l0");
    const MarketRanking* ranking = market.data->GetRanking(q, 0);
    MarketRanking original_compressed = *ranking;
    MarketRanking moved = *ranking;
    for (size_t i = 0; i < moved.scores.size(); ++i) {
      original_compressed.scores[i] = 0.2 + 0.4 * ranking->scores[i];
      moved.scores[i] = original_compressed.scores[i] + 0.2;
    }
    ASSERT_TRUE(
        market.data->SetRanking(q, 0, std::move(original_compressed)).ok());
    ASSERT_TRUE(shifted.SetRanking(q, 0, std::move(moved)).ok());
  }
  for (size_t g = 0; g < market.space->num_groups(); ++g) {
    for (QueryId q = 0; q < 2; ++q) {
      Result<double> a =
          MarketplaceUnfairness(*market.data, *market.space,
                                static_cast<GroupId>(g), q, 0,
                                MarketMeasure::kEmd);
      Result<double> b = MarketplaceUnfairness(shifted, *market.space,
                                               static_cast<GroupId>(g), q, 0,
                                               MarketMeasure::kEmd);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        EXPECT_NEAR(*a, *b, 1e-12);
      }
    }
  }
}

// 5. Comparison is antisymmetric: swapping r1/r2 swaps the per-row values
// and keeps the reversed set identical.
TEST(MetamorphicTest, ComparisonAntisymmetry) {
  Rng rng(5);
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1, 2}, {0, 1, 2, 3}, {0, 1});
  for (size_t g = 0; g < 3; ++g) {
    for (size_t q = 0; q < 4; ++q) {
      for (size_t l = 0; l < 2; ++l) {
        if (rng.NextBernoulli(0.85)) cube.Set(g, q, l, rng.NextDouble());
      }
    }
  }
  ComparisonRequest forward;
  forward.compare_dim = Dimension::kGroup;
  forward.r1_pos = 0;
  forward.r2_pos = 2;
  forward.breakdown_dim = Dimension::kQuery;
  ComparisonRequest backward = forward;
  std::swap(backward.r1_pos, backward.r2_pos);

  Result<ComparisonResult> f = SolveComparison(cube, forward);
  Result<ComparisonResult> b = SolveComparison(cube, backward);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(f->overall_d1, b->overall_d2, 1e-12);
  EXPECT_NEAR(f->overall_d2, b->overall_d1, 1e-12);
  ASSERT_EQ(f->rows.size(), b->rows.size());
  ASSERT_EQ(f->reversed.size(), b->reversed.size());
  for (size_t i = 0; i < f->rows.size(); ++i) {
    EXPECT_EQ(f->rows[i].breakdown_id, b->rows[i].breakdown_id);
    EXPECT_NEAR(f->rows[i].d1, b->rows[i].d2, 1e-12);
    EXPECT_EQ(f->rows[i].reversed, b->rows[i].reversed);
  }
}

// 6. Exposure is invariant under uniform positive scaling of the scores
// (both shares are ratios).
TEST(MetamorphicTest, ExposureInvariantUnderScoreScaling) {
  Rng rng(6);
  RandomMarket market = MakeRandomMarket(&rng, 14, 2, 1, /*with_scores=*/true);
  MarketplaceDataset scaled(Schema());
  for (size_t i = 0; i < market.data->num_workers(); ++i) {
    ASSERT_TRUE(scaled
                    .AddWorker("s" + std::to_string(i),
                               market.data->worker_demographics(
                                   static_cast<WorkerId>(i)))
                    .ok());
  }
  for (QueryId q = 0; q < 2; ++q) {
    scaled.queries().GetOrAdd("q" + std::to_string(q));
    scaled.locations().GetOrAdd("l0");
    MarketRanking copy = *market.data->GetRanking(q, 0);
    for (double& s : copy.scores) s *= 0.5;
    ASSERT_TRUE(scaled.SetRanking(q, 0, std::move(copy)).ok());
  }
  for (size_t g = 0; g < market.space->num_groups(); ++g) {
    Result<double> a =
        MarketplaceUnfairness(*market.data, *market.space,
                              static_cast<GroupId>(g), 0, 0,
                              MarketMeasure::kExposure);
    Result<double> b =
        MarketplaceUnfairness(scaled, *market.space, static_cast<GroupId>(g),
                              0, 0, MarketMeasure::kExposure);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_NEAR(*a, *b, 1e-12);
    }
  }
}

// 7. Quantification with k = axis size returns every defined value, sorted.
TEST(MetamorphicTest, FullKIsSortedAndComplete) {
  Rng rng(7);
  RandomMarket market = MakeRandomMarket(&rng);
  FBox fbox = *FBox::ForMarketplace(market.data.get(), market.space.get(),
                                    MarketMeasure::kEmd);
  size_t n = market.space->num_groups();
  std::vector<FBox::NamedAnswer> all = *fbox.TopK(Dimension::kGroup, n);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].value, all[i].value);
  }
  std::vector<FBox::NamedAnswer> least =
      *fbox.TopK(Dimension::kGroup, n, RankDirection::kLeastUnfair);
  ASSERT_EQ(all.size(), least.size());
  // Both directions return the same value multiset, mirrored (names may
  // differ at exact ties).
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(all[i].value, least[least.size() - 1 - i].value, 1e-12);
  }
}

}  // namespace
}  // namespace fairjob
