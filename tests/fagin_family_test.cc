#include "core/fagin.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "core/quantification.h"

namespace fairjob {
namespace {

std::vector<const InvertedIndex*> Pointers(
    const std::vector<InvertedIndex>& lists) {
  std::vector<const InvertedIndex*> out;
  for (const InvertedIndex& list : lists) out.push_back(&list);
  return out;
}

std::vector<InvertedIndex> RandomLists(size_t universe, size_t num_lists,
                                       double density, Rng* rng) {
  std::vector<InvertedIndex> lists;
  for (size_t l = 0; l < num_lists; ++l) {
    std::vector<ScoredEntry> entries;
    for (size_t id = 0; id < universe; ++id) {
      if (rng->NextBernoulli(density)) {
        double v = std::floor(rng->NextDouble() * 20.0) / 20.0;
        entries.push_back({static_cast<int32_t>(id), v});
      }
    }
    lists.emplace_back(std::move(entries));
  }
  return lists;
}

TEST(TopKAlgorithmTest, NamesAreStable) {
  EXPECT_STREQ(TopKAlgorithmName(TopKAlgorithm::kThresholdAlgorithm), "TA");
  EXPECT_STREQ(TopKAlgorithmName(TopKAlgorithm::kScan), "scan");
}

// TA must return the scan's values, rank by rank, on random lists.
class FaginFamilyEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FaginFamilyEquivalenceTest, AllAlgorithmsMatchScan) {
  auto [algo_i, density] = GetParam();
  TopKAlgorithm algorithm = static_cast<TopKAlgorithm>(algo_i);

  Rng rng(static_cast<uint64_t>(algo_i * 1000) +
          static_cast<uint64_t>(density * 100));
  for (int trial = 0; trial < 15; ++trial) {
    size_t universe = 5 + rng.NextBelow(40);
    size_t num_lists = 1 + rng.NextBelow(6);
    std::vector<InvertedIndex> lists =
        RandomLists(universe, num_lists, density, &rng);
    TopKOptions options;
    options.k = 1 + rng.NextBelow(8);
    options.missing = MissingCellPolicy::kZero;

    Result<std::vector<ScoredEntry>> got =
        RunTopK(algorithm, Pointers(lists), options);
    Result<std::vector<ScoredEntry>> want =
        RunTopK(TopKAlgorithm::kScan, Pointers(lists), options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size()) << "trial " << trial;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].value, (*want)[i].value)
          << TopKAlgorithmName(algorithm) << " trial " << trial << " rank "
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsDensities, FaginFamilyEquivalenceTest,
    ::testing::Combine(::testing::Values(0),  // TA
                       ::testing::Values(1.0, 0.6)));

TEST(FaginFamilyQuantificationTest, RequestDispatchesAlgorithm) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1, 2}, {0, 1}, {0});
  for (size_t g = 0; g < 3; ++g) {
    for (size_t q = 0; q < 2; ++q) {
      cube.Set(g, q, 0, 0.1 * static_cast<double>(g) + 0.01 * q);
    }
  }
  IndexSet indices = IndexSet::Build(cube);
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kScan}) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 2;
    request.missing = MissingCellPolicy::kZero;
    request.algorithm = algorithm;
    Result<QuantificationResult> result =
        SolveQuantification(cube, indices, request);
    ASSERT_TRUE(result.ok()) << TopKAlgorithmName(algorithm);
    ASSERT_EQ(result->answers.size(), 2u);
    EXPECT_EQ(result->answers[0].id, 2) << TopKAlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace fairjob
