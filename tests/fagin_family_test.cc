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

Result<std::vector<ScoredEntry>> Fa(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr) {
  return RunTopK(TopKAlgorithm::kFA, lists, options, stats);
}

Result<std::vector<ScoredEntry>> Nra(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr) {
  return RunTopK(TopKAlgorithm::kNRA, lists, options, stats);
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
  EXPECT_STREQ(TopKAlgorithmName(TopKAlgorithm::kFA), "FA");
  EXPECT_STREQ(TopKAlgorithmName(TopKAlgorithm::kNRA), "NRA");
  EXPECT_STREQ(TopKAlgorithmName(TopKAlgorithm::kScan), "scan");
}

TEST(TopKFATest, ValidatesInput) {
  InvertedIndex list({{0, 1.0}});
  TopKOptions options;
  options.k = 0;
  EXPECT_FALSE(Fa({&list}, options).ok());
  options.k = 1;
  EXPECT_FALSE(Fa({}, options).ok());
}

TEST(TopKFATest, SimpleTopK) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.2}, {1, 0.8}, {2, 0.5}});
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.4}, {1, 0.6}, {2, 0.1}});
  TopKOptions options;
  options.k = 2;
  Result<std::vector<ScoredEntry>> top = Fa(Pointers(lists), options);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].pos, 1);
  EXPECT_DOUBLE_EQ((*top)[0].value, 0.7);
  // ids 0 and 2 tie at 0.3; ties break toward the smaller position.
  EXPECT_EQ((*top)[1].pos, 0);
  EXPECT_DOUBLE_EQ((*top)[1].value, 0.3);
}

TEST(TopKFATest, StopsEarlyOnSkewedLists) {
  std::vector<ScoredEntry> entries;
  for (int32_t i = 0; i < 500; ++i) entries.push_back({i, 1.0 / (1.0 + i)});
  std::vector<InvertedIndex> lists;
  lists.emplace_back(entries);
  lists.emplace_back(entries);
  TopKOptions options;
  options.k = 3;
  options.missing = MissingCellPolicy::kZero;
  FaginStats stats;
  Result<std::vector<ScoredEntry>> top =
      Fa(Pointers(lists), options, &stats);
  ASSERT_TRUE(top.ok());
  // Identical lists: 3 complete ids after 3 rounds.
  EXPECT_LE(stats.sorted_accesses, 10u);
  EXPECT_EQ((*top)[0].pos, 0);
}

TEST(TopKNRATest, RejectsUnsupportedModes) {
  InvertedIndex list({{0, 1.0}});
  TopKOptions options;
  options.k = 1;
  options.missing = MissingCellPolicy::kSkip;
  EXPECT_FALSE(Nra({&list}, options).ok());
  options.missing = MissingCellPolicy::kZero;
  options.direction = RankDirection::kLeastUnfair;
  EXPECT_FALSE(Nra({&list}, options).ok());
}

TEST(TopKNRATest, SimpleTopK) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.9}, {1, 0.8}, {2, 0.1}});
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.7}, {1, 0.2}, {2, 0.3}});
  TopKOptions options;
  options.k = 1;
  options.missing = MissingCellPolicy::kZero;
  Result<std::vector<ScoredEntry>> top = Nra(Pointers(lists), options);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_EQ((*top)[0].pos, 0);
  EXPECT_DOUBLE_EQ((*top)[0].value, 0.8);  // exact aggregate, not a bound
}

TEST(TopKNRATest, TerminatesEarlyOnSkewedLists) {
  std::vector<ScoredEntry> entries;
  for (int32_t i = 0; i < 2000; ++i) entries.push_back({i, 1.0 / (1.0 + i)});
  std::vector<InvertedIndex> lists;
  lists.emplace_back(entries);
  lists.emplace_back(entries);
  TopKOptions options;
  options.k = 2;
  options.missing = MissingCellPolicy::kZero;
  FaginStats stats;
  Result<std::vector<ScoredEntry>> top =
      Nra(Pointers(lists), options, &stats);
  ASSERT_TRUE(top.ok());
  EXPECT_LT(stats.sorted_accesses, 100u);
  EXPECT_EQ((*top)[0].pos, 0);
  EXPECT_EQ((*top)[1].pos, 1);
}

TEST(TopKNRATest, RejectsTooManyLists) {
  std::vector<InvertedIndex> lists;
  for (int i = 0; i < 65; ++i) {
    lists.emplace_back(std::vector<ScoredEntry>{{0, 0.5}});
  }
  TopKOptions options;
  options.k = 1;
  options.missing = MissingCellPolicy::kZero;
  EXPECT_FALSE(Nra(Pointers(lists), options).ok());
}

// The whole family must agree with the scan (up to ties) wherever each
// member's contract applies.
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
    options.missing = MissingCellPolicy::kZero;  // NRA's only mode

    Result<std::vector<ScoredEntry>> got =
        RunTopK(algorithm, Pointers(lists), options);
    Result<std::vector<ScoredEntry>> want =
        RunTopK(TopKAlgorithm::kScan, Pointers(lists), options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size()) << "trial " << trial;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_NEAR((*got)[i].value, (*want)[i].value, 1e-12)
          << TopKAlgorithmName(algorithm) << " trial " << trial << " rank "
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsDensities, FaginFamilyEquivalenceTest,
    ::testing::Combine(::testing::Values(0, 1, 2),  // TA, FA, NRA
                       ::testing::Values(1.0, 0.6)));

// FA under kSkip (no early stop) and both directions still matches the scan.
TEST(TopKFATest, SkipPolicyAndBottomKMatchScan) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<InvertedIndex> lists = RandomLists(30, 4, 0.5, &rng);
    for (RankDirection dir :
         {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
      TopKOptions options;
      options.k = 4;
      options.direction = dir;
      options.missing = MissingCellPolicy::kSkip;
      Result<std::vector<ScoredEntry>> fa = Fa(Pointers(lists), options);
      Result<std::vector<ScoredEntry>> scan =
          RunTopK(TopKAlgorithm::kScan, Pointers(lists), options);
      ASSERT_TRUE(fa.ok());
      ASSERT_TRUE(scan.ok());
      ASSERT_EQ(fa->size(), scan->size());
      for (size_t i = 0; i < fa->size(); ++i) {
        EXPECT_NEAR((*fa)[i].value, (*scan)[i].value, 1e-12);
      }
    }
  }
}

TEST(FaginFamilyQuantificationTest, RequestDispatchesAlgorithm) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1, 2}, {0, 1}, {0});
  for (size_t g = 0; g < 3; ++g) {
    for (size_t q = 0; q < 2; ++q) {
      cube.Set(g, q, 0, 0.1 * static_cast<double>(g) + 0.01 * q);
    }
  }
  IndexSet indices = IndexSet::Build(cube);
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
        TopKAlgorithm::kNRA, TopKAlgorithm::kScan}) {
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
