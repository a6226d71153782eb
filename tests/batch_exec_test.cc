#include "core/quantification_batch.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"

namespace fairjob {
namespace {

// Bitwise equality on doubles: NaN payloads and -0.0 vs 0.0 must match too.
bool SameBits(double a, double b) {
  uint64_t ba;
  uint64_t bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void ExpectIdentical(const Result<QuantificationResult>& batched,
                     const Result<QuantificationResult>& reference,
                     const std::string& label) {
  ASSERT_EQ(batched.ok(), reference.ok()) << label;
  if (!reference.ok()) {
    EXPECT_EQ(batched.status().code(), reference.status().code()) << label;
    EXPECT_EQ(batched.status().message(), reference.status().message())
        << label;
    return;
  }
  ASSERT_EQ(batched->answers.size(), reference->answers.size()) << label;
  for (size_t i = 0; i < reference->answers.size(); ++i) {
    EXPECT_EQ(batched->answers[i].id, reference->answers[i].id)
        << label << " answer " << i;
    EXPECT_TRUE(
        SameBits(batched->answers[i].value, reference->answers[i].value))
        << label << " answer " << i << ": " << batched->answers[i].value
        << " vs " << reference->answers[i].value;
  }
  const FaginStats& bs = batched->stats;
  const FaginStats& rs = reference->stats;
  EXPECT_EQ(bs.sorted_accesses, rs.sorted_accesses) << label;
  EXPECT_EQ(bs.random_accesses, rs.random_accesses) << label;
  EXPECT_EQ(bs.ids_scored, rs.ids_scored) << label;
  EXPECT_EQ(bs.rounds, rs.rounds) << label;
  EXPECT_EQ(bs.threshold_checks, rs.threshold_checks) << label;
}

// Batch ≡ N independent per-request runs, bitwise (answers, stats, errors).
void ExpectBatchMatchesReference(
    const UnfairnessCube& cube, const IndexSet& indices,
    const std::vector<QuantificationRequest>& requests,
    BatchExecStats* stats = nullptr) {
  std::vector<Result<QuantificationResult>> batched =
      SolveQuantificationBatch(cube, indices, requests, stats);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<QuantificationResult> reference =
        SolveQuantification(cube, indices, requests[i]);
    ExpectIdentical(batched[i], reference, "request " + std::to_string(i));
  }
}

// A cube with missing cells, negative values and duplicate aggregates so
// every policy/direction branch is exercised.
UnfairnessCube MakeRandomCube(Rng* rng, size_t groups, size_t queries,
                              size_t locations, double present_p = 0.85,
                              bool with_negatives = false) {
  std::vector<int32_t> group_ids;
  std::vector<int32_t> query_ids;
  std::vector<int32_t> location_ids;
  for (size_t g = 0; g < groups; ++g) {
    group_ids.push_back(static_cast<int32_t>(100 + g));
  }
  for (size_t q = 0; q < queries; ++q) {
    query_ids.push_back(static_cast<int32_t>(200 + q));
  }
  for (size_t l = 0; l < locations; ++l) {
    location_ids.push_back(static_cast<int32_t>(300 + l));
  }
  Result<UnfairnessCube> cube =
      UnfairnessCube::Make(group_ids, query_ids, location_ids);
  EXPECT_TRUE(cube.ok());
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries; ++q) {
      for (size_t l = 0; l < locations; ++l) {
        if (!rng->NextBernoulli(present_p)) continue;
        double value = rng->NextDouble();
        if (with_negatives && rng->NextBernoulli(0.3)) value = -value;
        cube->Set(g, q, l, value);
      }
    }
  }
  return std::move(*cube);
}

QuantificationRequest MakeRandomRequest(Rng* rng, const UnfairnessCube& cube) {
  static const Dimension kDims[3] = {Dimension::kGroup, Dimension::kQuery,
                                     Dimension::kLocation};
  static const TopKAlgorithm kAlgs[2] = {TopKAlgorithm::kThresholdAlgorithm,
                                         TopKAlgorithm::kScan};
  QuantificationRequest request;
  request.target = kDims[rng->NextBelow(3)];
  request.k = 1 + rng->NextBelow(6);
  request.direction = rng->NextBernoulli(0.7) ? RankDirection::kMostUnfair
                                              : RankDirection::kLeastUnfair;
  request.missing = rng->NextBernoulli(0.5) ? MissingCellPolicy::kSkip
                                            : MissingCellPolicy::kZero;
  request.algorithm = kAlgs[rng->NextBelow(2)];

  Dimension d1;
  Dimension d2;
  QuantificationOtherDims(request.target, &d1, &d2);
  auto random_selector = [&](Dimension d) {
    AxisSelector selector;
    size_t size = cube.axis_size(d);
    if (rng->NextBernoulli(0.4)) return selector;  // all
    size_t count = 1 + rng->NextBelow(static_cast<uint32_t>(size));
    for (size_t i = 0; i < count; ++i) {
      selector.positions.push_back(rng->NextBelow(
          static_cast<uint32_t>(size)));  // duplicates + any order
    }
    return selector;
  };
  request.agg1 = random_selector(d1);
  request.agg2 = random_selector(d2);
  if (rng->NextBernoulli(0.4)) {
    size_t size = cube.axis_size(request.target);
    size_t count = 1 + rng->NextBelow(static_cast<uint32_t>(size));
    for (size_t i = 0; i < count; ++i) {
      request.allowed_targets.push_back(
          static_cast<int32_t>(rng->NextBelow(static_cast<uint32_t>(size))));
    }
  }
  return request;
}

TEST(BatchExecTest, EmptyBatch) {
  Rng rng(11);
  UnfairnessCube cube = MakeRandomCube(&rng, 4, 3, 2);
  IndexSet indices = IndexSet::Build(cube);
  BatchExecStats stats;
  std::vector<Result<QuantificationResult>> results =
      SolveQuantificationBatch(cube, indices, {}, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST(BatchExecTest, SingleRequestEachAlgorithm) {
  Rng rng(12);
  UnfairnessCube cube = MakeRandomCube(&rng, 6, 4, 3);
  IndexSet indices = IndexSet::Build(cube);
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kScan}) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 3;
    request.missing = MissingCellPolicy::kZero;
    request.algorithm = algorithm;
    ExpectBatchMatchesReference(cube, indices, {request});
  }
}

// Both algorithms, both directions, kSkip and kZero, with and without
// allowed-target bitmaps, sharing one selector group: the headline shape.
TEST(BatchExecTest, MixedLanesOneGroupBitwise) {
  Rng rng(13);
  UnfairnessCube cube = MakeRandomCube(&rng, 12, 5, 4);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kScan}) {
    for (RankDirection direction :
         {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
      for (MissingCellPolicy missing :
           {MissingCellPolicy::kSkip, MissingCellPolicy::kZero}) {
        for (bool filtered : {false, true}) {
          QuantificationRequest request;
          request.target = Dimension::kGroup;
          request.k = 1 + rng.NextBelow(5);
          request.direction = direction;
          request.missing = missing;
          request.algorithm = algorithm;
          if (filtered) request.allowed_targets = {0, 2, 3, 5, 7, 11};
          requests.push_back(request);
        }
      }
    }
  }
  BatchExecStats stats;
  ExpectBatchMatchesReference(cube, indices, requests, &stats);
  // One selector group, every lane valid.
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.invalid, 0u);
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_GT(stats.lists_demanded, stats.lists_gathered);
}

TEST(BatchExecTest, PropertyRandomBatchesBitwise) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const bool negatives = (seed % 3) == 0;  // negative cells too
    const double present_p = (seed % 2) == 0 ? 1.0 : 0.8;
    UnfairnessCube cube =
        MakeRandomCube(&rng, 5 + rng.NextBelow(10), 2 + rng.NextBelow(5),
                       2 + rng.NextBelow(4), present_p, negatives);
    IndexSet indices = IndexSet::Build(cube);
    std::vector<QuantificationRequest> requests;
    const size_t batch = 20 + rng.NextBelow(20);
    for (size_t i = 0; i < batch; ++i) {
      requests.push_back(MakeRandomRequest(&rng, cube));
    }
    ExpectBatchMatchesReference(cube, indices, requests);
  }
}

// Selector sequences group verbatim: permutations and duplicates land in
// different groups (their list views differ), but the results still match
// the per-request reference bitwise.
TEST(BatchExecTest, DuplicateAndPermutedSelectors) {
  Rng rng(14);
  UnfairnessCube cube = MakeRandomCube(&rng, 8, 4, 3);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (const std::vector<size_t>& agg1 : std::vector<std::vector<size_t>>{
           {0, 1}, {1, 0}, {0, 0, 1}, {0, 1, 2, 3}, {}}) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 4;
    request.agg1.positions = agg1;
    request.algorithm = TopKAlgorithm::kScan;
    requests.push_back(request);
    request.algorithm = TopKAlgorithm::kThresholdAlgorithm;
    requests.push_back(request);
  }
  BatchExecStats stats;
  ExpectBatchMatchesReference(cube, indices, requests, &stats);
  // {0,1} and {1,0} are distinct sequences; {} ("all") distinct from
  // {0,1,2,3} even though it resolves the same axis.
  EXPECT_EQ(stats.groups, 5u);
}

TEST(BatchExecTest, ValidationErrorsMatchPerRequest) {
  Rng rng(15);
  UnfairnessCube cube = MakeRandomCube(&rng, 5, 3, 2);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;

  QuantificationRequest bad_selector;
  bad_selector.agg1 = AxisSelector::Single(99);
  requests.push_back(bad_selector);

  QuantificationRequest bad_allowed;
  bad_allowed.allowed_targets = {-1};
  requests.push_back(bad_allowed);

  QuantificationRequest zero_k;
  zero_k.k = 0;
  requests.push_back(zero_k);

  QuantificationRequest good;
  good.k = 2;
  requests.push_back(good);

  ExpectBatchMatchesReference(cube, indices, requests);
}

// k larger than the candidate set: every engine returns everything.
TEST(BatchExecTest, KLargerThanUniverse) {
  Rng rng(17);
  UnfairnessCube cube = MakeRandomCube(&rng, 4, 3, 2, /*present_p=*/0.6);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kScan}) {
    QuantificationRequest request;
    request.k = 100;
    request.missing = MissingCellPolicy::kZero;
    request.algorithm = algorithm;
    requests.push_back(request);
  }
  ExpectBatchMatchesReference(cube, indices, requests);
}

// Wide selector fan-out (72 lists over a 150-position universe): the shared
// pass must still be bitwise.
TEST(BatchExecTest, ParallelScoringThresholdBitwise) {
  Rng rng(18);
  UnfairnessCube cube = MakeRandomCube(&rng, 150, 9, 8, /*present_p=*/0.9);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kScan, TopKAlgorithm::kThresholdAlgorithm}) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 7;
    request.algorithm = algorithm;
    requests.push_back(request);
    request.allowed_targets = {1, 3, 5, 7, 9, 111, 149};
    requests.push_back(request);
  }
  ExpectBatchMatchesReference(cube, indices, requests);
}

TEST(BatchExecTest, DeterministicAcrossRuns) {
  Rng rng(19);
  UnfairnessCube cube = MakeRandomCube(&rng, 10, 4, 3);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (size_t i = 0; i < 16; ++i) {
    requests.push_back(MakeRandomRequest(&rng, cube));
  }
  std::vector<Result<QuantificationResult>> first =
      SolveQuantificationBatch(cube, indices, requests);
  std::vector<Result<QuantificationResult>> second =
      SolveQuantificationBatch(cube, indices, requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectIdentical(first[i], second[i], "rerun request " + std::to_string(i));
  }
}

// Amortization accounting: R requests over one selector group gather the
// lists once but demand them R times.
TEST(BatchExecTest, ExecStatsAmortization) {
  Rng rng(20);
  UnfairnessCube cube = MakeRandomCube(&rng, 8, 5, 4, /*present_p=*/1.0);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (size_t i = 0; i < 10; ++i) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 1 + i;
    request.algorithm = TopKAlgorithm::kScan;
    requests.push_back(request);
  }
  BatchExecStats stats;
  std::vector<Result<QuantificationResult>> results =
      SolveQuantificationBatch(cube, indices, requests, &stats);
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.lists_gathered, 20u);   // 5 queries x 4 locations
  EXPECT_EQ(stats.lists_demanded, 200u);  // 10 lanes x 20 lists
  EXPECT_EQ(stats.shared_scan_passes, 1u);
  EXPECT_EQ(stats.scan_lanes, 10u);
}

}  // namespace
}  // namespace fairjob
