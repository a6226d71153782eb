#include "core/data_model.h"

#include <gtest/gtest.h>

namespace fairjob {
namespace {

AttributeSchema Schema() {
  AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  EXPECT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  return schema;
}

TEST(VocabularyTest, GetOrAddAssignsDenseIds) {
  Vocabulary v;
  EXPECT_EQ(v.GetOrAdd("a"), 0);
  EXPECT_EQ(v.GetOrAdd("b"), 1);
  EXPECT_EQ(v.GetOrAdd("a"), 0);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.NameOf(1), "b");
}

TEST(VocabularyTest, FindUnknownFails) {
  Vocabulary v;
  v.GetOrAdd("x");
  EXPECT_EQ(*v.Find("x"), 0);
  EXPECT_FALSE(v.Find("y").ok());
}

TEST(VocabularyTest, LooksUpStringViewsWithoutTerminator) {
  Vocabulary v;
  const std::string text = "alphabeta";
  std::string_view alpha(text.data(), 5);
  std::string_view beta(text.data() + 5, 4);
  EXPECT_EQ(v.GetOrAdd(alpha), 0);
  EXPECT_EQ(v.GetOrAdd(beta), 1);
  EXPECT_EQ(v.GetOrAdd("alpha"), 0);
  EXPECT_EQ(*v.Find("beta"), 1);
  EXPECT_EQ(*v.Find(std::string_view(text.data(), 5)), 0);
  EXPECT_FALSE(v.Find(std::string_view(text.data(), 4)).ok());
  EXPECT_EQ(v.NameOf(1), "beta");
}

TEST(MarketplaceDatasetTest, AddWorkerValidates) {
  MarketplaceDataset ds(Schema());
  EXPECT_TRUE(ds.AddWorker("w1", {0, 1}).ok());
  EXPECT_FALSE(ds.AddWorker("w2", {0}).ok());       // bad arity
  EXPECT_FALSE(ds.AddWorker("w1", {0, 0}).ok());    // duplicate name
  EXPECT_EQ(ds.num_workers(), 1u);
  EXPECT_EQ(ds.worker_demographics(0), (Demographics{0, 1}));
}

TEST(MarketplaceDatasetTest, SetRankingValidatesWorkers) {
  MarketplaceDataset ds(Schema());
  ASSERT_TRUE(ds.AddWorker("w1", {0, 0}).ok());
  MarketRanking bad_worker;
  bad_worker.workers = {0, 7};
  EXPECT_FALSE(ds.SetRanking(0, 0, bad_worker).ok());
  MarketRanking dup;
  dup.workers = {0, 0};
  EXPECT_FALSE(ds.SetRanking(0, 0, dup).ok());
}

// The validation error names the first offending entry in list order,
// whichever of a repeat and an unknown id comes first.
TEST(MarketplaceDatasetTest, ValidateRankingNamesTheFirstOffender) {
  MarketplaceDataset ds(Schema());
  ASSERT_TRUE(ds.AddWorker("w0", {0, 0}).ok());
  ASSERT_TRUE(ds.AddWorker("w1", {1, 1}).ok());
  ASSERT_TRUE(ds.AddWorker("w2", {2, 0}).ok());
  MarketRanking ranking;
  ranking.workers = {1, 0, 1, 9};
  EXPECT_EQ(ds.ValidateRanking(ranking).message(),
            "ranking lists worker 1 twice");
  ranking.workers = {1, 9, 0, 1};
  EXPECT_EQ(ds.ValidateRanking(ranking).message(),
            "ranking references unknown worker id 9");
  ranking.workers = {2, -1, 2};
  EXPECT_EQ(ds.ValidateRanking(ranking).message(),
            "ranking references unknown worker id -1");
  ranking.workers = {2, 0, 1};
  EXPECT_TRUE(ds.ValidateRanking(ranking).ok());
  ranking.workers.clear();
  EXPECT_TRUE(ds.ValidateRanking(ranking).ok());
  EXPECT_EQ(ds.SetRanking(0, 0, MarketRanking{{0, 3, 0}, {}}).message(),
            "ranking references unknown worker id 3");
}

TEST(MarketplaceDatasetTest, SetRankingValidatesScoreLength) {
  MarketplaceDataset ds(Schema());
  ASSERT_TRUE(ds.AddWorker("w1", {0, 0}).ok());
  ASSERT_TRUE(ds.AddWorker("w2", {1, 1}).ok());
  MarketRanking r;
  r.workers = {0, 1};
  r.scores = {0.9};
  EXPECT_FALSE(ds.SetRanking(0, 0, r).ok());
  r.scores = {0.9, 0.5};
  EXPECT_TRUE(ds.SetRanking(0, 0, r).ok());
}

TEST(MarketplaceDatasetTest, GetRankingRoundTrip) {
  MarketplaceDataset ds(Schema());
  ASSERT_TRUE(ds.AddWorker("w1", {0, 0}).ok());
  QueryId q = ds.queries().GetOrAdd("Cleaning");
  LocationId l = ds.locations().GetOrAdd("NYC");
  MarketRanking r;
  r.workers = {0};
  ASSERT_TRUE(ds.SetRanking(q, l, r).ok());
  const MarketRanking* got = ds.GetRanking(q, l);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->workers, (std::vector<WorkerId>{0}));
  EXPECT_EQ(ds.GetRanking(q, l + 1), nullptr);
  EXPECT_EQ(ds.num_rankings(), 1u);
}

TEST(MarketplaceDatasetTest, OverwritingRankingReplaces) {
  MarketplaceDataset ds(Schema());
  ASSERT_TRUE(ds.AddWorker("w1", {0, 0}).ok());
  ASSERT_TRUE(ds.AddWorker("w2", {1, 0}).ok());
  MarketRanking r1;
  r1.workers = {0};
  MarketRanking r2;
  r2.workers = {1, 0};
  ASSERT_TRUE(ds.SetRanking(0, 0, r1).ok());
  ASSERT_TRUE(ds.SetRanking(0, 0, r2).ok());
  EXPECT_EQ(ds.GetRanking(0, 0)->workers.size(), 2u);
  EXPECT_EQ(ds.num_rankings(), 1u);
}

TEST(SearchDatasetTest, AddUserValidates) {
  SearchDataset ds(Schema());
  EXPECT_TRUE(ds.AddUser("u1", {2, 1}).ok());
  EXPECT_FALSE(ds.AddUser("u1", {0, 0}).ok());
  EXPECT_FALSE(ds.AddUser("u2", {9, 0}).ok());
  EXPECT_EQ(ds.num_users(), 1u);
}

TEST(SearchDatasetTest, AddObservationValidates) {
  SearchDataset ds(Schema());
  ASSERT_TRUE(ds.AddUser("u1", {0, 0}).ok());
  EXPECT_FALSE(ds.AddObservation(0, 0, {5, {1, 2}}).ok());  // unknown user
  EXPECT_FALSE(ds.AddObservation(0, 0, {0, {}}).ok());      // empty list
  EXPECT_FALSE(ds.AddObservation(0, 0, {0, {1, 1}}).ok());  // duplicate doc
  EXPECT_TRUE(ds.AddObservation(0, 0, {0, {1, 2}}).ok());
}

TEST(SearchDatasetTest, ValidationNamesTheFirstRepeatedDocument) {
  SearchDataset ds(Schema());
  ASSERT_TRUE(ds.AddUser("u1", {0, 0}).ok());
  EXPECT_EQ(ds.ValidateObservations({{0, {3, -2, 5, -2, 3}}}).message(),
            "result list contains document -2 twice");
  EXPECT_EQ(ds.ValidateObservations({{0, {7, 4}}, {0, {4, 7, 4}}}).message(),
            "result list contains document 4 twice");
  EXPECT_TRUE(ds.ValidateObservations({{0, {-3, 0, 9}}}).ok());
}

TEST(SearchDatasetTest, MultipleObservationsPerCellAccumulate) {
  SearchDataset ds(Schema());
  ASSERT_TRUE(ds.AddUser("u1", {0, 0}).ok());
  ASSERT_TRUE(ds.AddUser("u2", {1, 1}).ok());
  ASSERT_TRUE(ds.AddObservation(3, 4, {0, {1, 2}}).ok());
  ASSERT_TRUE(ds.AddObservation(3, 4, {1, {2, 3}}).ok());
  ASSERT_TRUE(ds.AddObservation(3, 4, {0, {5, 6}}).ok());  // same user again
  const auto* obs = ds.GetObservations(3, 4);
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->size(), 3u);
  EXPECT_EQ(ds.GetObservations(3, 5), nullptr);
  EXPECT_EQ(ds.num_observation_cells(), 1u);
}

TEST(QueryLocationTest, HashAndEquality) {
  QueryLocation a{1, 2};
  QueryLocation b{1, 2};
  QueryLocation c{2, 1};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  QueryLocation::Hash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));
}


TEST(SearchDatasetTest, ObservedPairsSortedAndComplete) {
  SearchDataset ds(Schema());
  ASSERT_TRUE(ds.AddUser("u", {0, 0}).ok());
  ASSERT_TRUE(ds.AddObservation(2, 1, {0, {1}}).ok());
  ASSERT_TRUE(ds.AddObservation(0, 3, {0, {1}}).ok());
  ASSERT_TRUE(ds.AddObservation(0, 1, {0, {1}}).ok());
  std::vector<QueryLocation> pairs = ds.ObservedPairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_TRUE(pairs[0] == (QueryLocation{0, 1}));
  EXPECT_TRUE(pairs[1] == (QueryLocation{0, 3}));
  EXPECT_TRUE(pairs[2] == (QueryLocation{2, 1}));
}

}  // namespace
}  // namespace fairjob
