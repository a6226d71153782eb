#include "market/taskrabbit_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "market/scoring.h"

namespace fairjob {
namespace {

TaskRabbitConfig SmallConfig() {
  TaskRabbitConfig config;
  config.num_workers = 240;
  config.max_cities = 4;
  config.max_subjobs_per_category = 2;
  config.target_query_count = 1000000;  // no exclusions at this scale
  return config;
}

TEST(ScoringModelTest, RequiresGenderAndEthnicity) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  EXPECT_FALSE(
      ScoringModel::Make(schema, MarketCalibration::PaperDefaults()).ok());
}

TEST(ScoringModelTest, RequiresPenaltiesForEveryValue) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("ethnicity", {"Asian", "Black", "Martian"}).ok());
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  EXPECT_FALSE(
      ScoringModel::Make(schema, MarketCalibration::PaperDefaults()).ok());
}

TEST(ScoringModelTest, CellPenaltyDecomposes) {
  AttributeSchema schema = TaskRabbitSchema();
  MarketCalibration cal = MarketCalibration::PaperDefaults();
  ScoringModel model = *ScoringModel::Make(schema, cal);
  // ethnicity=Asian(0), gender=Female(1).
  Demographics asian_female = {0, 1};
  EXPECT_NEAR(model.CellPenalty(asian_female, "Detroit, MI"),
              cal.ethnicity_penalty["Asian"] + cal.gender_penalty["Female"],
              1e-12);
}

TEST(ScoringModelTest, GenderFlipSwapsComponents) {
  AttributeSchema schema = TaskRabbitSchema();
  MarketCalibration cal = MarketCalibration::PaperDefaults();
  ScoringModel model = *ScoringModel::Make(schema, cal);
  Demographics white_female = {2, 1};
  Demographics white_male = {2, 0};
  // Chicago is a flip city: female gets the male component and vice versa.
  EXPECT_NEAR(model.CellPenalty(white_female, "Chicago, IL"),
              cal.ethnicity_penalty["White"] + cal.gender_penalty["Male"],
              1e-12);
  EXPECT_NEAR(model.CellPenalty(white_male, "Chicago, IL"),
              cal.ethnicity_penalty["White"] + cal.gender_penalty["Female"],
              1e-12);
}

TEST(ScoringModelTest, SeverityOrdersJobsAndCities) {
  AttributeSchema schema = TaskRabbitSchema();
  ScoringModel model =
      *ScoringModel::Make(schema, MarketCalibration::PaperDefaults());
  Demographics d = {1, 0};
  double handyman_birmingham =
      model.Severity("Mount TV", "Handyman", "Birmingham, UK", d);
  double delivery_chicago =
      model.Severity("Food Delivery", "Delivery", "Chicago, IL", d);
  EXPECT_GT(handyman_birmingham, delivery_chicago);
}

TEST(ScoringModelTest, EthnicityJobAdjustIsDirectAndCityScaled) {
  AttributeSchema schema = TaskRabbitSchema();
  MarketCalibration cal = MarketCalibration::PaperDefaults();
  ScoringModel model = *ScoringModel::Make(schema, cal);
  Demographics white = {2, 0};
  Demographics asian = {0, 0};
  // White|Lawn Mowing displaces Whites, scaled by city severity.
  double detroit = model.DirectAdjust("Lawn Mowing", "Detroit, MI", white);
  double chicago = model.DirectAdjust("Lawn Mowing", "Chicago, IL", white);
  EXPECT_GT(detroit, 0.0);
  EXPECT_NEAR(detroit / chicago,
              cal.city_severity["Detroit, MI"] / cal.city_severity["Chicago, IL"],
              1e-9);
  // No adjustment for other ethnicities / sub-jobs.
  EXPECT_DOUBLE_EQ(model.DirectAdjust("Lawn Mowing", "Detroit, MI", asian), 0.0);
  EXPECT_DOUBLE_EQ(model.DirectAdjust("Leaf Raking", "Detroit, MI", white), 0.0);
}

TEST(ScoringModelTest, CityJobAdjustShiftsSeverity) {
  AttributeSchema schema = TaskRabbitSchema();
  ScoringModel model =
      *ScoringModel::Make(schema, MarketCalibration::PaperDefaults());
  Demographics d = {1, 0};
  // Table 15's Bay Area organizing sub-jobs carry a positive severity bump.
  double adjusted = model.Severity("Organize Closet", "General Cleaning",
                                   "San Francisco Bay Area, CA", d);
  double plain = model.Severity("Deep Cleaning", "General Cleaning",
                                "San Francisco Bay Area, CA", d);
  EXPECT_GT(adjusted, plain);
}

TEST(ScoringModelTest, ScoreClampedToUnitInterval) {
  AttributeSchema schema = TaskRabbitSchema();
  ScoringModel model =
      *ScoringModel::Make(schema, MarketCalibration::PaperDefaults());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    double s = model.Score(rng.NextDouble(), "Mount TV", "Handyman",
                           "Birmingham, UK", {0, 1}, &rng);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(TaskRabbitSiteTest, FullScaleMetadata) {
  TaskRabbitConfig config;
  config.num_workers = 500;  // fewer workers, full geography
  Result<std::unique_ptr<SimulatedMarketplace>> site =
      BuildTaskRabbitSite(config);
  ASSERT_TRUE(site.ok());
  EXPECT_EQ((*site)->Cities().size(), 56u);
  EXPECT_EQ((*site)->offerings().size(), 96u);
  // The paper's 5,361 offered (city, job) query combinations.
  EXPECT_EQ((*site)->num_queries_offered(), 5361u);
}

TEST(TaskRabbitSiteTest, ExclusionsNeverTouchProtectedPairs) {
  TaskRabbitConfig config;
  config.num_workers = 100;
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  for (const char* job :
       {"Lawn Mowing", "Event Decorating", "Back To Organized",
        "Organize & Declutter", "Organize Closet"}) {
    for (const std::string& city : site->Cities()) {
      EXPECT_TRUE(site->IsOffered(job, city)) << job << " @ " << city;
    }
  }
}

TEST(TaskRabbitSiteTest, RankingsAreDeterministicAndCached) {
  std::unique_ptr<SimulatedMarketplace> site1 =
      *BuildTaskRabbitSite(SmallConfig());
  std::unique_ptr<SimulatedMarketplace> site2 =
      *BuildTaskRabbitSite(SmallConfig());
  std::string city = site1->Cities()[0];
  std::string job = site1->JobsIn(city)[0];
  Result<std::vector<size_t>> r1 = site1->RankFor(job, city);
  Result<std::vector<size_t>> r1_again = site1->RankFor(job, city);
  Result<std::vector<size_t>> r2 = site2->RankFor(job, city);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, *r1_again);
  EXPECT_EQ(*r1, *r2);
}

TEST(TaskRabbitSiteTest, PaginationConsistentWithRanking) {
  std::unique_ptr<SimulatedMarketplace> site =
      *BuildTaskRabbitSite(SmallConfig());
  std::string city = site->Cities()[1];
  std::string job = site->JobsIn(city)[0];
  std::vector<size_t> full = *site->RankFor(job, city);
  std::vector<std::string> paged;
  for (size_t page = 0;; ++page) {
    Result<ResultPage> p = site->FetchPage(job, city, page, 7);
    ASSERT_TRUE(p.ok());
    paged.insert(paged.end(), p->worker_names.begin(), p->worker_names.end());
    if (!p->has_more) break;
  }
  ASSERT_EQ(paged.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(paged[i], site->worker(full[i]).name);
  }
}

TEST(TaskRabbitSiteTest, ProfileAndTruthLookups) {
  std::unique_ptr<SimulatedMarketplace> site =
      *BuildTaskRabbitSite(SmallConfig());
  const SimWorker& w = site->worker(0);
  Result<RawProfile> profile = site->FetchProfile(w.name);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->picture_ref, w.picture_ref);
  EXPECT_EQ(*site->TrueDemographics(w.name), w.demographics);
  EXPECT_EQ(*site->TruthByPicture(w.picture_ref), w.demographics);
  EXPECT_FALSE(site->FetchProfile("ghost").ok());
  EXPECT_FALSE(site->TruthByPicture("ghost").ok());
}

TEST(TaskRabbitSiteTest, DemographicMixTracksConfiguredShares) {
  TaskRabbitConfig config;
  config.num_workers = 3311;
  config.max_cities = 4;
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  size_t males = 0;
  size_t white = 0;
  for (size_t i = 0; i < site->num_workers(); ++i) {
    const Demographics& d = site->worker(i).demographics;
    if (d[1] == 0) ++males;       // gender attr is index 1
    if (d[0] == 2) ++white;       // ethnicity White = 2
  }
  double male_share = static_cast<double>(males) / 3311.0;
  double white_share = static_cast<double>(white) / 3311.0;
  EXPECT_NEAR(male_share, 0.72, 0.03);   // Figure 7
  EXPECT_NEAR(white_share, 0.66, 0.03);  // Figure 8
}

TEST(TaskRabbitSiteTest, TransientFailuresSurfaceAsIOError) {
  TaskRabbitConfig config = SmallConfig();
  config.transient_failure_rate = 1.0;
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  std::string city = site->Cities()[0];
  std::string job = site->JobsIn(city)[0];
  Result<ResultPage> page = site->FetchPage(job, city, 0, 10);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIOError);
}

TEST(TaskRabbitDatasetTest, DirectDatasetMatchesSiteRankings) {
  TaskRabbitConfig config = SmallConfig();
  Result<TaskRabbitDataset> built = BuildTaskRabbitDataset(config);
  ASSERT_TRUE(built.ok());
  const MarketplaceDataset& ds = built->dataset;
  EXPECT_EQ(ds.num_workers(), config.num_workers);
  EXPECT_EQ(built->queries_offered, ds.num_rankings());
  EXPECT_EQ(built->subjobs_by_category.size(), 8u);

  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  std::string city = site->Cities()[2];
  std::string job = site->JobsIn(city)[1];
  std::vector<size_t> expected = *site->RankFor(job, city);
  QueryId q = *ds.queries().Find(job);
  LocationId l = *ds.locations().Find(city);
  const MarketRanking* ranking = ds.GetRanking(q, l);
  ASSERT_NE(ranking, nullptr);
  size_t n = std::min<size_t>(expected.size(), 50);
  ASSERT_EQ(ranking->workers.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ds.workers().NameOf(ranking->workers[i]),
              site->worker(expected[i]).name);
  }
}

TEST(TaskRabbitDatasetTest, LabelingNoiseChangesSomeDemographics) {
  TaskRabbitConfig config = SmallConfig();
  TaskRabbitDataset truth = *BuildTaskRabbitDataset(config, 0.0);
  TaskRabbitDataset noisy = *BuildTaskRabbitDataset(config, 0.45);
  size_t diffs = 0;
  for (size_t i = 0; i < truth.dataset.num_workers(); ++i) {
    if (truth.dataset.worker_demographics(static_cast<WorkerId>(i)) !=
        noisy.dataset.worker_demographics(static_cast<WorkerId>(i))) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0u);
  // Majority voting keeps most labels right even at 45% annotator error...
  // but not all.
  EXPECT_LT(diffs, truth.dataset.num_workers());
}

TEST(TaskRabbitSiteTest, IidPopulationAblationStillValid) {
  TaskRabbitConfig config = SmallConfig();
  config.stratified_population = false;
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  EXPECT_EQ(site->num_workers(), config.num_workers);
  // Global shares still roughly hold under i.i.d. draws.
  size_t males = 0;
  for (size_t i = 0; i < site->num_workers(); ++i) {
    if (site->worker(i).demographics[1] == 0) ++males;
  }
  EXPECT_NEAR(static_cast<double>(males) / config.num_workers, 0.72, 0.08);
  // But per-city compositions differ city-to-city (the lottery the
  // stratified default removes).
  std::unique_ptr<SimulatedMarketplace> stratified =
      *BuildTaskRabbitSite(SmallConfig());
  std::vector<size_t> city_female_counts(2, 0);
  for (size_t i = 0; i < stratified->num_workers(); ++i) {
    const SimWorker& w = stratified->worker(i);
    if (w.city_index < 2 && w.demographics[1] == 1) {
      ++city_female_counts[w.city_index];
    }
  }
  EXPECT_LE(static_cast<size_t>(
                std::abs(static_cast<long>(city_female_counts[0]) -
                         static_cast<long>(city_female_counts[1]))),
            1u);
}

TEST(TaskRabbitSiteTest, EpochChangesRankingsDeterministically) {
  std::unique_ptr<SimulatedMarketplace> site =
      *BuildTaskRabbitSite(SmallConfig());
  std::string city = site->Cities()[0];
  std::string job = site->JobsIn(city)[0];
  std::vector<size_t> epoch0 = *site->RankFor(job, city);
  site->SetEpoch(1);
  std::vector<size_t> epoch1 = *site->RankFor(job, city);
  EXPECT_NE(epoch0, epoch1);  // noise redrawn
  site->SetEpoch(0);
  EXPECT_EQ(*site->RankFor(job, city), epoch0);  // epochs reproducible
  // A second site replays the same epoch sequence identically.
  std::unique_ptr<SimulatedMarketplace> other =
      *BuildTaskRabbitSite(SmallConfig());
  other->SetEpoch(1);
  EXPECT_EQ(*other->RankFor(job, city), epoch1);
}

// Returning to an epoch redraws exactly its rankings, for every query and
// through pagination too, whatever was cached in between.
TEST(TaskRabbitSiteTest, ReturningToAnEpochRestoresEveryRanking) {
  std::unique_ptr<SimulatedMarketplace> site =
      *BuildTaskRabbitSite(SmallConfig());
  std::map<std::pair<std::string, std::string>, std::vector<size_t>> epoch0;
  for (const std::string& city : site->Cities()) {
    for (const std::string& job : site->JobsIn(city)) {
      epoch0[{job, city}] = *site->RankFor(job, city);
    }
  }
  site->SetEpoch(1);
  size_t changed = 0;
  for (const auto& [query, ranking] : epoch0) {
    changed += *site->RankFor(query.first, query.second) != ranking ? 1 : 0;
  }
  EXPECT_GT(changed, 0u);
  site->SetEpoch(0);
  for (const auto& [query, ranking] : epoch0) {
    EXPECT_EQ(*site->RankFor(query.first, query.second), ranking);
    Result<ResultPage> page = site->FetchPage(query.first, query.second, 0, 5);
    ASSERT_TRUE(page.ok());
    for (size_t i = 0; i < page->worker_names.size(); ++i) {
      EXPECT_EQ(page->worker_names[i], site->worker(ranking[i]).name);
    }
  }
}

// An excluded (city, sub-job) pair is NotFound on every path, before and
// after the offered pairs around it are ranked and cached.
TEST(TaskRabbitSiteTest, ExcludedPairIsNotFoundBeforeAndAfterCaching) {
  TaskRabbitConfig config;
  config.num_workers = 300;  // full geography: 5,361 of 5,376 pairs offered
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  std::vector<std::pair<std::string, std::string>> excluded;
  for (const std::string& city : site->Cities()) {
    std::vector<std::string> jobs = site->JobsIn(city);
    for (const JobOffering& offering : site->offerings()) {
      if (std::find(jobs.begin(), jobs.end(), offering.sub_job) == jobs.end()) {
        excluded.emplace_back(offering.sub_job, city);
      }
    }
  }
  ASSERT_EQ(excluded.size(), 5376u - 5361u);
  ASSERT_EQ(site->num_queries_offered(), 5361u);
  auto expect_not_found = [&site](const std::string& job,
                                  const std::string& city) {
    EXPECT_FALSE(site->IsOffered(job, city));
    Result<std::vector<size_t>> ranking = site->RankFor(job, city);
    ASSERT_FALSE(ranking.ok());
    EXPECT_EQ(ranking.status().code(), StatusCode::kNotFound);
    Result<ResultPage> page = site->FetchPage(job, city, 0, 10);
    ASSERT_FALSE(page.ok());
    EXPECT_EQ(page.status().code(), StatusCode::kNotFound);
  };
  for (const auto& [job, city] : excluded) expect_not_found(job, city);
  for (const std::string& city : site->Cities()) {
    for (const std::string& job : site->JobsIn(city)) {
      EXPECT_TRUE(site->IsOffered(job, city));
      EXPECT_TRUE(site->RankFor(job, city).ok());
    }
  }
  for (const auto& [job, city] : excluded) expect_not_found(job, city);
  expect_not_found("no such job", site->Cities()[0]);
  expect_not_found(site->offerings()[0].sub_job, "no such city");
}

// An exclusion key that names no (city, sub-job) pair excludes nothing and
// is not subtracted from the offered count.
TEST(TaskRabbitSiteTest, UnmatchedExclusionKeysExcludeNothing) {
  AttributeSchema schema = TaskRabbitSchema();
  ScoringModel scoring =
      *ScoringModel::Make(schema, MarketCalibration::PaperDefaults());
  SimWorker worker;
  worker.name = "w";
  worker.demographics = {0, 0};
  Result<SimulatedMarketplace> site = SimulatedMarketplace::Make(
      schema, {worker}, {"A", "B"}, {{"x", "cat"}, {"y", "cat"}},
      {"A|x", "Nowhere|x", "B|z", "B|x|y"}, std::move(scoring), {});
  ASSERT_TRUE(site.ok()) << site.status().ToString();
  EXPECT_EQ(site->JobsIn("A"), std::vector<std::string>{"y"});
  EXPECT_EQ(site->JobsIn("B"), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(site->num_queries_offered(), 3u);
  EXPECT_EQ(site->RankFor("x", "A").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*site->RankFor("x", "B"), std::vector<size_t>{});
}

TEST(TaskRabbitDatasetTest, BiasedCityRanksDiscriminatedGroupsLower) {
  // In the most severe city, Asian Female workers should land in the lower
  // half of rankings far more often than White Males.
  TaskRabbitConfig config;
  config.num_workers = 800;
  config.max_cities = 1;  // Birmingham, UK (severity 1.0) comes first
  config.max_subjobs_per_category = 1;
  config.target_query_count = 1000000;
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  std::string city = site->Cities()[0];
  ASSERT_EQ(city, "Birmingham, UK");

  double af_bottom = 0.0;
  double wm_bottom = 0.0;
  size_t af_total = 0;
  size_t wm_total = 0;
  for (const std::string& job : site->JobsIn(city)) {
    std::vector<size_t> ranking = *site->RankFor(job, city);
    for (size_t pos = 0; pos < ranking.size(); ++pos) {
      const Demographics& d = site->worker(ranking[pos]).demographics;
      bool bottom_half = pos >= ranking.size() / 2;
      if (d[0] == 0 && d[1] == 1) {  // Asian Female
        ++af_total;
        if (bottom_half) af_bottom += 1.0;
      }
      if (d[0] == 2 && d[1] == 0) {  // White Male
        ++wm_total;
        if (bottom_half) wm_bottom += 1.0;
      }
    }
  }
  ASSERT_GT(af_total, 0u);
  ASSERT_GT(wm_total, 0u);
  EXPECT_GT(af_bottom / af_total, wm_bottom / wm_total + 0.2);
}

}  // namespace
}  // namespace fairjob
