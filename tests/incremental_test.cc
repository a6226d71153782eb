// Differential suite for incremental cube maintenance: any sequence of
// UpsertCrawlBatch / UpsertStudySnapshot calls must leave the maintainer's
// cube bitwise identical (presence + double bit patterns) to a cold rebuild
// over the same mutated dataset, its indices identical to IndexSet::Build,
// and its epochs bumped for exactly the columns whose values changed — the
// property the serving cache's survival arithmetic rests on.

#include "serve/incremental.h"

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/indices.h"
#include "serve/cache_key.h"
#include "serve/quantification_service.h"

namespace fairjob {
namespace {

constexpr size_t kQueries = 5;
constexpr size_t kLocations = 3;
constexpr size_t kWorkers = 20;
constexpr size_t kUsers = 16;

AttributeSchema TwoAttributeSchema() {
  AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  EXPECT_TRUE(schema.AddAttribute("ethnicity", {"A", "B", "C"}).ok());
  return schema;
}

MarketRanking RandomRanking(Rng& rng, bool with_scores) {
  MarketRanking ranking;
  std::vector<WorkerId> pool(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) pool[w] = static_cast<WorkerId>(w);
  rng.Shuffle(pool);
  size_t length = 3 + rng.NextBelow(kWorkers - 3);
  ranking.workers.assign(pool.begin(), pool.begin() + length);
  if (with_scores) {
    double score = 1.0;
    for (size_t i = 0; i < length; ++i) {
      score -= rng.NextDouble() / length;
      ranking.scores.push_back(score);
    }
  }
  return ranking;
}

MarketplaceDataset MakeMarketplace(uint64_t seed) {
  MarketplaceDataset data(TwoAttributeSchema());
  Rng rng(seed);
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(data.AddWorker("w" + std::to_string(w),
                               {static_cast<int32_t>(rng.NextBelow(2)),
                                static_cast<int32_t>(rng.NextBelow(3))})
                    .ok());
  }
  for (size_t q = 0; q < kQueries; ++q) {
    data.queries().GetOrAdd("query" + std::to_string(q));
  }
  for (size_t l = 0; l < kLocations; ++l) {
    data.locations().GetOrAdd("loc" + std::to_string(l));
  }
  // Most cells observed; a few left missing to exercise presence changes.
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      if (rng.NextBelow(5) == 0) continue;
      EXPECT_TRUE(data.SetRanking(static_cast<QueryId>(q),
                                  static_cast<LocationId>(l),
                                  RandomRanking(rng, rng.NextBernoulli(0.5)))
                      .ok());
    }
  }
  return data;
}

std::vector<SearchObservation> RandomObservations(Rng& rng) {
  std::vector<SearchObservation> observations;
  size_t count = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < count; ++i) {
    SearchObservation obs;
    obs.user = static_cast<UserId>(rng.NextBelow(kUsers));
    std::vector<int32_t> docs(12);
    for (size_t d = 0; d < docs.size(); ++d) docs[d] = static_cast<int32_t>(d);
    rng.Shuffle(docs);
    docs.resize(4 + rng.NextBelow(8));
    obs.results = std::move(docs);
    observations.push_back(std::move(obs));
  }
  return observations;
}

SearchDataset MakeSearch(uint64_t seed) {
  SearchDataset data(TwoAttributeSchema());
  Rng rng(seed);
  for (size_t u = 0; u < kUsers; ++u) {
    EXPECT_TRUE(data.AddUser("u" + std::to_string(u),
                             {static_cast<int32_t>(rng.NextBelow(2)),
                              static_cast<int32_t>(rng.NextBelow(3))})
                    .ok());
  }
  for (size_t q = 0; q < kQueries; ++q) {
    data.queries().GetOrAdd("term" + std::to_string(q));
  }
  for (size_t l = 0; l < kLocations; ++l) {
    data.locations().GetOrAdd("loc" + std::to_string(l));
  }
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      if (rng.NextBelow(5) == 0) continue;
      for (SearchObservation& obs : RandomObservations(rng)) {
        EXPECT_TRUE(data.AddObservation(static_cast<QueryId>(q),
                                        static_cast<LocationId>(l),
                                        std::move(obs))
                        .ok());
      }
    }
  }
  return data;
}

bool BitwiseEqual(const std::optional<double>& a,
                  const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  uint64_t ba;
  uint64_t bb;
  std::memcpy(&ba, &*a, sizeof(ba));
  std::memcpy(&bb, &*b, sizeof(bb));
  return ba == bb;
}

void ExpectCubesBitwiseEqual(const UnfairnessCube& actual,
                             const UnfairnessCube& expected,
                             const char* context) {
  ASSERT_EQ(actual.axis_size(Dimension::kGroup),
            expected.axis_size(Dimension::kGroup));
  ASSERT_EQ(actual.axis_size(Dimension::kQuery),
            expected.axis_size(Dimension::kQuery));
  ASSERT_EQ(actual.axis_size(Dimension::kLocation),
            expected.axis_size(Dimension::kLocation));
  for (size_t g = 0; g < actual.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < actual.axis_size(Dimension::kQuery); ++q) {
      for (size_t l = 0; l < actual.axis_size(Dimension::kLocation); ++l) {
        EXPECT_TRUE(BitwiseEqual(actual.Get(g, q, l), expected.Get(g, q, l)))
            << context << " cell (" << g << "," << q << "," << l << ")";
      }
    }
  }
  // The two digests must collide too — this is what keeps the snapshot
  // lineage meaningful across the incremental path.
  EXPECT_EQ(FingerprintCube(actual), FingerprintCube(expected)) << context;
}

void ExpectIndicesMatchCube(const IndexSet& actual,
                            const UnfairnessCube& cube, const char* context) {
  IndexSet fresh = IndexSet::Build(cube);
  size_t sizes[3] = {cube.axis_size(Dimension::kGroup),
                     cube.axis_size(Dimension::kQuery),
                     cube.axis_size(Dimension::kLocation)};
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    size_t o1 = sizes[(static_cast<size_t>(target) + 1) % 3];
    size_t o2 = sizes[(static_cast<size_t>(target) + 2) % 3];
    // ListAt takes the two non-target axes in ascending Dimension order.
    if (target == Dimension::kQuery) o1 = sizes[0], o2 = sizes[2];
    if (target == Dimension::kLocation) o1 = sizes[0], o2 = sizes[1];
    if (target == Dimension::kGroup) o1 = sizes[1], o2 = sizes[2];
    for (size_t a = 0; a < o1; ++a) {
      for (size_t b = 0; b < o2; ++b) {
        const InvertedIndex& got = actual.ListAt(target, a, b);
        const InvertedIndex& want = fresh.ListAt(target, a, b);
        ASSERT_EQ(got.size(), want.size())
            << context << " list (" << DimensionName(target) << "," << a << ","
            << b << ")";
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got.entry(i) == want.entry(i))
              << context << " list (" << DimensionName(target) << "," << a
              << "," << b << ") entry " << i;
        }
      }
    }
  }
}

// Make builds its first cube from the maintainer's own membership table
// through the columns entry; it must equal the in-memory builder bit for
// bit, over full and restricted axes, serial and pooled.
TEST(MarketplaceMaintainerTest, ColdBuildMatchesBuildMarketplaceCubeBitwise) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  MarketplaceDataset data = MakeMarketplace(/*seed=*/5);
  CubeAxes restricted;
  restricted.groups = {0, 3, 4};
  restricted.locations = {1, 0};
  for (MarketMeasure measure :
       {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    for (const CubeAxes& axes : {CubeAxes{}, restricted}) {
      for (size_t parallelism : {size_t{1}, size_t{3}}) {
        Result<MarketplaceCubeMaintainer> made =
            MarketplaceCubeMaintainer::Make(data, space, measure, {}, axes,
                                            parallelism);
        ASSERT_TRUE(made.ok()) << made.status().ToString();
        Result<UnfairnessCube> expected =
            BuildMarketplaceCube(data, space, measure, {}, axes, parallelism);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        ExpectCubesBitwiseEqual(made->snapshot()->cube(), *expected,
                                MarketMeasureName(measure));
      }
    }
  }
}

TEST(MarketplaceMaintainerTest, UpsertsMatchColdRebuildBitwise) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  for (MarketMeasure measure : {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    Result<MarketplaceCubeMaintainer> made =
        MarketplaceCubeMaintainer::Make(MakeMarketplace(/*seed=*/11), space,
                                        measure);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    MarketplaceCubeMaintainer maintainer = std::move(*made);

    Rng rng(/*seed=*/77);
    for (size_t round = 0; round < 4; ++round) {
      CrawlBatch batch;
      size_t rows = 1 + rng.NextBelow(4);
      for (size_t r = 0; r < rows; ++r) {
        CrawlBatchRow row;
        row.query = static_cast<QueryId>(rng.NextBelow(kQueries));
        row.location = static_cast<LocationId>(rng.NextBelow(kLocations));
        row.ranking = RandomRanking(rng, rng.NextBernoulli(0.5));
        batch.rows.push_back(std::move(row));
      }
      // Occasionally list the same cell twice: the later row must win.
      if (rng.NextBernoulli(0.5) && !batch.rows.empty()) {
        CrawlBatchRow again = batch.rows.front();
        again.ranking = RandomRanking(rng, false);
        batch.rows.push_back(std::move(again));
      }
      Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
      ASSERT_TRUE(report.ok()) << report.status().ToString();

      Result<UnfairnessCube> expected =
          BuildMarketplaceCube(maintainer.data(), space, measure);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ExpectCubesBitwiseEqual(maintainer.snapshot()->cube(), *expected,
                              MarketMeasureName(measure));
      ExpectIndicesMatchCube(maintainer.snapshot()->indices(),
                             maintainer.snapshot()->cube(),
                             MarketMeasureName(measure));
    }
  }
}

TEST(MarketplaceMaintainerTest, EmptyRankingMakesTheColumnMissing) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      MakeMarketplace(/*seed=*/11), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);

  CrawlBatch batch;
  batch.rows.push_back(CrawlBatchRow{0, 0, MarketRanking{}});
  Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const UnfairnessCube& cube = maintainer.snapshot()->cube();
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    EXPECT_FALSE(cube.Get(g, 0, 0).has_value()) << "group " << g;
  }
  Result<UnfairnessCube> expected =
      BuildMarketplaceCube(maintainer.data(), space, MarketMeasure::kExposure);
  ASSERT_TRUE(expected.ok());
  ExpectCubesBitwiseEqual(cube, *expected, "empty-ranking");
}

TEST(SearchMaintainerTest, UpsertsMatchColdRebuildBitwise) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  for (SearchMeasure measure :
       {SearchMeasure::kKendallTau, SearchMeasure::kJaccard}) {
    Result<SearchCubeMaintainer> made =
        SearchCubeMaintainer::Make(MakeSearch(/*seed=*/23), space, measure);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    SearchCubeMaintainer maintainer = std::move(*made);

    Rng rng(/*seed=*/99);
    for (size_t round = 0; round < 4; ++round) {
      StudySnapshot delta;
      size_t cells = 1 + rng.NextBelow(3);
      for (size_t c = 0; c < cells; ++c) {
        StudySnapshotCell cell;
        cell.query = static_cast<QueryId>(rng.NextBelow(kQueries));
        cell.location = static_cast<LocationId>(rng.NextBelow(kLocations));
        // Replace semantics, including occasional removal (empty vector).
        if (!rng.NextBernoulli(0.2)) cell.observations = RandomObservations(rng);
        delta.cells.push_back(std::move(cell));
      }
      Result<UpsertReport> report = maintainer.UpsertStudySnapshot(delta);
      ASSERT_TRUE(report.ok()) << report.status().ToString();

      Result<UnfairnessCube> expected =
          BuildSearchCube(maintainer.data(), space, measure);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ExpectCubesBitwiseEqual(maintainer.snapshot()->cube(), *expected,
                              SearchMeasureName(measure));
      ExpectIndicesMatchCube(maintainer.snapshot()->indices(),
                             maintainer.snapshot()->cube(),
                             SearchMeasureName(measure));
    }
  }
}

TEST(MarketplaceMaintainerTest, EpochsBumpOnlyForChangedColumns) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  MarketplaceDataset data = MakeMarketplace(/*seed=*/11);
  // Remember an existing ranking so one batch row can re-send it verbatim.
  const MarketRanking* unchanged = data.GetRanking(0, 0);
  ASSERT_NE(unchanged, nullptr);
  MarketRanking verbatim = *unchanged;

  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      std::move(data), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);
  std::shared_ptr<const CubeSnapshot> before = maintainer.snapshot();

  // Record every column epoch before the upsert.
  const UnfairnessCube& cube_before = before->cube();
  std::vector<uint64_t> epochs_before;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      epochs_before.push_back(cube_before.column_epoch(q, l));
    }
  }

  Rng rng(/*seed=*/5);
  CrawlBatch batch;
  batch.rows.push_back(CrawlBatchRow{0, 0, verbatim});  // bitwise no-op
  batch.rows.push_back(CrawlBatchRow{1, 1, RandomRanking(rng, true)});
  Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->rows_applied, 2u);
  EXPECT_EQ(report->columns_touched, 2u);
  EXPECT_EQ(report->columns_changed, 1u);
  EXPECT_EQ(report->cells_recomputed,
            2u * cube_before.axis_size(Dimension::kGroup));
  EXPECT_TRUE(report->published_new_snapshot);

  std::shared_ptr<const CubeSnapshot> after = maintainer.snapshot();
  ASSERT_NE(after, before);
  EXPECT_EQ(after->lineage(), before->lineage());  // same snapshot family
  EXPECT_EQ(after->version(), before->version() + 1);

  const UnfairnessCube& cube_after = after->cube();
  size_t i = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l, ++i) {
      uint64_t expected = epochs_before[i] + ((q == 1 && l == 1) ? 1 : 0);
      EXPECT_EQ(cube_after.column_epoch(q, l), expected)
          << "column (" << q << "," << l << ")";
    }
  }

  // A batch that changes nothing publishes nothing: the snapshot pointer is
  // literally the same object and every epoch stays put.
  CrawlBatch noop;
  noop.rows.push_back(CrawlBatchRow{0, 0, verbatim});
  Result<UpsertReport> noop_report = maintainer.UpsertCrawlBatch(noop);
  ASSERT_TRUE(noop_report.ok()) << noop_report.status().ToString();
  EXPECT_EQ(noop_report->columns_changed, 0u);
  EXPECT_FALSE(noop_report->published_new_snapshot);
  EXPECT_EQ(maintainer.snapshot(), after);
}

TEST(MarketplaceMaintainerTest, FailedBatchLeavesEverythingUntouched) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      MakeMarketplace(/*seed=*/11), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);
  std::shared_ptr<const CubeSnapshot> before = maintainer.snapshot();
  const MarketRanking* ranking_before = maintainer.data().GetRanking(0, 0);
  ASSERT_NE(ranking_before, nullptr);
  std::vector<WorkerId> workers_before = ranking_before->workers;

  Rng rng(/*seed=*/5);
  // Valid first row, then each flavor of bad row: the batch must be
  // rejected atomically — the valid row must NOT have been applied.
  MarketRanking fresh = RandomRanking(rng, false);
  ASSERT_NE(fresh.workers, workers_before);
  {
    CrawlBatch batch;
    batch.rows.push_back(CrawlBatchRow{0, 0, fresh});
    batch.rows.push_back(
        CrawlBatchRow{static_cast<QueryId>(kQueries + 7), 0, fresh});
    EXPECT_FALSE(maintainer.UpsertCrawlBatch(batch).ok());
  }
  {
    CrawlBatch batch;
    batch.rows.push_back(CrawlBatchRow{0, 0, fresh});
    batch.rows.push_back(
        CrawlBatchRow{0, static_cast<LocationId>(kLocations + 7), fresh});
    EXPECT_FALSE(maintainer.UpsertCrawlBatch(batch).ok());
  }
  {
    CrawlBatch batch;
    batch.rows.push_back(CrawlBatchRow{0, 0, fresh});
    MarketRanking bad;
    bad.workers = {0, 0};  // duplicate worker
    batch.rows.push_back(CrawlBatchRow{1, 1, std::move(bad)});
    EXPECT_FALSE(maintainer.UpsertCrawlBatch(batch).ok());
  }

  EXPECT_EQ(maintainer.snapshot(), before);
  const MarketRanking* ranking_after = maintainer.data().GetRanking(0, 0);
  ASSERT_NE(ranking_after, nullptr);
  EXPECT_EQ(ranking_after->workers, workers_before);
}

TEST(SearchMaintainerTest, FailedSnapshotLeavesEverythingUntouched) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<SearchCubeMaintainer> made = SearchCubeMaintainer::Make(
      MakeSearch(/*seed=*/23), space, SearchMeasure::kJaccard);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  SearchCubeMaintainer maintainer = std::move(*made);
  std::shared_ptr<const CubeSnapshot> before = maintainer.snapshot();

  Rng rng(/*seed=*/5);
  StudySnapshot delta;
  StudySnapshotCell good;
  good.query = 0;
  good.location = 0;
  good.observations = RandomObservations(rng);
  delta.cells.push_back(std::move(good));
  StudySnapshotCell bad;
  bad.query = 1;
  bad.location = 1;
  SearchObservation obs;
  obs.user = static_cast<UserId>(kUsers + 9);  // unknown user
  obs.results = {1, 2, 3};
  bad.observations.push_back(std::move(obs));
  delta.cells.push_back(std::move(bad));

  EXPECT_FALSE(maintainer.UpsertStudySnapshot(delta).ok());
  EXPECT_EQ(maintainer.snapshot(), before);
}

// The serving-layer cache-survival criterion: after an upsert touching k of
// the C (query, location) columns, the C − k requests over untouched
// columns are served from cache — asserted with EXACT stats accounting, not
// approximations.
TEST(IncrementalServingTest, UntouchedColumnsServeFromCacheAfterUpsert) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      MakeMarketplace(/*seed=*/31), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);

  QuantificationService service(maintainer.snapshot());

  // One group-target request per (query, location) column: C requests, each
  // binding exactly its own column's epoch.
  std::vector<QuantificationRequest> per_column;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      QuantificationRequest request;
      request.target = Dimension::kGroup;
      request.k = 3;
      request.missing = MissingCellPolicy::kZero;
      request.agg1 = AxisSelector::Single(q);
      request.agg2 = AxisSelector::Single(l);
      per_column.push_back(request);
    }
  }
  const size_t kColumns = kQueries * kLocations;

  for (const QuantificationRequest& request : per_column) {
    ASSERT_TRUE(service.Answer(request).ok());
  }
  QuantificationService::Stats cold = service.stats();
  EXPECT_EQ(cold.requests, kColumns);
  EXPECT_EQ(cold.cache_misses, kColumns);
  EXPECT_EQ(cold.computations, kColumns);
  EXPECT_EQ(cold.cache_hits, 0u);

  // Warm replay: every request hits.
  for (const QuantificationRequest& request : per_column) {
    ASSERT_TRUE(service.Answer(request).ok());
  }
  QuantificationService::Stats warm = service.stats();
  EXPECT_EQ(warm.cache_hits, kColumns);
  EXPECT_EQ(warm.computations, kColumns);

  // Upsert k = 2 columns with genuinely different rankings, flip.
  Rng rng(/*seed=*/41);
  CrawlBatch batch;
  batch.rows.push_back(CrawlBatchRow{0, 0, RandomRanking(rng, true)});
  batch.rows.push_back(CrawlBatchRow{2, 1, RandomRanking(rng, true)});
  Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->columns_changed, 2u);
  service.SetSnapshot(maintainer.snapshot());

  // Replay all C requests: exactly k recompute, C − k hit the old entries.
  for (const QuantificationRequest& request : per_column) {
    Result<QuantificationResult> served = service.Answer(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  QuantificationService::Stats after = service.stats();
  EXPECT_EQ(after.requests, 3 * kColumns);
  EXPECT_EQ(after.cache_hits, warm.cache_hits + (kColumns - 2));
  EXPECT_EQ(after.cache_misses, warm.cache_misses + 2);
  EXPECT_EQ(after.computations, warm.computations + 2);
  EXPECT_EQ(after.snapshot_flips, 1u);

  // Exact accounting invariants, not inequalities.
  EXPECT_EQ(after.cache_hits + after.cache_misses, after.requests);
  EXPECT_EQ(after.computations + after.coalesced, after.cache_misses);

  // And the recomputed answers match a direct solve against the new cube.
  const CubeSnapshot& snapshot = *maintainer.snapshot();
  for (const QuantificationRequest& request : per_column) {
    Result<QuantificationResult> direct =
        SolveQuantification(snapshot.cube(), snapshot.indices(), request);
    Result<QuantificationResult> served = service.Answer(request);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served->answers.size(), direct->answers.size());
    for (size_t i = 0; i < served->answers.size(); ++i) {
      EXPECT_EQ(served->answers[i].id, direct->answers[i].id);
      EXPECT_EQ(served->answers[i].value, direct->answers[i].value);
    }
  }
}

}  // namespace
}  // namespace fairjob
