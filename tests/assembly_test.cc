#include "crawl/dataset_assembly.h"

#include <gtest/gtest.h>

namespace fairjob {
namespace {

AttributeSchema Schema() {
  AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  EXPECT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  return schema;
}

TEST(AssembleMarketplaceTest, BuildsRankingsInRankOrder) {
  std::vector<CrawlRecord> records = {
      {"cleaning", "NYC", 2, "w1"},
      {"cleaning", "NYC", 1, "w0"},
      {"cleaning", "NYC", 3, "w2"},
  };
  std::unordered_map<std::string, Demographics> demo = {
      {"w0", {0, 0}}, {"w1", {1, 1}}, {"w2", {2, 0}}};
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(Schema(), records, demo);
  ASSERT_TRUE(assembly.ok());
  const MarketplaceDataset& ds = assembly->dataset;
  EXPECT_EQ(ds.num_workers(), 3u);
  QueryId q = *ds.queries().Find("cleaning");
  LocationId l = *ds.locations().Find("NYC");
  const MarketRanking* ranking = ds.GetRanking(q, l);
  ASSERT_NE(ranking, nullptr);
  ASSERT_EQ(ranking->workers.size(), 3u);
  EXPECT_EQ(ds.workers().NameOf(ranking->workers[0]), "w0");
  EXPECT_EQ(ds.workers().NameOf(ranking->workers[1]), "w1");
  EXPECT_EQ(ds.workers().NameOf(ranking->workers[2]), "w2");
  EXPECT_EQ(assembly->dropped_records, 0u);
}

TEST(AssembleMarketplaceTest, UnlabeledWorkersDropped) {
  std::vector<CrawlRecord> records = {
      {"cleaning", "NYC", 1, "w0"},
      {"cleaning", "NYC", 2, "unlabeled"},
      {"cleaning", "NYC", 3, "w2"},
  };
  std::unordered_map<std::string, Demographics> demo = {{"w0", {0, 0}},
                                                        {"w2", {2, 0}}};
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(Schema(), records, demo);
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ(assembly->dropped_records, 1u);
  QueryId q = *assembly->dataset.queries().Find("cleaning");
  LocationId l = *assembly->dataset.locations().Find("NYC");
  EXPECT_EQ(assembly->dataset.GetRanking(q, l)->workers.size(), 2u);
}

TEST(AssembleMarketplaceTest, SeparateQueriesKeptSeparate) {
  std::vector<CrawlRecord> records = {
      {"cleaning", "NYC", 1, "w0"},
      {"cleaning", "Chicago", 1, "w1"},
      {"moving", "NYC", 1, "w0"},
  };
  std::unordered_map<std::string, Demographics> demo = {{"w0", {0, 0}},
                                                        {"w1", {1, 1}}};
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(Schema(), records, demo);
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ(assembly->dataset.num_rankings(), 3u);
  EXPECT_EQ(assembly->dataset.queries().size(), 2u);
  EXPECT_EQ(assembly->dataset.locations().size(), 2u);
}

TEST(AssembleMarketplaceTest, DuplicateWorkerInQueryIsError) {
  std::vector<CrawlRecord> records = {
      {"cleaning", "NYC", 1, "w0"},
      {"cleaning", "NYC", 2, "w0"},
  };
  std::unordered_map<std::string, Demographics> demo = {{"w0", {0, 0}}};
  EXPECT_FALSE(AssembleMarketplace(Schema(), records, demo).ok());
}

TEST(AssembleMarketplaceTest, InvalidDemographicsIsError) {
  std::vector<CrawlRecord> records = {{"cleaning", "NYC", 1, "w0"}};
  std::unordered_map<std::string, Demographics> demo = {{"w0", {9, 9}}};
  EXPECT_FALSE(AssembleMarketplace(Schema(), records, demo).ok());
}

TEST(AssembleMarketplaceTest, EmptyCrawlGivesEmptyDataset) {
  Result<MarketplaceAssembly> assembly = AssembleMarketplace(Schema(), {}, {});
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ(assembly->dataset.num_workers(), 0u);
  EXPECT_EQ(assembly->dataset.num_rankings(), 0u);
}

// Assembly groups records per (job, city) wherever they appear, so a
// crawl whose runs are interleaved, whose ranks arrive out of order and
// which names unlabeled workers must give exactly the dataset built by
// hand: workers registered at first appearance, queries and locations
// numbered in sorted (job, city) order, rankings in rank order.
TEST(AssembleMarketplaceTest, InterleavedOutOfOrderRunsMatchDirectBuild) {
  std::vector<CrawlRecord> records = {
      {"moving", "NYC", 2, "w3"},
      {"moving", "NYC", 1, "ghost"},
      {"cleaning", "NYC", 3, "w1"},
      {"cleaning", "NYC", 1, "w0"},
      {"moving", "Chicago", 1, "ghost"},  // a query of unlabeled workers only
      {"moving", "NYC", 3, "w0"},         // the first query, resumed
      {"cleaning", "NYC", 2, "w2"},
      {"cleaning", "Boston", 2, "w1"},
      {"cleaning", "Boston", 1, "w3"},
      {"cleaning", "NYC", 4, "ghost"},
  };
  std::unordered_map<std::string, Demographics> demo = {
      {"w0", {0, 0}}, {"w1", {1, 1}}, {"w2", {2, 0}}, {"w3", {1, 0}}};
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(Schema(), records, demo);
  ASSERT_TRUE(assembly.ok()) << assembly.status().ToString();
  EXPECT_EQ(assembly->dropped_records, 3u);

  MarketplaceDataset expected(Schema());
  for (const char* name : {"w3", "w1", "w0", "w2"}) {
    ASSERT_TRUE(expected.AddWorker(name, demo.at(name)).ok());
  }
  auto set = [&expected](const char* job, const char* city,
                         std::vector<WorkerId> workers) {
    QueryId q = expected.queries().GetOrAdd(job);
    LocationId l = expected.locations().GetOrAdd(city);
    MarketRanking ranking;
    ranking.workers = std::move(workers);
    ASSERT_TRUE(expected.SetRanking(q, l, std::move(ranking)).ok());
  };
  set("cleaning", "Boston", {0, 1});     // w3, w1
  set("cleaning", "NYC", {2, 3, 1});     // w0, w2, w1
  set("moving", "NYC", {0, 2});          // w3, w0

  const MarketplaceDataset& got = assembly->dataset;
  ASSERT_EQ(got.num_workers(), expected.num_workers());
  for (WorkerId w = 0; w < static_cast<WorkerId>(got.num_workers()); ++w) {
    EXPECT_EQ(got.workers().NameOf(w), expected.workers().NameOf(w));
    EXPECT_EQ(got.worker_demographics(w), expected.worker_demographics(w));
  }
  ASSERT_EQ(got.queries().size(), expected.queries().size());
  for (QueryId q = 0; q < static_cast<QueryId>(got.queries().size()); ++q) {
    EXPECT_EQ(got.queries().NameOf(q), expected.queries().NameOf(q));
  }
  ASSERT_EQ(got.locations().size(), expected.locations().size());
  for (LocationId l = 0; l < static_cast<LocationId>(got.locations().size());
       ++l) {
    EXPECT_EQ(got.locations().NameOf(l), expected.locations().NameOf(l));
  }
  ASSERT_EQ(got.RankedPairs(), expected.RankedPairs());
  for (const QueryLocation& ql : expected.RankedPairs()) {
    EXPECT_EQ(got.GetRanking(ql.query, ql.location)->workers,
              expected.GetRanking(ql.query, ql.location)->workers);
  }
}

TEST(AssembleSearchTest, BuildsObservationsAndDocumentVocabulary) {
  std::vector<SearchRunRecord> runs = {
      {"u0", "cleaning jobs", "Boston, MA", {"docA", "docB"}},
      {"u1", "cleaning jobs", "Boston, MA", {"docB", "docC"}},
      {"u0", "cleaning jobs", "Bristol, UK", {"docA"}},
  };
  std::unordered_map<std::string, Demographics> demo = {{"u0", {0, 0}},
                                                        {"u1", {1, 1}}};
  Result<SearchAssembly> assembly = AssembleSearch(Schema(), runs, demo);
  ASSERT_TRUE(assembly.ok());
  const SearchDataset& ds = assembly->dataset;
  EXPECT_EQ(ds.num_users(), 2u);
  EXPECT_EQ(assembly->documents.size(), 3u);
  QueryId q = *ds.queries().Find("cleaning jobs");
  LocationId boston = *ds.locations().Find("Boston, MA");
  const auto* obs = ds.GetObservations(q, boston);
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->size(), 2u);
  // Shared documents map to the same ids.
  EXPECT_EQ((*obs)[0].results[1], (*obs)[1].results[0]);  // docB
  EXPECT_EQ(assembly->dropped_runs, 0u);
}

TEST(AssembleSearchTest, RunsFromUnknownUsersDropped) {
  std::vector<SearchRunRecord> runs = {
      {"ghost", "cleaning jobs", "Boston, MA", {"docA"}},
      {"u0", "cleaning jobs", "Boston, MA", {"docA"}},
  };
  std::unordered_map<std::string, Demographics> demo = {{"u0", {0, 0}}};
  Result<SearchAssembly> assembly = AssembleSearch(Schema(), runs, demo);
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ(assembly->dropped_runs, 1u);
  EXPECT_EQ(assembly->dataset.num_users(), 1u);
}

TEST(AssembleSearchTest, EmptyResultListIsError) {
  std::vector<SearchRunRecord> runs = {
      {"u0", "cleaning jobs", "Boston, MA", {}}};
  std::unordered_map<std::string, Demographics> demo = {{"u0", {0, 0}}};
  EXPECT_FALSE(AssembleSearch(Schema(), runs, demo).ok());
}

TEST(AssembleSearchTest, DuplicateDocInRunIsError) {
  std::vector<SearchRunRecord> runs = {
      {"u0", "cleaning jobs", "Boston, MA", {"docA", "docA"}}};
  std::unordered_map<std::string, Demographics> demo = {{"u0", {0, 0}}};
  EXPECT_FALSE(AssembleSearch(Schema(), runs, demo).ok());
}

using Rows = std::vector<std::vector<std::string>>;

TEST(WorkerTableTest, InfersSchemaFromData) {
  Rows rows = {
      {"worker", "gender", "ethnicity"},
      {"ana", "Female", "White"},
      {"bob", "Male", "Black"},
      {"carol", "Female", "Asian"},
  };
  Result<WorkerTable> table = WorkerTableFromCsvRows(rows);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema.num_attributes(), 2u);
  EXPECT_EQ(table->schema.attribute_name(0), "gender");
  // Domains are sorted for deterministic value ids.
  EXPECT_EQ(table->schema.value_name(0, 0), "Female");
  EXPECT_EQ(table->schema.value_name(0, 1), "Male");
  EXPECT_EQ(table->schema.value_name(1, 0), "Asian");
  ASSERT_EQ(table->demographics.size(), 3u);
  EXPECT_EQ(table->demographics.at("bob"), (Demographics{1, 1}));
  EXPECT_EQ(table->demographics.at("carol"), (Demographics{0, 0}));
}

TEST(WorkerTableTest, SingleValueDomainsWork) {
  Rows rows = {{"worker", "city_tier"}, {"a", "urban"}, {"b", "urban"}};
  Result<WorkerTable> table = WorkerTableFromCsvRows(rows);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema.num_values(0), 1u);
}

TEST(WorkerTableTest, RejectsMalformedInputs) {
  EXPECT_FALSE(WorkerTableFromCsvRows({}).ok());
  EXPECT_FALSE(WorkerTableFromCsvRows({{"worker"}}).ok());        // no attrs
  EXPECT_FALSE(WorkerTableFromCsvRows({{"name", "gender"}}).ok());
  EXPECT_FALSE(
      WorkerTableFromCsvRows({{"worker", "gender"}}).ok());       // no rows
  EXPECT_FALSE(WorkerTableFromCsvRows(
                   {{"worker", "gender"}, {"a", "F", "extra"}})
                   .ok());                                        // arity
  EXPECT_FALSE(
      WorkerTableFromCsvRows({{"worker", "gender"}, {"a", ""}}).ok());
  EXPECT_FALSE(WorkerTableFromCsvRows(
                   {{"worker", "gender"}, {"a", "F"}, {"a", "M"}})
                   .ok());                                        // duplicate
}

TEST(ExportTest, DatasetRoundTripsThroughCsvFormats) {
  // dataset -> (crawl records, worker table) -> dataset: identical rankings.
  MarketplaceDataset original(Schema());
  ASSERT_TRUE(original.AddWorker("ana", {0, 1}).ok());
  ASSERT_TRUE(original.AddWorker("bob", {1, 0}).ok());
  ASSERT_TRUE(original.AddWorker("carol", {2, 1}).ok());
  QueryId q0 = original.queries().GetOrAdd("welding");
  QueryId q1 = original.queries().GetOrAdd("catering");
  LocationId l0 = original.locations().GetOrAdd("Springfield");
  MarketRanking r0;
  r0.workers = {1, 0, 2};
  MarketRanking r1;
  r1.workers = {2, 1};
  ASSERT_TRUE(original.SetRanking(q0, l0, std::move(r0)).ok());
  ASSERT_TRUE(original.SetRanking(q1, l0, std::move(r1)).ok());

  std::vector<CrawlRecord> records = DatasetToCrawlRecords(original);
  EXPECT_EQ(records.size(), 5u);
  WorkerTable table = *WorkerTableFromCsvRows(WorkerTableToCsvRows(original));
  EXPECT_EQ(table.demographics.size(), 3u);

  MarketplaceAssembly restored =
      *AssembleMarketplace(table.schema, records, table.demographics);
  EXPECT_EQ(restored.dropped_records, 0u);
  for (const char* query : {"welding", "catering"}) {
    QueryId oq = *original.queries().Find(query);
    QueryId rq = *restored.dataset.queries().Find(query);
    LocationId ol = *original.locations().Find("Springfield");
    LocationId rl = *restored.dataset.locations().Find("Springfield");
    const MarketRanking* a = original.GetRanking(oq, ol);
    const MarketRanking* b = restored.dataset.GetRanking(rq, rl);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->workers.size(), b->workers.size());
    for (size_t i = 0; i < a->workers.size(); ++i) {
      EXPECT_EQ(original.workers().NameOf(a->workers[i]),
                restored.dataset.workers().NameOf(b->workers[i]));
    }
  }
  // Demographics survive: the inferred schema re-sorts value ids, but the
  // value *names* per worker must match.
  for (size_t w = 0; w < original.num_workers(); ++w) {
    std::string name = original.workers().NameOf(static_cast<WorkerId>(w));
    WorkerId restored_id = *restored.dataset.workers().Find(name);
    for (size_t a = 0; a < 2; ++a) {
      EXPECT_EQ(
          original.schema().value_name(
              static_cast<AttributeId>(a),
              original.worker_demographics(static_cast<WorkerId>(w))[a]),
          restored.dataset.schema().value_name(
              static_cast<AttributeId>(a),
              restored.dataset.worker_demographics(restored_id)[a]));
    }
  }
}

TEST(SearchRunCsvTest, RoundTrip) {
  std::vector<SearchRunRecord> runs = {
      {"u1", "cleaning jobs", "Boston, MA", {"docA", "docB"}},
      {"u2", "yard work", "London, UK", {"docC"}},
  };
  Result<Rows> rows = SearchRunRecordsToCsvRows(runs);
  ASSERT_TRUE(rows.ok());
  Result<std::vector<SearchRunRecord>> parsed =
      SearchRunRecordsFromCsvRows(*rows);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].user, "u1");
  EXPECT_EQ((*parsed)[0].results,
            (std::vector<std::string>{"docA", "docB"}));
  EXPECT_EQ((*parsed)[1].location, "London, UK");
}

TEST(SearchRunCsvTest, RejectsMalformed) {
  EXPECT_FALSE(SearchRunRecordsFromCsvRows({}).ok());
  EXPECT_FALSE(SearchRunRecordsFromCsvRows({{"bad", "header"}}).ok());
  EXPECT_FALSE(
      SearchRunRecordsFromCsvRows({{"user", "query", "location", "results"},
                                   {"u", "q", "l", ""}})
          .ok());
  EXPECT_FALSE(
      SearchRunRecordsFromCsvRows({{"user", "query", "location", "results"},
                                   {"u", "q", "l"}})
          .ok());
  // Export rejects separator-bearing keys and empty lists.
  EXPECT_FALSE(
      SearchRunRecordsToCsvRows({{"u", "q", "l", {"bad|doc"}}}).ok());
  EXPECT_FALSE(SearchRunRecordsToCsvRows({{"u", "q", "l", {}}}).ok());
}

TEST(SearchRunCsvTest, AssembledDatasetExportsBack) {
  std::vector<SearchRunRecord> runs = {
      {"u1", "cleaning", "Boston", {"docA", "docB"}},
      {"u2", "cleaning", "Boston", {"docB", "docC"}},
  };
  std::unordered_map<std::string, Demographics> demo = {{"u1", {0, 0}},
                                                        {"u2", {1, 1}}};
  SearchAssembly assembly = *AssembleSearch(Schema(), runs, demo);
  Result<std::vector<SearchRunRecord>> exported =
      DatasetToSearchRunRecords(assembly.dataset, assembly.documents);
  ASSERT_TRUE(exported.ok());
  ASSERT_EQ(exported->size(), 2u);
  EXPECT_EQ((*exported)[0].user, "u1");
  EXPECT_EQ((*exported)[0].results,
            (std::vector<std::string>{"docA", "docB"}));
  EXPECT_EQ((*exported)[1].results,
            (std::vector<std::string>{"docB", "docC"}));

  // An undersized vocabulary is rejected, not mis-indexed.
  Vocabulary tiny;
  tiny.GetOrAdd("docA");
  EXPECT_FALSE(DatasetToSearchRunRecords(assembly.dataset, tiny).ok());
}

TEST(WorkerTableTest, AcceptsUserHeaderToo) {
  Rows rows = {{"user", "gender"}, {"u1", "Female"}};
  Result<WorkerTable> table = WorkerTableFromCsvRows(rows);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->demographics.count("u1"), 1u);
}

TEST(ExportTest, RankedPairsSortedAndComplete) {
  MarketplaceDataset data(Schema());
  ASSERT_TRUE(data.AddWorker("w", {0, 0}).ok());
  MarketRanking r;
  r.workers = {0};
  ASSERT_TRUE(data.SetRanking(2, 1, r).ok());
  ASSERT_TRUE(data.SetRanking(0, 3, r).ok());
  ASSERT_TRUE(data.SetRanking(0, 1, r).ok());
  std::vector<QueryLocation> pairs = data.RankedPairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_TRUE(pairs[0] == (QueryLocation{0, 1}));
  EXPECT_TRUE(pairs[1] == (QueryLocation{0, 3}));
  EXPECT_TRUE(pairs[2] == (QueryLocation{2, 1}));
}

TEST(WorkerTableTest, FeedsAssemblyEndToEnd) {
  Rows worker_rows = {
      {"worker", "gender"},
      {"a", "Female"},
      {"b", "Male"},
  };
  WorkerTable table = *WorkerTableFromCsvRows(worker_rows);
  std::vector<CrawlRecord> records = {{"job", "city", 1, "b"},
                                      {"job", "city", 2, "a"}};
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(table.schema, records, table.demographics);
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ(assembly->dataset.num_workers(), 2u);
  EXPECT_EQ(assembly->dropped_records, 0u);
}

}  // namespace
}  // namespace fairjob
