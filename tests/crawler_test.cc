#include "crawl/crawler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include "common/metrics.h"
#include "crawl/dataset_assembly.h"
#include "market/taskrabbit_sim.h"
#include "serve/fnv.h"

namespace fairjob {
namespace {

// A scripted marketplace: fixed worker lists per (job, city), optional
// scripted transient failures by request ordinal.
class FakeSite : public MarketplaceSite {
 public:
  std::vector<std::string> Cities() const override { return cities_; }

  std::vector<std::string> JobsIn(const std::string& city) const override {
    auto it = jobs_.find(city);
    return it == jobs_.end() ? std::vector<std::string>{} : it->second;
  }

  Result<ResultPage> FetchPage(const std::string& job, const std::string& city,
                               size_t page, size_t page_size) override {
    ++fetch_calls;
    if (fail_ordinals.count(fetch_calls) > 0) {
      return Status::IOError("scripted transient failure");
    }
    if (permanent_failure_job == job) {
      return Status::Internal("scripted permanent failure");
    }
    auto it = results_.find(city + "|" + job);
    if (it == results_.end()) return Status::NotFound("no such query");
    const std::vector<std::string>& all = it->second;
    ResultPage out;
    size_t begin = page * page_size;
    size_t end = std::min(all.size(), begin + page_size);
    for (size_t i = begin; i < end; ++i) out.worker_names.push_back(all[i]);
    out.has_more = end < all.size();
    return out;
  }

  Result<RawProfile> FetchProfile(const std::string& worker_name) override {
    ++profile_calls;
    RawProfile p;
    p.worker_name = worker_name;
    p.picture_ref = "pic_" + worker_name;
    p.hourly_rate = 25.0;
    p.num_reviews = 10;
    return p;
  }

  void AddQuery(const std::string& city, const std::string& job,
                std::vector<std::string> workers) {
    if (std::find(cities_.begin(), cities_.end(), city) == cities_.end()) {
      cities_.push_back(city);
    }
    jobs_[city].push_back(job);
    results_[city + "|" + job] = std::move(workers);
  }

  size_t fetch_calls = 0;
  size_t profile_calls = 0;
  std::set<size_t> fail_ordinals;  // which FetchPage calls fail transiently
  std::string permanent_failure_job;

 private:
  std::vector<std::string> cities_;
  std::map<std::string, std::vector<std::string>> jobs_;
  std::map<std::string, std::vector<std::string>> results_;
};

std::vector<std::string> Workers(size_t n, const std::string& prefix = "w") {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

TEST(CrawlerTest, CrawlsAllPagesInRankOrder) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(23));
  VirtualClock clock;
  CrawlerConfig config;
  config.page_size = 10;
  Crawler crawler(&site, &clock, config);
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 23u);
  for (size_t i = 0; i < 23; ++i) {
    EXPECT_EQ(report->records[i].rank, i + 1);
    EXPECT_EQ(report->records[i].worker_name, "w" + std::to_string(i));
    EXPECT_EQ(report->records[i].job, "cleaning");
    EXPECT_EQ(report->records[i].city, "NYC");
  }
}

TEST(CrawlerTest, ResultCapTruncatesAtFifty) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(80));
  VirtualClock clock;
  Crawler crawler(&site, &clock, CrawlerConfig{});
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 50u);
  EXPECT_EQ(report->records.back().rank, 50u);
  // 5 pages of 10 fetched, not 8.
  EXPECT_EQ(site.fetch_calls, 5u);
}

TEST(CrawlerTest, RateLimitingAdvancesVirtualClock) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(30));
  VirtualClock clock;
  CrawlerConfig config;
  config.min_request_interval_s = 7;
  Crawler crawler(&site, &clock, config);
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  // 3 requests: the 2nd and 3rd each wait 7s.
  EXPECT_EQ(report->finished_at_s, 14);
}

TEST(CrawlerTest, TransientFailuresAreRetriedWithBackoff) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(5));
  site.fail_ordinals = {1, 2};  // first two attempts fail
  VirtualClock clock;
  CrawlerConfig config;
  config.retry_backoff_s = 3;
  Crawler crawler(&site, &clock, config);
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 5u);
  EXPECT_EQ(report->retries, 2u);
  EXPECT_EQ(report->failed_queries, 0u);
  // Backoff 3s then 6s, plus politeness delays.
  EXPECT_GE(report->finished_at_s, 9);
}

TEST(CrawlerTest, RetriesExhaustedCountsFailedQuery) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(5));
  site.AddQuery("NYC", "moving", Workers(5));
  // The first query's 1 + max_retries attempts all fail; the second query's
  // first attempt (ordinal 4) succeeds.
  site.fail_ordinals = {1, 2, 3};
  VirtualClock clock;
  CrawlerConfig config;
  config.max_retries = 2;
  Crawler crawler(&site, &clock, config);
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->failed_queries, 1u);
  // The crawl as a whole continues past a failed query.
  ASSERT_EQ(report->records.size(), 5u);
  EXPECT_EQ(report->records[0].job, "moving");
}

TEST(CrawlerTest, PermanentFailureNotRetried) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(5));
  site.permanent_failure_job = "cleaning";
  VirtualClock clock;
  Crawler crawler(&site, &clock, CrawlerConfig{});
  CrawlReport report;
  Status s = crawler.CrawlQuery("cleaning", "NYC", &report);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(site.fetch_calls, 1u);
}

TEST(CrawlerTest, SelectiveRecrawlOnlyTouchesRequestedQueries) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(3, "a"));
  site.AddQuery("NYC", "moving", Workers(2, "b"));
  site.AddQuery("Chicago", "cleaning", Workers(4, "c"));
  VirtualClock clock;
  Crawler crawler(&site, &clock, CrawlerConfig{});
  Result<CrawlReport> report =
      crawler.CrawlQueries({{"cleaning", "NYC"}, {"cleaning", "Chicago"}});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 7u);  // 3 + 4; "moving" untouched
  for (const CrawlRecord& record : report->records) {
    EXPECT_EQ(record.job, "cleaning");
  }
  // Unknown queries count as failures but do not abort.
  Result<CrawlReport> partial =
      crawler.CrawlQueries({{"gardening", "NYC"}, {"moving", "NYC"}});
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->failed_queries, 1u);
  EXPECT_EQ(partial->records.size(), 2u);
}

TEST(CrawlerTest, MultipleCitiesAndJobs) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", Workers(3, "a"));
  site.AddQuery("NYC", "moving", Workers(2, "b"));
  site.AddQuery("Chicago", "cleaning", Workers(4, "c"));
  VirtualClock clock;
  Crawler crawler(&site, &clock, CrawlerConfig{});
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 9u);
}

TEST(CrawlerTest, CollectProfilesDeduplicates) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", {"w0", "w1"});
  site.AddQuery("NYC", "moving", {"w1", "w2"});
  VirtualClock clock;
  Crawler crawler(&site, &clock, CrawlerConfig{});
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  ProfileStore store;
  ASSERT_TRUE(crawler.CollectProfiles(report->records, &store, nullptr).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(site.profile_calls, 3u);  // w1 fetched once
  EXPECT_TRUE(store.Contains("w2"));
}

// Profiles are fetched in order of first appearance in the records, so the
// store order (and the labeling draws that follow it) depends on the crawl
// alone.
TEST(CrawlerTest, CollectProfilesFollowsCrawlOrder) {
  FakeSite site;
  site.AddQuery("NYC", "cleaning", {"w5", "w1", "w9"});
  site.AddQuery("NYC", "moving", {"w1", "w0", "w5", "w7"});
  site.AddQuery("Boston", "cleaning", {"w3", "w9", "w2"});
  VirtualClock clock;
  Crawler crawler(&site, &clock, CrawlerConfig{});
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());

  std::vector<std::string> first_seen;
  for (const CrawlRecord& r : report->records) {
    if (std::find(first_seen.begin(), first_seen.end(), r.worker_name) ==
        first_seen.end()) {
      first_seen.push_back(r.worker_name);
    }
  }
  ProfileStore store;
  RawProfile known;
  known.worker_name = "w0";
  ASSERT_TRUE(store.Upsert(known).ok());
  ASSERT_TRUE(crawler.CollectProfiles(report->records, &store, nullptr).ok());
  ASSERT_EQ(store.size(), first_seen.size());
  // w0 was already present: it keeps its slot and is not fetched again.
  EXPECT_EQ(site.profile_calls, first_seen.size() - 1);
  std::vector<std::string> order;
  for (const RawProfile& p : store.profiles()) order.push_back(p.worker_name);
  first_seen.erase(std::find(first_seen.begin(), first_seen.end(), "w0"));
  first_seen.insert(first_seen.begin(), "w0");
  EXPECT_EQ(order, first_seen);
}

TEST(CrawlRecordsCsvTest, RoundTrip) {
  std::vector<CrawlRecord> records = {
      {"cleaning", "NYC", 1, "w0"},
      {"yard, work", "Chicago, IL", 2, "w\"1\""},
  };
  Result<std::vector<CrawlRecord>> parsed =
      CrawlRecordsFromCsvRows(CrawlRecordsToCsvRows(records));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].job, "yard, work");
  EXPECT_EQ((*parsed)[1].rank, 2u);
  EXPECT_EQ((*parsed)[1].worker_name, "w\"1\"");
}

TEST(CrawlRecordsCsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(CrawlRecordsFromCsvRows({}).ok());
  EXPECT_FALSE(CrawlRecordsFromCsvRows({{"bad", "header"}}).ok());
  EXPECT_FALSE(
      CrawlRecordsFromCsvRows({{"job", "city", "rank", "worker"},
                               {"j", "c", "zero", "w"}})
          .ok());
  EXPECT_FALSE(
      CrawlRecordsFromCsvRows({{"job", "city", "rank", "worker"},
                               {"j", "c", "-3", "w"}})
          .ok());
}

TEST(ProfileStoreTest, UpsertAndGet) {
  ProfileStore store;
  ASSERT_TRUE(store.Upsert({"w0", "pic0", 30.0, 5, "elite"}).ok());
  ASSERT_TRUE(store.Upsert({"w0", "pic0b", 31.0, 6, ""}).ok());  // refresh
  EXPECT_EQ(store.size(), 1u);
  Result<RawProfile> p = store.Get("w0");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->picture_ref, "pic0b");
  EXPECT_FALSE(store.Get("nope").ok());
  EXPECT_FALSE(store.Upsert({"", "", 0, 0, ""}).ok());
}

TEST(ProfileStoreTest, CsvRoundTrip) {
  ProfileStore store;
  ASSERT_TRUE(store.Upsert({"w0", "pic0", 30.25, 5, "elite;fast"}).ok());
  ASSERT_TRUE(store.Upsert({"w,1", "pic1", 18.0, 0, ""}).ok());
  Result<ProfileStore> restored = ProfileStore::FromCsvRows(store.ToCsvRows());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 2u);
  EXPECT_DOUBLE_EQ(restored->Get("w0")->hourly_rate, 30.25);
  EXPECT_EQ(restored->Get("w,1")->picture_ref, "pic1");
}

TEST(ProfileStoreTest, FromCsvRejectsMalformed) {
  EXPECT_FALSE(ProfileStore::FromCsvRows({}).ok());
  EXPECT_FALSE(ProfileStore::FromCsvRows({{"worker", "picture", "hourly_rate",
                                           "num_reviews", "badges"},
                                          {"w", "p", "abc", "1", ""}})
                   .ok());
}

// --- the marketplace ingest path, end to end ---------------------------------

void HashString(uint64_t* h, const std::string& s) {
  fnv::HashValue(h, static_cast<uint64_t>(s.size()));
  fnv::HashBytes(h, s.data(), s.size());
}

uint64_t HashRecords(const std::vector<CrawlRecord>& records) {
  uint64_t h = fnv::kOffset;
  fnv::HashValue(&h, static_cast<uint64_t>(records.size()));
  for (const CrawlRecord& r : records) {
    HashString(&h, r.job);
    HashString(&h, r.city);
    fnv::HashValue(&h, static_cast<uint64_t>(r.rank));
    HashString(&h, r.worker_name);
  }
  return h;
}

// Every observable of a dataset: workers (name and demographics, by id),
// the query and location vocabularies, and each ranking in RankedPairs
// order.
uint64_t HashDataset(const MarketplaceDataset& ds) {
  uint64_t h = fnv::kOffset;
  fnv::HashValue(&h, static_cast<uint64_t>(ds.num_workers()));
  for (size_t w = 0; w < ds.num_workers(); ++w) {
    HashString(&h, ds.workers().NameOf(static_cast<WorkerId>(w)));
    for (ValueId v : ds.worker_demographics(static_cast<WorkerId>(w))) {
      fnv::HashValue(&h, static_cast<int64_t>(v));
    }
  }
  for (const Vocabulary* vocabulary : {&ds.queries(), &ds.locations()}) {
    fnv::HashValue(&h, static_cast<uint64_t>(vocabulary->size()));
    for (size_t i = 0; i < vocabulary->size(); ++i) {
      HashString(&h, vocabulary->NameOf(static_cast<int32_t>(i)));
    }
  }
  for (const QueryLocation& ql : ds.RankedPairs()) {
    fnv::HashValue(&h, ql.query);
    fnv::HashValue(&h, ql.location);
    const MarketRanking* ranking = ds.GetRanking(ql.query, ql.location);
    fnv::HashValue(&h, static_cast<uint64_t>(ranking->workers.size()));
    for (WorkerId w : ranking->workers) fnv::HashValue(&h, w);
  }
  return h;
}

std::string Hex(uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Pins the default site's crawl (the paper's 5,361 queries), its assembly
// with every 17th worker left unlabeled, and an epoch-1 re-crawl to fixed
// digests: any change to what the crawl observes or to how assembly
// numbers ids fails here.
TEST(CrawlerTest, DefaultSiteIngestDigestIsPinned) {
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite();
  VirtualClock clock;
  Crawler crawler(site.get(), &clock, CrawlerConfig{});
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->requests_issued, 24717u);
  EXPECT_EQ(Hex(HashRecords(report->records)), "0xd7d8dd9d8d4c400e");

  std::unordered_map<std::string, Demographics> labels;
  for (size_t i = 0; i < site->num_workers(); ++i) {
    if (i % 17 == 0) continue;
    labels[site->worker(i).name] = site->worker(i).demographics;
  }
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(site->schema(), report->records, labels);
  ASSERT_TRUE(assembly.ok());
  EXPECT_EQ(assembly->dropped_records, 13761u);
  EXPECT_EQ(Hex(HashDataset(assembly->dataset)), "0x273e93370bf45e4c");

  // The next epoch's re-crawl of one city.
  site->SetEpoch(1);
  const std::string city = site->Cities()[3];
  std::vector<std::pair<std::string, std::string>> pages;
  for (const std::string& job : site->JobsIn(city)) {
    pages.emplace_back(job, city);
  }
  Result<CrawlReport> recrawl = crawler.CrawlQueries(pages);
  ASSERT_TRUE(recrawl.ok());
  EXPECT_EQ(Hex(HashRecords(recrawl->records)), "0xec124ae774ce2ddd");
}

// The ingest counters on a flaky site: every attempt is a fetched page, a
// retry or the last attempt of a failed query; a query is cap-truncated
// when it reached the 50-result cap with more results left.
TEST(CrawlerTest, IngestCountersOnAFlakySite) {
  TaskRabbitConfig config;
  config.num_workers = 400;
  config.max_cities = 3;
  config.max_subjobs_per_category = 2;
  config.target_query_count = 1000000;
  config.transient_failure_rate = 0.3;
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);

  MetricsRegistry& registry = MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.SetEnabled(true);
  const char* kNames[] = {"crawl.pages_fetched", "crawl.retries",
                          "crawl.failed_queries",
                          "crawl.cap_truncated_queries",
                          "assembly.dropped_records"};
  std::map<std::string, uint64_t> before;
  for (const char* name : kNames) {
    before[name] = registry.counter(name)->Value();
  }

  VirtualClock clock;
  CrawlerConfig crawler_config;
  crawler_config.max_retries = 1;
  Crawler crawler(site.get(), &clock, crawler_config);
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  std::unordered_map<std::string, Demographics> labels;
  for (size_t i = 0; i < site->num_workers(); i += 2) {
    labels[site->worker(i).name] = site->worker(i).demographics;
  }
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(site->schema(), report->records, labels);
  ASSERT_TRUE(assembly.ok());

  std::map<std::string, uint64_t> delta;
  for (const char* name : kNames) {
    delta[name] = registry.counter(name)->Value() - before[name];
  }
  registry.SetEnabled(was_enabled);

  std::map<std::pair<std::string, std::string>, size_t> per_query;
  for (const CrawlRecord& r : report->records) ++per_query[{r.job, r.city}];
  size_t truncated = 0;
  for (const auto& [query, count] : per_query) {
    if (count == crawler_config.max_results_per_query &&
        site->RankFor(query.first, query.second)->size() > count) {
      ++truncated;
    }
  }
  EXPECT_GT(report->retries, 0u);
  EXPECT_GT(report->failed_queries, 0u);
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(assembly->dropped_records, 0u);
  EXPECT_EQ(delta["crawl.retries"], report->retries);
  EXPECT_EQ(delta["crawl.failed_queries"], report->failed_queries);
  EXPECT_EQ(delta["crawl.pages_fetched"],
            report->requests_issued - report->retries -
                report->failed_queries);
  EXPECT_EQ(delta["crawl.cap_truncated_queries"], truncated);
  EXPECT_EQ(delta["assembly.dropped_records"], assembly->dropped_records);
}

}  // namespace
}  // namespace fairjob
