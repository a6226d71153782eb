#ifndef FAIRJOB_CRAWL_CRAWLER_H_
#define FAIRJOB_CRAWL_CRAWLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/virtual_clock.h"
#include "crawl/profile_store.h"

namespace fairjob {

// One page of marketplace search results.
struct ResultPage {
  std::vector<std::string> worker_names;  // best-first within the page
  bool has_more = false;
};

// The remote marketplace as seen by the crawler. The production-equivalent
// implementation would wrap HTTP scraping; this repository provides a
// calibrated simulator (market::SimulatedMarketplace) behind the same
// interface, which is what replaces the paper's live 2019 TaskRabbit crawl.
//
// FetchPage / FetchProfile may fail *transiently* with StatusCode::kIOError
// (rate limiting, flaky transport); the crawler retries those with backoff.
// Any other error code is treated as permanent.
class MarketplaceSite {
 public:
  virtual ~MarketplaceSite() = default;

  virtual std::vector<std::string> Cities() const = 0;
  virtual std::vector<std::string> JobsIn(const std::string& city) const = 0;
  virtual Result<ResultPage> FetchPage(const std::string& job,
                                       const std::string& city, size_t page,
                                       size_t page_size) = 0;
  virtual Result<RawProfile> FetchProfile(const std::string& worker_name) = 0;
};

// One (job, city, rank, worker) observation; ranks are 1-based.
struct CrawlRecord {
  std::string job;
  std::string city;
  size_t rank = 0;
  std::string worker_name;
};

struct CrawlerConfig {
  size_t page_size = 10;
  // The paper's crawl capped results at 50 taskers per query.
  size_t max_results_per_query = 50;
  // Politeness delay between requests, in (virtual) seconds.
  int64_t min_request_interval_s = 1;
  // Transient-failure retry policy: exponential backoff starting at
  // `retry_backoff_s`, at most `max_retries` attempts per request.
  size_t max_retries = 5;
  int64_t retry_backoff_s = 2;
};

struct CrawlReport {
  std::vector<CrawlRecord> records;
  size_t requests_issued = 0;
  size_t retries = 0;
  size_t failed_queries = 0;  // queries abandoned after exhausting retries
  int64_t finished_at_s = 0;  // virtual-clock timestamp at completion
};

// Scrapes a MarketplaceSite deterministically over a virtual clock,
// honouring the page-size / result-cap / rate-limit / retry policy.
class Crawler {
 public:
  // `site` and `clock` are borrowed and must outlive the crawler.
  Crawler(MarketplaceSite* site, VirtualClock* clock, CrawlerConfig config);

  // Every job offered in every city (the paper's 5,361-query crawl shape).
  Result<CrawlReport> CrawlAll();

  // A selective re-crawl (monitoring refreshes): only the given (job, city)
  // pairs, in order. Permanently failing queries are counted in the report
  // and skipped, as in CrawlAll.
  Result<CrawlReport> CrawlQueries(
      const std::vector<std::pair<std::string, std::string>>& job_city_pairs);

  // A single (job, city) query; appends to `report`. Publishes
  // crawl.pages_fetched, crawl.failed_queries and crawl.cap_truncated_queries
  // once per query, crawl.retries once per retried request.
  Status CrawlQuery(const std::string& job, const std::string& city,
                    CrawlReport* report);

  // Fetches the profile of every distinct worker in `records` into `store`,
  // in order of first appearance (skipping those already present).
  Status CollectProfiles(const std::vector<CrawlRecord>& records,
                         ProfileStore* store, CrawlReport* report);

 private:
  // Runs `fetch` with rate limiting + retries. `RetType` is ResultPage or
  // RawProfile.
  template <typename RetType, typename Fetch>
  Result<RetType> FetchWithRetry(Fetch fetch, CrawlReport* report);

  MarketplaceSite* site_;
  VirtualClock* clock_;
  CrawlerConfig config_;
  int64_t last_request_at_s_ = -1;
};

// CSV round trip for crawl records (header included).
std::vector<std::vector<std::string>> CrawlRecordsToCsvRows(
    const std::vector<CrawlRecord>& records);
Result<std::vector<CrawlRecord>> CrawlRecordsFromCsvRows(
    const std::vector<std::vector<std::string>>& rows);

}  // namespace fairjob

#endif  // FAIRJOB_CRAWL_CRAWLER_H_
