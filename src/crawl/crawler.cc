#include "crawl/crawler.h"

#include <algorithm>
#include <cstdlib>

#include "common/metrics.h"

namespace fairjob {
namespace {

// `crawl.*` observability (docs/observability.md). Counts are added once
// per query (or per retried request), never per record.
Counter* PagesFetched() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("crawl.pages_fetched");
  return counter;
}
Counter* Retries() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("crawl.retries");
  return counter;
}
Counter* FailedQueries() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("crawl.failed_queries");
  return counter;
}
Counter* CapTruncatedQueries() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("crawl.cap_truncated_queries");
  return counter;
}

}  // namespace

Crawler::Crawler(MarketplaceSite* site, VirtualClock* clock,
                 CrawlerConfig config)
    : site_(site), clock_(clock), config_(config) {}

template <typename RetType, typename Fetch>
Result<RetType> Crawler::FetchWithRetry(Fetch fetch, CrawlReport* report) {
  int64_t backoff = config_.retry_backoff_s;
  for (size_t attempt = 0;; ++attempt) {
    // Politeness: keep at least the configured interval between requests.
    if (last_request_at_s_ >= 0) {
      clock_->AdvanceTo(last_request_at_s_ + config_.min_request_interval_s);
    }
    last_request_at_s_ = clock_->NowSeconds();
    if (report != nullptr) ++report->requests_issued;

    Result<RetType> result = fetch();
    if (result.ok()) return result;
    if (result.status().code() != StatusCode::kIOError ||
        attempt >= config_.max_retries) {
      return result;  // permanent failure or retries exhausted
    }
    if (report != nullptr) ++report->retries;
    Retries()->Add(1);
    clock_->AdvanceSeconds(backoff);
    backoff *= 2;
  }
}

Status Crawler::CrawlQuery(const std::string& job, const std::string& city,
                           CrawlReport* report) {
  const size_t cap = config_.max_results_per_query;
  size_t rank = 0;
  size_t pages = 0;
  bool truncated = false;
  Status status = Status::OK();
  for (size_t page = 0;; ++page) {
    Result<ResultPage> fetched = FetchWithRetry<ResultPage>(
        [&] { return site_->FetchPage(job, city, page, config_.page_size); },
        report);
    if (!fetched.ok()) {
      ++report->failed_queries;
      status = fetched.status();
      break;
    }
    ++pages;
    std::vector<std::string>& names = fetched->worker_names;
    const size_t take = std::min(names.size(), cap - rank);
    for (size_t i = 0; i < take; ++i) {
      report->records.push_back(
          CrawlRecord{job, city, ++rank, std::move(names[i])});
    }
    if (rank >= cap) {
      truncated = take < names.size() || fetched->has_more;
      break;
    }
    if (!fetched->has_more) break;
  }
  PagesFetched()->Add(pages);
  if (!status.ok()) FailedQueries()->Add(1);
  if (truncated) CapTruncatedQueries()->Add(1);
  return status;
}

Result<CrawlReport> Crawler::CrawlAll() {
  CrawlReport report;
  for (const std::string& city : site_->Cities()) {
    for (const std::string& job : site_->JobsIn(city)) {
      // A permanently failing query is recorded but does not abort the crawl.
      Status s = CrawlQuery(job, city, &report);
      (void)s;
    }
  }
  report.finished_at_s = clock_->NowSeconds();
  return report;
}

Result<CrawlReport> Crawler::CrawlQueries(
    const std::vector<std::pair<std::string, std::string>>& job_city_pairs) {
  CrawlReport report;
  for (const auto& [job, city] : job_city_pairs) {
    Status s = CrawlQuery(job, city, &report);
    (void)s;  // counted in report.failed_queries
  }
  report.finished_at_s = clock_->NowSeconds();
  return report;
}

Status Crawler::CollectProfiles(const std::vector<CrawlRecord>& records,
                                ProfileStore* store, CrawlReport* report) {
  // Crawl order, so which labeling draws each worker gets depends on the
  // crawl alone; the store skips workers already fetched.
  for (const CrawlRecord& r : records) {
    const std::string& worker = r.worker_name;
    if (store->Contains(worker)) continue;
    Result<RawProfile> profile = FetchWithRetry<RawProfile>(
        [&] { return site_->FetchProfile(worker); }, report);
    if (!profile.ok()) return profile.status();
    FAIRJOB_RETURN_IF_ERROR(store->Upsert(std::move(*profile)));
  }
  if (report != nullptr) report->finished_at_s = clock_->NowSeconds();
  return Status::OK();
}

std::vector<std::vector<std::string>> CrawlRecordsToCsvRows(
    const std::vector<CrawlRecord>& records) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"job", "city", "rank", "worker"});
  for (const CrawlRecord& r : records) {
    rows.push_back({r.job, r.city, std::to_string(r.rank), r.worker_name});
  }
  return rows;
}

Result<std::vector<CrawlRecord>> CrawlRecordsFromCsvRows(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty() || rows[0].size() != 4 || rows[0][0] != "job") {
    return Status::InvalidArgument("missing or malformed crawl CSV header");
  }
  std::vector<CrawlRecord> records;
  records.reserve(rows.size() - 1);
  for (size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != 4) {
      return Status::InvalidArgument("crawl CSV row " + std::to_string(i) +
                                     " has " + std::to_string(row.size()) +
                                     " fields, expected 4");
    }
    char* end = nullptr;
    long rank = std::strtol(row[2].c_str(), &end, 10);
    if (end == row[2].c_str() || rank <= 0) {
      return Status::InvalidArgument("bad rank in crawl CSV row " +
                                     std::to_string(i));
    }
    records.push_back(
        CrawlRecord{row[0], row[1], static_cast<size_t>(rank), row[3]});
  }
  return records;
}

}  // namespace fairjob
