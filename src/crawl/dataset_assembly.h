#ifndef FAIRJOB_CRAWL_DATASET_ASSEMBLY_H_
#define FAIRJOB_CRAWL_DATASET_ASSEMBLY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "crawl/crawler.h"

namespace fairjob {

// Final step of both experiment flows (Figures 6 and 9): raw observations +
// inferred demographics -> the datasets the F-Box consumes.

struct MarketplaceAssembly {
  MarketplaceDataset dataset;
  // Crawl records whose worker had no demographic label and were dropped.
  size_t dropped_records = 0;
};

// Builds a MarketplaceDataset from crawl records and per-worker
// demographics. Records are grouped by (job, city) and ordered by rank;
// rank gaps are tolerated (the order is what matters), duplicate
// (job, city, worker) entries are errors.
//
// Adds dropped_records to the assembly.dropped_records counter once per
// call.
//
// Errors: InvalidArgument on duplicate workers within one query's results or
// invalid demographics.
Result<MarketplaceAssembly> AssembleMarketplace(
    const AttributeSchema& schema, const std::vector<CrawlRecord>& records,
    const std::unordered_map<std::string, Demographics>&
        demographics_by_worker);

// One search-engine run: a user executed a search-term formulation of a
// query at a location and observed ranked result documents.
struct SearchRunRecord {
  std::string user;
  std::string query;     // canonical query the formulation expands
  std::string location;
  std::vector<std::string> results;  // document keys, best first
};

struct SearchAssembly {
  SearchDataset dataset;
  Vocabulary documents;  // document key <-> RankedList id mapping
  size_t dropped_runs = 0;  // runs from users without demographics
};

// Builds a SearchDataset (one observation per run, keyed by the canonical
// query) from study runs and per-user demographics.
//
// Errors: InvalidArgument on empty/duplicated result lists or invalid
// demographics.
Result<SearchAssembly> AssembleSearch(
    const AttributeSchema& schema, const std::vector<SearchRunRecord>& runs,
    const std::unordered_map<std::string, Demographics>& demographics_by_user);

// A fully data-driven worker table: the schema is inferred from the CSV
// header (`worker,<attribute>,<attribute>,...`) and each attribute's value
// domain from the distinct values observed (sorted for deterministic ids).
// This is how the CLI ingests arbitrary platforms without code changes.
struct WorkerTable {
  AttributeSchema schema;
  std::unordered_map<std::string, Demographics> demographics;
};

// Errors: InvalidArgument on a missing/malformed header, duplicate workers,
// rows with the wrong arity, or empty attribute values.
Result<WorkerTable> WorkerTableFromCsvRows(
    const std::vector<std::vector<std::string>>& rows);

// The inverse direction: exports a dataset back to the crawl-record and
// worker-table CSV formats (closing the ingest round trip, e.g. for handing
// an audited dataset to the CLI or another tool).
std::vector<CrawlRecord> DatasetToCrawlRecords(const MarketplaceDataset& data);
std::vector<std::vector<std::string>> WorkerTableToCsvRows(
    const MarketplaceDataset& data);

// CSV round trip for search-engine study runs. Header
// `user,query,location,results`; the ranked result documents are joined
// with '|' (best first), so document keys must not contain '|'.
// Errors: InvalidArgument (malformed rows; empty result lists; '|' in a
// document key on export).
Result<std::vector<std::vector<std::string>>> SearchRunRecordsToCsvRows(
    const std::vector<SearchRunRecord>& runs);
Result<std::vector<SearchRunRecord>> SearchRunRecordsFromCsvRows(
    const std::vector<std::vector<std::string>>& rows);

// Exports an assembled search dataset back to run records (needs the
// document vocabulary produced by AssembleSearch to name the RankedList
// ids). Errors: InvalidArgument when a document id is outside `documents`.
Result<std::vector<SearchRunRecord>> DatasetToSearchRunRecords(
    const SearchDataset& data, const Vocabulary& documents);

}  // namespace fairjob

#endif  // FAIRJOB_CRAWL_DATASET_ASSEMBLY_H_
