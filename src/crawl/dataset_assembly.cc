#include "crawl/dataset_assembly.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "common/metrics.h"
#include "common/string_util.h"

namespace fairjob {
namespace {

// `assembly.*` observability (docs/observability.md): records dropped
// because their worker has no demographic label, added once per call.
Counter* DroppedRecords() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("assembly.dropped_records");
  return counter;
}

}  // namespace

Result<MarketplaceAssembly> AssembleMarketplace(
    const AttributeSchema& schema, const std::vector<CrawlRecord>& records,
    const std::unordered_map<std::string, Demographics>&
        demographics_by_worker) {
  MarketplaceAssembly out{MarketplaceDataset(schema), 0};
  MarketplaceDataset& ds = out.dataset;

  // Each record's worker id, resolved once. A worker is registered at its
  // first record, so ids follow crawl order; unlabeled workers resolve to
  // kUnlabeled and their records are dropped below.
  constexpr WorkerId kUnlabeled = -1;
  std::vector<WorkerId> record_worker(records.size());
  std::unordered_map<std::string_view, WorkerId> worker_ids;
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string& name = records[i].worker_name;
    auto [it, first] = worker_ids.try_emplace(name, kUnlabeled);
    if (first) {
      auto demo = demographics_by_worker.find(name);
      if (demo != demographics_by_worker.end()) {
        FAIRJOB_ASSIGN_OR_RETURN(it->second, ds.AddWorker(name, demo->second));
      }
    }
    record_worker[i] = it->second;
  }

  // Record indices per (job, city), in crawl order. std::map gives a
  // deterministic query/location numbering from identical crawls
  // (string_view keys order exactly as std::string keys do). A crawl emits
  // each query's records contiguously, so the map is probed once per run of
  // equal (job, city), not once per record.
  std::map<std::pair<std::string_view, std::string_view>, std::vector<size_t>>
      per_query;
  std::vector<size_t>* run = nullptr;
  for (size_t i = 0; i < records.size(); ++i) {
    const CrawlRecord& r = records[i];
    if (run == nullptr || r.job != records[i - 1].job ||
        r.city != records[i - 1].city) {
      run = &per_query[{r.job, r.city}];
    }
    run->push_back(i);
  }

  auto by_rank = [&records](size_t a, size_t b) {
    return records[a].rank < records[b].rank;
  };
  for (auto& [key, group] : per_query) {
    if (!std::is_sorted(group.begin(), group.end(), by_rank)) {
      std::stable_sort(group.begin(), group.end(), by_rank);
    }
    MarketRanking ranking;
    ranking.workers.reserve(group.size());
    for (size_t i : group) {
      if (record_worker[i] == kUnlabeled) {
        ++out.dropped_records;
        continue;
      }
      ranking.workers.push_back(record_worker[i]);
    }
    if (ranking.workers.empty()) continue;
    QueryId q = ds.queries().GetOrAdd(key.first);
    LocationId l = ds.locations().GetOrAdd(key.second);
    FAIRJOB_RETURN_IF_ERROR(ds.SetRanking(q, l, std::move(ranking)));
  }
  DroppedRecords()->Add(out.dropped_records);
  return out;
}

Result<SearchAssembly> AssembleSearch(
    const AttributeSchema& schema, const std::vector<SearchRunRecord>& runs,
    const std::unordered_map<std::string, Demographics>&
        demographics_by_user) {
  SearchAssembly out{SearchDataset(schema), Vocabulary(), 0};
  SearchDataset& ds = out.dataset;

  std::unordered_map<std::string, UserId> user_ids;
  for (const SearchRunRecord& run : runs) {
    auto demo = demographics_by_user.find(run.user);
    if (demo == demographics_by_user.end()) {
      ++out.dropped_runs;
      continue;
    }
    UserId uid;
    auto it = user_ids.find(run.user);
    if (it == user_ids.end()) {
      FAIRJOB_ASSIGN_OR_RETURN(uid, ds.AddUser(run.user, demo->second));
      user_ids.emplace(run.user, uid);
    } else {
      uid = it->second;
    }

    SearchObservation obs;
    obs.user = uid;
    obs.results.reserve(run.results.size());
    for (const std::string& doc : run.results) {
      obs.results.push_back(out.documents.GetOrAdd(doc));
    }
    QueryId q = ds.queries().GetOrAdd(run.query);
    LocationId l = ds.locations().GetOrAdd(run.location);
    FAIRJOB_RETURN_IF_ERROR(ds.AddObservation(q, l, std::move(obs)));
  }
  return out;
}


Result<WorkerTable> WorkerTableFromCsvRows(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty() || rows[0].size() < 2 ||
      (rows[0][0] != "worker" && rows[0][0] != "user")) {
    return Status::InvalidArgument(
        "worker CSV needs a 'worker,<attribute>,...' (or user,...) header");
  }
  const std::vector<std::string>& header = rows[0];
  size_t num_attrs = header.size() - 1;

  // First pass: collect each attribute's value domain (sorted, distinct).
  std::vector<std::set<std::string>> domains(num_attrs);
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != header.size()) {
      return Status::InvalidArgument("worker CSV row " + std::to_string(r) +
                                     " has " + std::to_string(rows[r].size()) +
                                     " fields, expected " +
                                     std::to_string(header.size()));
    }
    for (size_t a = 0; a < num_attrs; ++a) {
      if (rows[r][a + 1].empty()) {
        return Status::InvalidArgument("empty attribute value in row " +
                                       std::to_string(r));
      }
      domains[a].insert(rows[r][a + 1]);
    }
  }
  if (rows.size() < 2) {
    return Status::InvalidArgument("worker CSV has no data rows");
  }

  WorkerTable table;
  for (size_t a = 0; a < num_attrs; ++a) {
    std::vector<std::string> values(domains[a].begin(), domains[a].end());
    Result<AttributeId> added =
        table.schema.AddAttribute(header[a + 1], std::move(values));
    if (!added.ok()) return added.status();
  }

  for (size_t r = 1; r < rows.size(); ++r) {
    Demographics d(num_attrs, 0);
    for (size_t a = 0; a < num_attrs; ++a) {
      FAIRJOB_ASSIGN_OR_RETURN(
          d[a],
          table.schema.FindValue(static_cast<AttributeId>(a), rows[r][a + 1]));
    }
    if (!table.demographics.emplace(rows[r][0], std::move(d)).second) {
      return Status::InvalidArgument("duplicate worker '" + rows[r][0] +
                                     "' in worker CSV");
    }
  }
  return table;
}

std::vector<CrawlRecord> DatasetToCrawlRecords(const MarketplaceDataset& data) {
  std::vector<CrawlRecord> records;
  for (const QueryLocation& ql : data.RankedPairs()) {
    const MarketRanking* ranking = data.GetRanking(ql.query, ql.location);
    for (size_t i = 0; i < ranking->workers.size(); ++i) {
      records.push_back(CrawlRecord{data.queries().NameOf(ql.query),
                                    data.locations().NameOf(ql.location),
                                    i + 1,
                                    data.workers().NameOf(ranking->workers[i])});
    }
  }
  return records;
}

Result<std::vector<std::vector<std::string>>> SearchRunRecordsToCsvRows(
    const std::vector<SearchRunRecord>& runs) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"user", "query", "location", "results"});
  for (const SearchRunRecord& run : runs) {
    if (run.results.empty()) {
      return Status::InvalidArgument("run for user '" + run.user +
                                     "' has no results");
    }
    for (const std::string& doc : run.results) {
      if (doc.find('|') != std::string::npos) {
        return Status::InvalidArgument("document key '" + doc +
                                       "' contains the '|' separator");
      }
    }
    rows.push_back({run.user, run.query, run.location,
                    Join(run.results, "|")});
  }
  return rows;
}

Result<std::vector<SearchRunRecord>> SearchRunRecordsFromCsvRows(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty() || rows[0].size() != 4 || rows[0][0] != "user") {
    return Status::InvalidArgument(
        "search-run CSV needs a 'user,query,location,results' header");
  }
  std::vector<SearchRunRecord> runs;
  runs.reserve(rows.size() - 1);
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != 4) {
      return Status::InvalidArgument("search-run CSV row " +
                                     std::to_string(r) + " has " +
                                     std::to_string(rows[r].size()) +
                                     " fields, expected 4");
    }
    SearchRunRecord run;
    run.user = rows[r][0];
    run.query = rows[r][1];
    run.location = rows[r][2];
    run.results = Split(rows[r][3], '|');
    if (run.results.size() == 1 && run.results[0].empty()) {
      return Status::InvalidArgument("search-run CSV row " +
                                     std::to_string(r) +
                                     " has an empty result list");
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<std::vector<std::string>> WorkerTableToCsvRows(
    const MarketplaceDataset& data) {
  const AttributeSchema& schema = data.schema();
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header = {"worker"};
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    header.push_back(schema.attribute_name(static_cast<AttributeId>(a)));
  }
  rows.push_back(std::move(header));
  for (size_t w = 0; w < data.num_workers(); ++w) {
    std::vector<std::string> row = {
        data.workers().NameOf(static_cast<WorkerId>(w))};
    const Demographics& d =
        data.worker_demographics(static_cast<WorkerId>(w));
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      row.push_back(schema.value_name(static_cast<AttributeId>(a), d[a]));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<SearchRunRecord>> DatasetToSearchRunRecords(
    const SearchDataset& data, const Vocabulary& documents) {
  std::vector<SearchRunRecord> runs;
  for (QueryId q = 0; q < static_cast<QueryId>(data.queries().size()); ++q) {
    for (LocationId l = 0;
         l < static_cast<LocationId>(data.locations().size()); ++l) {
      const std::vector<SearchObservation>* obs = data.GetObservations(q, l);
      if (obs == nullptr) continue;
      for (const SearchObservation& o : *obs) {
        SearchRunRecord run;
        run.user = data.users().NameOf(o.user);
        run.query = data.queries().NameOf(q);
        run.location = data.locations().NameOf(l);
        for (int32_t doc : o.results) {
          if (doc < 0 || static_cast<size_t>(doc) >= documents.size()) {
            return Status::InvalidArgument(
                "document id " + std::to_string(doc) +
                " missing from the provided vocabulary");
          }
          run.results.push_back(documents.NameOf(doc));
        }
        runs.push_back(std::move(run));
      }
    }
  }
  return runs;
}

}  // namespace fairjob