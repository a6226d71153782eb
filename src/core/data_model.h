#ifndef FAIRJOB_CORE_DATA_MODEL_H_
#define FAIRJOB_CORE_DATA_MODEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/attribute_schema.h"
#include "ranking/kendall_tau.h"

namespace fairjob {

using QueryId = int32_t;
using LocationId = int32_t;
using WorkerId = int32_t;
using UserId = int32_t;

// Bidirectional string <-> dense id mapping for queries, locations, workers,
// users and documents. Lookups hash the string_view directly (transparent
// hash), so Find and a GetOrAdd hit build no std::string.
class Vocabulary {
 public:
  // Returns the existing id or assigns the next dense id.
  int32_t GetOrAdd(std::string_view name);

  // Errors: NotFound.
  Result<int32_t> Find(std::string_view name) const;

  const std::string& NameOf(int32_t id) const {
    return names_[static_cast<size_t>(id)];
  }
  size_t size() const { return names_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, int32_t, Hash, std::equal_to<>> ids_;
};

// Key for per-(query, location) observations.
struct QueryLocation {
  QueryId query;
  LocationId location;

  friend bool operator==(const QueryLocation& a, const QueryLocation& b) {
    return a.query == b.query && a.location == b.location;
  }
  struct Hash {
    size_t operator()(const QueryLocation& ql) const {
      return static_cast<size_t>(ql.query) * 0x9e3779b97f4a7c15ULL +
             static_cast<size_t>(ql.location);
    }
  };
};

// One marketplace result page: workers best-first, with optional scores
// f_q^l(w) parallel to `workers` (empty when the site exposes only ranks).
struct MarketRanking {
  std::vector<WorkerId> workers;
  std::vector<double> scores;
};

// A TaskRabbit-style dataset: a worker population with demographics and a
// ranked worker list per (query, location).
class MarketplaceDataset {
 public:
  explicit MarketplaceDataset(AttributeSchema schema)
      : schema_(std::move(schema)) {}

  const AttributeSchema& schema() const { return schema_; }

  // Registers a worker. Errors: InvalidArgument on invalid demographics,
  // AlreadyExists on duplicate names.
  Result<WorkerId> AddWorker(std::string_view name, Demographics demographics);

  size_t num_workers() const { return demographics_.size(); }
  const Demographics& worker_demographics(WorkerId w) const {
    return demographics_[static_cast<size_t>(w)];
  }
  const std::vector<Demographics>& all_demographics() const {
    return demographics_;
  }
  const Vocabulary& workers() const { return workers_; }

  Vocabulary& queries() { return queries_; }
  const Vocabulary& queries() const { return queries_; }
  Vocabulary& locations() { return locations_; }
  const Vocabulary& locations() const { return locations_; }

  // Stores the result list for (q, l). Errors: InvalidArgument on unknown
  // worker ids, duplicate workers within the list, or a scores vector whose
  // length disagrees with the worker list.
  Status SetRanking(QueryId q, LocationId l, MarketRanking ranking);

  // The exact checks SetRanking applies, without mutating anything — lets
  // batch ingestion (serve/incremental.h) validate a whole crawl batch
  // before applying any row of it.
  Status ValidateRanking(const MarketRanking& ranking) const;

  // Null when (q, l) was never observed.
  const MarketRanking* GetRanking(QueryId q, LocationId l) const;

  size_t num_rankings() const { return rankings_.size(); }

  // Every observed (query, location) pair, sorted for determinism.
  std::vector<QueryLocation> RankedPairs() const;

 private:
  AttributeSchema schema_;
  Vocabulary workers_;
  Vocabulary queries_;
  Vocabulary locations_;
  std::vector<Demographics> demographics_;
  std::unordered_map<QueryLocation, MarketRanking, QueryLocation::Hash>
      rankings_;
};

// One personalized result list observed for a user (a search-engine run of
// query q at location l). Users may contribute several observations per
// (q, l) — e.g. repeated runs or alternative search-term formulations.
struct SearchObservation {
  UserId user;
  RankedList results;  // document/job ids, best first
};

// A Google-job-search-style dataset: users with demographics and, per
// (query, location), the personalized lists collected for them.
class SearchDataset {
 public:
  explicit SearchDataset(AttributeSchema schema) : schema_(std::move(schema)) {}

  const AttributeSchema& schema() const { return schema_; }

  Result<UserId> AddUser(std::string_view name, Demographics demographics);

  size_t num_users() const { return demographics_.size(); }
  const Demographics& user_demographics(UserId u) const {
    return demographics_[static_cast<size_t>(u)];
  }
  const std::vector<Demographics>& all_demographics() const {
    return demographics_;
  }
  const Vocabulary& users() const { return users_; }

  Vocabulary& queries() { return queries_; }
  const Vocabulary& queries() const { return queries_; }
  Vocabulary& locations() { return locations_; }
  const Vocabulary& locations() const { return locations_; }

  // Appends an observation. Errors: InvalidArgument on unknown user or an
  // empty / duplicate-bearing result list.
  Status AddObservation(QueryId q, LocationId l, SearchObservation obs);

  // Replaces the whole observation set of (q, l) — the delta-ingestion seam
  // for study snapshots (serve/incremental.h): a fresh study run for one
  // cell supersedes whatever was collected before. An empty vector removes
  // the cell (it becomes unobserved). Validation runs over the entire
  // vector before anything mutates, so a failed call leaves the dataset
  // untouched. Errors: same conditions as AddObservation.
  Status SetObservations(QueryId q, LocationId l,
                         std::vector<SearchObservation> observations);

  // The exact checks SetObservations applies, without mutating anything —
  // lets batch ingestion validate a whole study snapshot before applying
  // any cell of it.
  Status ValidateObservations(
      const std::vector<SearchObservation>& observations) const;

  // Null when (q, l) has no observations.
  const std::vector<SearchObservation>* GetObservations(QueryId q,
                                                        LocationId l) const;

  size_t num_observation_cells() const { return observations_.size(); }

  // Every observed (query, location) pair, sorted for determinism.
  std::vector<QueryLocation> ObservedPairs() const;

 private:
  AttributeSchema schema_;
  Vocabulary users_;
  Vocabulary queries_;
  Vocabulary locations_;
  std::vector<Demographics> demographics_;
  std::unordered_map<QueryLocation, std::vector<SearchObservation>,
                     QueryLocation::Hash>
      observations_;
};

}  // namespace fairjob

#endif  // FAIRJOB_CORE_DATA_MODEL_H_
