#include "core/data_model.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace fairjob {
namespace {

// True when every id is in [lo, hi] and none repeats: one sorted copy
// instead of a hash-set insert per id. Callers rerun their ordered check
// only on failure, to name the first offender.
bool IdsDistinctWithin(const std::vector<int32_t>& ids, int64_t lo,
                       int64_t hi) {
  if (ids.empty()) return true;
  std::vector<int32_t> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  if (sorted.front() < lo || sorted.back() > hi) return false;
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace

int32_t Vocabulary::GetOrAdd(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  int32_t id = static_cast<int32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

Result<int32_t> Vocabulary::Find(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return Status::NotFound("'" + std::string(name) + "' not in vocabulary");
  }
  return it->second;
}

Result<WorkerId> MarketplaceDataset::AddWorker(std::string_view name,
                                               Demographics demographics) {
  if (!schema_.IsValidDemographics(demographics)) {
    return Status::InvalidArgument("worker '" + std::string(name) +
                                   "' has invalid demographics");
  }
  const size_t known = workers_.size();
  WorkerId id = workers_.GetOrAdd(name);
  if (workers_.size() == known) {
    return Status::AlreadyExists("worker '" + std::string(name) +
                                 "' already registered");
  }
  demographics_.push_back(std::move(demographics));
  return id;
}

Status MarketplaceDataset::ValidateRanking(const MarketRanking& ranking) const {
  if (!ranking.scores.empty() &&
      ranking.scores.size() != ranking.workers.size()) {
    return Status::InvalidArgument(
        "scores length disagrees with worker list length");
  }
  if (IdsDistinctWithin(ranking.workers, 0,
                        static_cast<int64_t>(demographics_.size()) - 1)) {
    return Status::OK();
  }
  // Name the first offender, in list order.
  std::unordered_set<WorkerId> seen;
  for (WorkerId w : ranking.workers) {
    if (w < 0 || static_cast<size_t>(w) >= demographics_.size()) {
      return Status::InvalidArgument("ranking references unknown worker id " +
                                     std::to_string(w));
    }
    if (!seen.insert(w).second) {
      return Status::InvalidArgument("ranking lists worker " +
                                     std::to_string(w) + " twice");
    }
  }
  return Status::OK();
}

Status MarketplaceDataset::SetRanking(QueryId q, LocationId l,
                                      MarketRanking ranking) {
  FAIRJOB_RETURN_IF_ERROR(ValidateRanking(ranking));
  rankings_[QueryLocation{q, l}] = std::move(ranking);
  return Status::OK();
}

const MarketRanking* MarketplaceDataset::GetRanking(QueryId q,
                                                    LocationId l) const {
  auto it = rankings_.find(QueryLocation{q, l});
  return it == rankings_.end() ? nullptr : &it->second;
}

std::vector<QueryLocation> MarketplaceDataset::RankedPairs() const {
  std::vector<QueryLocation> pairs;
  pairs.reserve(rankings_.size());
  for (const auto& [ql, ranking] : rankings_) pairs.push_back(ql);
  std::sort(pairs.begin(), pairs.end(),
            [](const QueryLocation& a, const QueryLocation& b) {
              if (a.query != b.query) return a.query < b.query;
              return a.location < b.location;
            });
  return pairs;
}

Result<UserId> SearchDataset::AddUser(std::string_view name,
                                      Demographics demographics) {
  if (!schema_.IsValidDemographics(demographics)) {
    return Status::InvalidArgument("user '" + std::string(name) +
                                   "' has invalid demographics");
  }
  const size_t known = users_.size();
  UserId id = users_.GetOrAdd(name);
  if (users_.size() == known) {
    return Status::AlreadyExists("user '" + std::string(name) +
                                 "' already registered");
  }
  demographics_.push_back(std::move(demographics));
  return id;
}

namespace {

Status ValidateObservation(const SearchObservation& obs, size_t num_users) {
  if (obs.user < 0 || static_cast<size_t>(obs.user) >= num_users) {
    return Status::InvalidArgument("observation references unknown user id " +
                                   std::to_string(obs.user));
  }
  if (obs.results.empty()) {
    return Status::InvalidArgument("observation has an empty result list");
  }
  if (IdsDistinctWithin(obs.results, std::numeric_limits<int32_t>::min(),
                        std::numeric_limits<int32_t>::max())) {
    return Status::OK();
  }
  // Name the first repeated document, in list order.
  std::unordered_set<int32_t> seen;
  for (int32_t doc : obs.results) {
    if (!seen.insert(doc).second) {
      return Status::InvalidArgument("result list contains document " +
                                     std::to_string(doc) + " twice");
    }
  }
  return Status::OK();
}

}  // namespace

Status SearchDataset::AddObservation(QueryId q, LocationId l,
                                     SearchObservation obs) {
  FAIRJOB_RETURN_IF_ERROR(ValidateObservation(obs, demographics_.size()));
  observations_[QueryLocation{q, l}].push_back(std::move(obs));
  return Status::OK();
}

Status SearchDataset::ValidateObservations(
    const std::vector<SearchObservation>& observations) const {
  for (const SearchObservation& obs : observations) {
    FAIRJOB_RETURN_IF_ERROR(ValidateObservation(obs, demographics_.size()));
  }
  return Status::OK();
}

Status SearchDataset::SetObservations(
    QueryId q, LocationId l, std::vector<SearchObservation> observations) {
  FAIRJOB_RETURN_IF_ERROR(ValidateObservations(observations));
  if (observations.empty()) {
    observations_.erase(QueryLocation{q, l});
  } else {
    observations_[QueryLocation{q, l}] = std::move(observations);
  }
  return Status::OK();
}

const std::vector<SearchObservation>* SearchDataset::GetObservations(
    QueryId q, LocationId l) const {
  auto it = observations_.find(QueryLocation{q, l});
  return it == observations_.end() ? nullptr : &it->second;
}

std::vector<QueryLocation> SearchDataset::ObservedPairs() const {
  std::vector<QueryLocation> pairs;
  pairs.reserve(observations_.size());
  for (const auto& [ql, obs] : observations_) pairs.push_back(ql);
  std::sort(pairs.begin(), pairs.end(),
            [](const QueryLocation& a, const QueryLocation& b) {
              if (a.query != b.query) return a.query < b.query;
              return a.location < b.location;
            });
  return pairs;
}

}  // namespace fairjob
