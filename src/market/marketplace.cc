#include "market/marketplace.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

namespace fairjob {
namespace {

// Stable 64-bit string hash (FNV-1a) for per-(job, city) ranking seeds.
uint64_t HashKey(uint64_t seed, const std::string& a, const std::string& b) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0x1f;
    h *= 0x100000001b3ULL;
  };
  mix(a);
  mix(b);
  return h;
}

}  // namespace

Result<SimulatedMarketplace> SimulatedMarketplace::Make(
    AttributeSchema schema, std::vector<SimWorker> workers,
    std::vector<std::string> cities, std::vector<JobOffering> offerings,
    std::unordered_set<std::string> excluded, ScoringModel scoring,
    Config config) {
  if (cities.empty()) return Status::InvalidArgument("no cities");
  if (offerings.empty()) return Status::InvalidArgument("no job offerings");

  SimulatedMarketplace site(std::move(schema), std::move(scoring), config);
  site.cities_ = std::move(cities);
  for (size_t i = 0; i < site.cities_.size(); ++i) {
    site.city_index_.emplace(site.cities_[i], i);
  }
  site.workers_in_city_.resize(site.cities_.size());
  site.workers_ = std::move(workers);
  for (size_t i = 0; i < site.workers_.size(); ++i) {
    const SimWorker& w = site.workers_[i];
    if (w.city_index >= site.cities_.size()) {
      return Status::InvalidArgument("worker '" + w.name +
                                     "' references an unknown city");
    }
    if (!site.schema_.IsValidDemographics(w.demographics)) {
      return Status::InvalidArgument("worker '" + w.name +
                                     "' has invalid demographics");
    }
    if (!site.worker_by_name_.emplace(w.name, i).second) {
      return Status::InvalidArgument("duplicate worker name '" + w.name + "'");
    }
    site.worker_by_picture_.emplace(w.picture_ref, i);
    site.workers_in_city_[w.city_index].push_back(i);
  }
  site.offerings_ = std::move(offerings);
  std::unordered_map<std::string_view, size_t> category_ids;
  site.offering_category_.reserve(site.offerings_.size());
  for (size_t i = 0; i < site.offerings_.size(); ++i) {
    if (!site.offering_by_subjob_.emplace(site.offerings_[i].sub_job, i)
             .second) {
      return Status::InvalidArgument("duplicate sub-job '" +
                                     site.offerings_[i].sub_job + "'");
    }
    site.offering_category_.push_back(
        category_ids.emplace(site.offerings_[i].category, category_ids.size())
            .first->second);
  }
  site.num_categories_ = category_ids.size();

  // (city, offering) is excluded iff "city|sub_job" is a key of `excluded`;
  // matching each key against the city names costs |excluded| × |cities|
  // comparisons instead of one string build per pair.
  const size_t num_offerings = site.offerings_.size();
  site.offered_.assign(site.cities_.size() * num_offerings, 1);
  for (const std::string& key : excluded) {
    for (size_t c = 0; c < site.cities_.size(); ++c) {
      const std::string& city = site.cities_[c];
      if (key.size() <= city.size() || key[city.size()] != '|' ||
          key.compare(0, city.size(), city) != 0) {
        continue;
      }
      auto offering =
          site.offering_by_subjob_.find(key.substr(city.size() + 1));
      if (offering != site.offering_by_subjob_.end()) {
        site.offered_[c * num_offerings + offering->second] = 0;
      }
    }
  }
  site.num_offered_ = static_cast<size_t>(
      std::count(site.offered_.begin(), site.offered_.end(), 1));
  return site;
}

std::vector<std::string> SimulatedMarketplace::Cities() const {
  return cities_;
}

size_t SimulatedMarketplace::OfferedSlot(const std::string& job,
                                         const std::string& city) const {
  auto c = city_index_.find(city);
  auto o = offering_by_subjob_.find(job);
  if (c == city_index_.end() || o == offering_by_subjob_.end()) {
    return offered_.size();
  }
  const size_t slot = c->second * offerings_.size() + o->second;
  return offered_[slot] != 0 ? slot : offered_.size();
}

bool SimulatedMarketplace::IsOffered(const std::string& job,
                                     const std::string& city) const {
  return OfferedSlot(job, city) != offered_.size();
}

size_t SimulatedMarketplace::num_queries_offered() const {
  return num_offered_;
}

std::vector<std::string> SimulatedMarketplace::JobsIn(
    const std::string& city) const {
  std::vector<std::string> jobs;
  auto c = city_index_.find(city);
  if (c == city_index_.end()) return jobs;
  jobs.reserve(offerings_.size());
  const uint8_t* offered = offered_.data() + c->second * offerings_.size();
  for (size_t o = 0; o < offerings_.size(); ++o) {
    if (offered[o] != 0) jobs.push_back(offerings_[o].sub_job);
  }
  return jobs;
}

Result<std::vector<size_t>> SimulatedMarketplace::RankFor(
    const std::string& job, const std::string& city) {
  FAIRJOB_ASSIGN_OR_RETURN(const std::vector<size_t>* ranking,
                           Ranking(job, city));
  return *ranking;
}

Result<const std::vector<size_t>*> SimulatedMarketplace::Ranking(
    const std::string& job, const std::string& city) {
  const size_t slot = OfferedSlot(job, city);
  if (slot == offered_.size()) {
    return Status::NotFound("'" + job + "' is not offered in '" + city + "'");
  }
  if (ranked_.empty()) {
    rankings_.resize(offered_.size());
    ranked_.assign(offered_.size(), 0);
  }
  if (ranked_[slot] == 0) {
    BuildRanking(slot / offerings_.size(), slot % offerings_.size(),
                 &rankings_[slot]);
    ranked_[slot] = 1;
  }
  return &rankings_[slot];
}

const std::vector<size_t>& SimulatedMarketplace::Pool(size_t city,
                                                      size_t offering) {
  if (config_.category_participation >= 1.0) return workers_in_city_[city];
  if (pooled_.empty()) {
    pools_.resize(cities_.size() * num_categories_);
    pooled_.assign(pools_.size(), 0);
  }
  const size_t slot = city * num_categories_ + offering_category_[offering];
  std::vector<size_t>& pool = pools_[slot];
  if (pooled_[slot] != 0) return pool;
  const std::string& category = offerings_[offering].category;
  for (size_t widx : workers_in_city_[city]) {
    // Stable per (worker, category): a tasker either offers a category or
    // does not, across every sub-job and repeated crawl.
    Rng participation(
        HashKey(config_.seed ^ 0x9a27ULL, workers_[widx].name, category));
    if (participation.NextBernoulli(config_.category_participation)) {
      pool.push_back(widx);
    }
  }
  pooled_[slot] = 1;
  return pool;
}

void SimulatedMarketplace::BuildRanking(size_t city, size_t offering_idx,
                                        std::vector<size_t>* ranking) {
  const JobOffering& offering = offerings_[offering_idx];
  const std::string& city_name = cities_[city];
  Rng rng(HashKey(config_.seed + 0x9e3779b97f4a7c15ULL * epoch_,
                  offering.sub_job, city_name));
  const std::vector<size_t>& pool = Pool(city, offering_idx);

  // Penalty is constant per demographic cell: computed on the first worker
  // of each cell (NaN marks "not yet").
  std::vector<double> penalty(scoring_.num_penalty_cells(),
                              std::numeric_limits<double>::quiet_NaN());
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(pool.size());
  for (size_t widx : pool) {
    const SimWorker& w = workers_[widx];
    double& cell = penalty[scoring_.PenaltyCell(w.demographics)];
    if (std::isnan(cell)) {
      cell = scoring_.Penalty(offering.sub_job, offering.category, city_name,
                              w.demographics);
    }
    scored.emplace_back(scoring_.ScoreWithPenalty(w.base_quality, cell, &rng),
                        widx);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  ranking->clear();
  ranking->reserve(scored.size());
  for (const auto& [score, widx] : scored) ranking->push_back(widx);
}

void SimulatedMarketplace::SetEpoch(uint32_t epoch) {
  if (epoch == epoch_) return;
  epoch_ = epoch;
  std::fill(ranked_.begin(), ranked_.end(), 0);
}

Result<ResultPage> SimulatedMarketplace::FetchPage(const std::string& job,
                                                   const std::string& city,
                                                   size_t page,
                                                   size_t page_size) {
  if (page_size == 0) return Status::InvalidArgument("page_size must be > 0");
  if (failure_rng_.NextBernoulli(config_.transient_failure_rate)) {
    return Status::IOError("simulated transient failure (rate limited)");
  }
  FAIRJOB_ASSIGN_OR_RETURN(const std::vector<size_t>* ranking,
                           Ranking(job, city));
  ResultPage out;
  size_t begin = page * page_size;
  size_t end = std::min(ranking->size(), begin + page_size);
  if (begin < end) out.worker_names.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out.worker_names.push_back(workers_[(*ranking)[i]].name);
  }
  out.has_more = end < ranking->size();
  return out;
}

Result<RawProfile> SimulatedMarketplace::FetchProfile(
    const std::string& worker_name) {
  if (failure_rng_.NextBernoulli(config_.transient_failure_rate)) {
    return Status::IOError("simulated transient failure (rate limited)");
  }
  auto it = worker_by_name_.find(worker_name);
  if (it == worker_by_name_.end()) {
    return Status::NotFound("no worker '" + worker_name + "'");
  }
  const SimWorker& w = workers_[it->second];
  RawProfile profile;
  profile.worker_name = w.name;
  profile.picture_ref = w.picture_ref;
  profile.hourly_rate = w.hourly_rate;
  profile.num_reviews = w.num_reviews;
  profile.badges = w.num_reviews > 50 ? "elite" : "";
  return profile;
}

Result<Demographics> SimulatedMarketplace::TrueDemographics(
    const std::string& worker_name) const {
  auto it = worker_by_name_.find(worker_name);
  if (it == worker_by_name_.end()) {
    return Status::NotFound("no worker '" + worker_name + "'");
  }
  return workers_[it->second].demographics;
}

Result<Demographics> SimulatedMarketplace::TruthByPicture(
    const std::string& picture_ref) const {
  auto it = worker_by_picture_.find(picture_ref);
  if (it == worker_by_picture_.end()) {
    return Status::NotFound("no picture '" + picture_ref + "'");
  }
  return workers_[it->second].demographics;
}

}  // namespace fairjob
