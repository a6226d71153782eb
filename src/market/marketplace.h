#ifndef FAIRJOB_MARKET_MARKETPLACE_H_
#define FAIRJOB_MARKET_MARKETPLACE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/attribute_schema.h"
#include "crawl/crawler.h"
#include "market/scoring.h"

namespace fairjob {

// One simulated tasker.
struct SimWorker {
  std::string name;
  Demographics demographics;  // ground truth ("the profile picture")
  double base_quality = 0.5;
  std::string picture_ref;
  double hourly_rate = 30.0;
  int num_reviews = 0;
  size_t city_index = 0;
};

// A job offering: the sub-job string users query for and its category
// (Table 9 rows are categories; Tables 13–15 rows are sub-jobs).
struct JobOffering {
  std::string sub_job;
  std::string category;
};

// The TaskRabbit-like site: city-local worker pools ranked per (sub-job,
// city) by the biased latent score of the ScoringModel. Rankings are
// deterministic per (seed, sub-job, city) and cached, so repeated crawls and
// pagination see a consistent order. Implements the crawler's
// MarketplaceSite interface and can also emit datasets directly.
//
// Everything a ranking needs beyond the site itself is computed lazily on
// first use and kept in flat [city × offering] / [city × category] tables:
// the ranking, and the category-participation filter (which does not
// depend on the epoch). A ranking evaluates ScoringModel::Penalty once per
// demographic cell, not once per worker.
class SimulatedMarketplace : public MarketplaceSite {
 public:
  struct Config {
    uint64_t seed = 42;
    // Probability that a FetchPage / FetchProfile attempt fails with a
    // retryable IOError (exercises the crawler's backoff path).
    double transient_failure_rate = 0.0;
    // Probability (deterministic per worker × category) that a worker offers
    // jobs in a category at all. Below 1.0, result lists shrink under the
    // crawler's 50-result cap, keeping the bottom of each ranking
    // observable.
    double category_participation = 1.0;
  };

  // `excluded` holds "city|sub_job" keys that are not offered (the paper's
  // crawl yielded 5,361 of the possible city × job combinations); a key
  // naming no (city, sub-job) pair excludes nothing.
  // Errors: InvalidArgument on empty cities/offerings or workers referencing
  // unknown cities.
  static Result<SimulatedMarketplace> Make(
      AttributeSchema schema, std::vector<SimWorker> workers,
      std::vector<std::string> cities, std::vector<JobOffering> offerings,
      std::unordered_set<std::string> excluded, ScoringModel scoring,
      Config config);

  // --- MarketplaceSite -------------------------------------------------------
  std::vector<std::string> Cities() const override;
  std::vector<std::string> JobsIn(const std::string& city) const override;
  Result<ResultPage> FetchPage(const std::string& job, const std::string& city,
                               size_t page, size_t page_size) override;
  Result<RawProfile> FetchProfile(const std::string& worker_name) override;

  // --- direct access (bypassing the crawl, for benches/tests) ---------------
  const AttributeSchema& schema() const { return schema_; }
  size_t num_workers() const { return workers_.size(); }
  const SimWorker& worker(size_t i) const { return workers_[i]; }

  // Ground truth demographics; stands in for "inspecting the profile
  // picture". Errors: NotFound.
  Result<Demographics> TrueDemographics(const std::string& worker_name) const;
  Result<Demographics> TruthByPicture(const std::string& picture_ref) const;

  // The full biased ranking for (sub-job, city): worker indices best-first.
  // Errors: NotFound when the pair is not offered.
  Result<std::vector<size_t>> RankFor(const std::string& job,
                                      const std::string& city);

  // Advances the marketplace to a new epoch: per-ranking noise is redrawn
  // (workers' relative standing shifts modestly) while the population, the
  // injected bias and category participation stay fixed. Rankings remain
  // deterministic per (seed, epoch, job, city) — the substrate for
  // monitoring audits across repeated crawls. Only the cached rankings are
  // dropped; the participation filter is kept.
  void SetEpoch(uint32_t epoch);
  uint32_t epoch() const { return epoch_; }

  const std::vector<JobOffering>& offerings() const { return offerings_; }
  bool IsOffered(const std::string& job, const std::string& city) const;

  // Offered (city, sub-job) pairs: the sum of JobsIn over Cities().
  size_t num_queries_offered() const;

 private:
  SimulatedMarketplace(AttributeSchema schema, ScoringModel scoring,
                       Config config)
      : schema_(std::move(schema)),
        scoring_(std::move(scoring)),
        config_(config),
        failure_rng_(config.seed ^ 0xfa11fa11u) {}

  // Index of (job, city) in the [city × offering] tables, or
  // offered_.size() when the pair is not offered.
  size_t OfferedSlot(const std::string& job, const std::string& city) const;
  // The cached ranking for (job, city), built on first use; stays valid
  // until SetEpoch changes the epoch. Errors: NotFound when the pair is not
  // offered.
  Result<const std::vector<size_t>*> Ranking(const std::string& job,
                                             const std::string& city);
  // Ranks the pool of (city, offering) into `ranking`.
  void BuildRanking(size_t city, size_t offering,
                    std::vector<size_t>* ranking);
  // The workers of `city` who offer the category of `offering` (all of
  // them at participation 1), in workers_in_city_ order; computed once per
  // (city, category).
  const std::vector<size_t>& Pool(size_t city, size_t offering);

  AttributeSchema schema_;
  ScoringModel scoring_;
  Config config_;
  Rng failure_rng_;
  uint32_t epoch_ = 0;

  std::vector<SimWorker> workers_;
  std::unordered_map<std::string, size_t> worker_by_name_;
  std::unordered_map<std::string, size_t> worker_by_picture_;
  std::vector<std::string> cities_;
  std::unordered_map<std::string, size_t> city_index_;
  std::vector<std::vector<size_t>> workers_in_city_;
  std::vector<JobOffering> offerings_;
  std::unordered_map<std::string, size_t> offering_by_subjob_;
  std::vector<size_t> offering_category_;  // dense category id per offering
  size_t num_categories_ = 0;
  std::vector<uint8_t> offered_;  // [city × offering]: not excluded
  size_t num_offered_ = 0;

  // Lazily sized on first use. `ranked_` flags which slots of `rankings_`
  // hold the current epoch's ranking; `pooled_` which slots of `pools_`
  // are computed.
  std::vector<std::vector<size_t>> rankings_;  // [city × offering]
  std::vector<uint8_t> ranked_;
  std::vector<std::vector<size_t>> pools_;  // [city × category]
  std::vector<uint8_t> pooled_;
};

}  // namespace fairjob

#endif  // FAIRJOB_MARKET_MARKETPLACE_H_
