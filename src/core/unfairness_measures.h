#ifndef FAIRJOB_CORE_UNFAIRNESS_MEASURES_H_
#define FAIRJOB_CORE_UNFAIRNESS_MEASURES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/group_space.h"
#include "ranking/histogram.h"

namespace fairjob {

// Unfairness measures for online job marketplaces (Section 3.3): rankings of
// workers per (query, location).
enum class MarketMeasure {
  kEmd,       // avg EMD between relevance histograms of g and comparables
  kExposure,  // | exposure-share(g) − relevance-share(g) |, L1 deviation
};

// Unfairness measures for search engines (Section 3.2): personalized ranked
// lists per user. All are used as *distances* (higher = results diverge
// more across groups = more unfair); Jaccard is 1 − Jaccard index and RBO
// is 1 − RBO similarity. The paper evaluates the first two; footrule and
// RBO are extension measures for cross-measure agreement studies.
enum class SearchMeasure {
  kKendallTau,  // generalized top-k Kendall-Tau distance (Fagin et al.)
  kJaccard,     // Jaccard distance between result sets
  kFootrule,    // induced top-k Spearman footrule F^(ℓ) (Fagin et al.)
  kRbo,         // 1 − rank-biased overlap (Webber et al.)
};

const char* MarketMeasureName(MarketMeasure m);
const char* SearchMeasureName(SearchMeasure m);

// Position-bias curve behind the exposure measure.
enum class ExposureModel {
  kLogInverse,  // 1 / ln(1 + rank) — the paper's Figure 5 curve (default)
  kPowerLaw,    // rank^(−gamma) — the classic click-model falloff
};

struct MeasureOptions {
  // Bin count of the relevance/score histogram fed to EMD.
  size_t histogram_bins = 10;
  // Exposure position-bias curve and its power-law steepness.
  ExposureModel exposure_model = ExposureModel::kLogInverse;
  double exposure_gamma = 1.0;
  // Penalty p of the generalized top-k Kendall-Tau (0 optimistic, 0.5
  // neutral).
  double kendall_penalty = 0.5;
  // Persistence p of RBO (top-weightedness; ~86% of weight on the top 10 at
  // 0.9).
  double rbo_persistence = 0.9;
  // EMD / exposure: use the site's scores f_q^l(w) when the ranking carries
  // them; otherwise (or when false) fall back to the rank-derived relevance
  // 1 − rank/N.
  bool use_scores_if_available = true;
};

// Option checks shared by both marketplace evaluation paths (per-triple
// reference, batched engine). Errors: InvalidArgument on malformed options.
Status ValidateMarketplaceOptions(const MeasureOptions& options);

// Per-worker value the marketplace measures operate on, parallel to
// `ranking.workers`: the site score when available (and wanted), else the
// rank-derived relevance 1 − rank/N.
Result<std::vector<double>> MarketplaceWorkerValues(
    const MarketRanking& ranking, const MeasureOptions& options);

// d<g,q,l> for a marketplace (Eq. 2 / Section 3.3). Averages the chosen
// distance between group g and each comparable group that has at least one
// member in the (q, l) ranking.
//
// Errors:
//  * NotFound — the triple is undefined: no ranking observed for (q, l), g
//    has no member in it, or no comparable group has members. Callers treat
//    this as a missing cube cell.
//  * InvalidArgument — malformed options.
Result<double> MarketplaceUnfairness(const MarketplaceDataset& data,
                                     const GroupSpace& space, GroupId g,
                                     QueryId q, LocationId l,
                                     MarketMeasure measure,
                                     const MeasureOptions& options = {});

// Distance between two personalized result lists under the chosen search
// measure (the DIST building block of Eq. 1). Errors: InvalidArgument on
// malformed lists or options.
Result<double> SearchListDistance(SearchMeasure measure, const RankedList& a,
                                  const RankedList& b,
                                  const MeasureOptions& options = {});

// d<g,q,l> for a search engine (Eq. 1 / Section 3.2). Averages, over each
// comparable group g' with observations, the mean pairwise distance between
// result lists of g-members and g'-members.
//
// Errors: as above.
Result<double> SearchUnfairness(const SearchDataset& data,
                                const GroupSpace& space, GroupId g, QueryId q,
                                LocationId l, SearchMeasure measure,
                                const MeasureOptions& options = {});

}  // namespace fairjob

#endif  // FAIRJOB_CORE_UNFAIRNESS_MEASURES_H_
