#include "core/unfairness_measures.h"

#include <cmath>
#include <vector>

#include "common/trace.h"
#include "ranking/emd.h"
#include "ranking/exposure.h"
#include "ranking/footrule.h"
#include "ranking/histogram.h"
#include "ranking/jaccard.h"
#include "ranking/rbo.h"

namespace fairjob {

Result<std::vector<double>> MarketplaceWorkerValues(
    const MarketRanking& ranking, const MeasureOptions& options) {
  size_t n = ranking.workers.size();
  std::vector<double> values(n, 0.0);
  if (options.use_scores_if_available && !ranking.scores.empty()) {
    return ranking.scores;
  }
  for (size_t i = 0; i < n; ++i) {
    FAIRJOB_ASSIGN_OR_RETURN(values[i], RelevanceFromRank(i + 1, n));
  }
  return values;
}

Status ValidateMarketplaceOptions(const MeasureOptions& options) {
  if (options.histogram_bins < 1) {
    return Status::InvalidArgument("histogram_bins must be >= 1");
  }
  if (options.exposure_model == ExposureModel::kPowerLaw &&
      options.exposure_gamma <= 0.0) {
    return Status::InvalidArgument("exposure_gamma must be positive");
  }
  return Status::OK();
}

namespace {

// Marketplace kernel metrics of the per-triple reference path.
Counter* EmdInvocations() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("measure.emd.invocations");
  return counter;
}
LatencyHistogram* EmdLatency() {
  static LatencyHistogram* const histogram =
      MetricsRegistry::Global().histogram("measure.emd.latency_us");
  return histogram;
}
Counter* ExposureInvocations() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("measure.exposure.invocations");
  return counter;
}
LatencyHistogram* ExposureLatency() {
  static LatencyHistogram* const histogram =
      MetricsRegistry::Global().histogram("measure.exposure.latency_us");
  return histogram;
}

// Position bias of one 0-based ranking position under the chosen model.
// Routes through ranking/exposure.h — the single, memo-backed home of the
// 1/log(1+rank) curve — so the per-cell paths and the batched engine
// (core/marketplace_batch.h) read bitwise-identical bias values.
double PositionBias(size_t pos, const MeasureOptions& options) {
  return options.exposure_model == ExposureModel::kLogInverse
             ? ExposureAtRank(pos + 1)
             : ExposureAtRankPower(pos + 1, options.exposure_gamma);
}

// Positions (0-based ranks) in `ranking` whose worker belongs to group g.
std::vector<size_t> GroupPositions(const MarketplaceDataset& data,
                                   const GroupSpace& space, GroupId g,
                                   const MarketRanking& ranking) {
  const GroupLabel& label = space.label(g);
  std::vector<size_t> out;
  for (size_t i = 0; i < ranking.workers.size(); ++i) {
    if (label.Matches(data.worker_demographics(ranking.workers[i]))) {
      out.push_back(i);
    }
  }
  return out;
}

Result<double> MarketplaceEmd(const MarketplaceDataset& data,
                              const GroupSpace& space, GroupId g,
                              const MarketRanking& ranking,
                              const MeasureOptions& options) {
  FAIRJOB_ASSIGN_OR_RETURN(std::vector<double> values,
                           MarketplaceWorkerValues(ranking, options));
  std::vector<size_t> own = GroupPositions(data, space, g, ranking);
  if (own.empty()) {
    return Status::NotFound("group has no members in this ranking");
  }
  FAIRJOB_ASSIGN_OR_RETURN(Histogram own_hist,
                           Histogram::Make(options.histogram_bins, 0.0, 1.0));
  for (size_t pos : own) own_hist.Add(values[pos]);

  double sum = 0.0;
  size_t counted = 0;
  // Resolved outside the loop so the per-kernel cost while disabled is the
  // two relaxed loads inside Add/ScopedTimer, not the statics' init guards.
  Counter* const emd_invocations = EmdInvocations();
  LatencyHistogram* const emd_latency = EmdLatency();
  for (GroupId other : space.Comparables(g)) {
    std::vector<size_t> theirs = GroupPositions(data, space, other, ranking);
    if (theirs.empty()) continue;
    FAIRJOB_ASSIGN_OR_RETURN(Histogram their_hist,
                             Histogram::Make(options.histogram_bins, 0.0, 1.0));
    for (size_t pos : theirs) their_hist.Add(values[pos]);
    emd_invocations->Add(1);
    ScopedTimer timer(emd_latency);
    FAIRJOB_ASSIGN_OR_RETURN(double emd,
                             EmdBetweenHistograms(own_hist, their_hist));
    sum += emd;
    ++counted;
  }
  if (counted == 0) {
    return Status::NotFound("no comparable group has members in this ranking");
  }
  return sum / static_cast<double>(counted);
}

Result<double> MarketplaceExposure(const MarketplaceDataset& data,
                                   const GroupSpace& space, GroupId g,
                                   const MarketRanking& ranking,
                                   const MeasureOptions& options) {
  FAIRJOB_ASSIGN_OR_RETURN(std::vector<double> values,
                           MarketplaceWorkerValues(ranking, options));
  std::vector<size_t> own = GroupPositions(data, space, g, ranking);
  if (own.empty()) {
    return Status::NotFound("group has no members in this ranking");
  }

  ExposureInvocations()->Add(1);
  ScopedTimer timer(ExposureLatency());

  auto exposure_of = [&](const std::vector<size_t>& positions) {
    double total = 0.0;
    for (size_t pos : positions) total += PositionBias(pos, options);
    return total;
  };
  auto relevance_of = [&](const std::vector<size_t>& positions) {
    double total = 0.0;
    for (size_t pos : positions) total += values[pos];
    return total;
  };

  double own_exp = exposure_of(own);
  double own_rel = relevance_of(own);
  double exp_denominator = own_exp;
  double rel_denominator = own_rel;
  size_t comparable_members = 0;
  for (GroupId other : space.Comparables(g)) {
    std::vector<size_t> theirs = GroupPositions(data, space, other, ranking);
    comparable_members += theirs.size();
    exp_denominator += exposure_of(theirs);
    rel_denominator += relevance_of(theirs);
  }
  if (comparable_members == 0) {
    return Status::NotFound("no comparable group has members in this ranking");
  }
  // exp_denominator > 0 because g itself has members; rel_denominator can be
  // 0 only if every involved worker has relevance 0, in which case ideal
  // exposure is undefined — treat the relevance share as 0 then.
  double exp_share = own_exp / exp_denominator;
  double rel_share = rel_denominator > 0.0 ? own_rel / rel_denominator : 0.0;
  return std::fabs(exp_share - rel_share);
}

}  // namespace

const char* MarketMeasureName(MarketMeasure m) {
  switch (m) {
    case MarketMeasure::kEmd:
      return "EMD";
    case MarketMeasure::kExposure:
      return "Exposure";
  }
  return "?";
}

const char* SearchMeasureName(SearchMeasure m) {
  switch (m) {
    case SearchMeasure::kKendallTau:
      return "KendallTau";
    case SearchMeasure::kJaccard:
      return "Jaccard";
    case SearchMeasure::kFootrule:
      return "Footrule";
    case SearchMeasure::kRbo:
      return "RBO";
  }
  return "?";
}

Result<double> SearchListDistance(SearchMeasure measure, const RankedList& a,
                                  const RankedList& b,
                                  const MeasureOptions& options) {
  // Kernel-level observability, indexed by the SearchMeasure enum order.
  // One static (one init-guard load per call); while metrics are off the
  // only other work is a single relaxed load and a branch — this function
  // is the innermost kernel of the search cube build.
  struct KernelMetrics {
    Counter* invocations[4];
    LatencyHistogram* latencies[4];
  };
  static const KernelMetrics km = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return KernelMetrics{
        {r.counter("measure.kendall_tau.invocations"),
         r.counter("measure.jaccard.invocations"),
         r.counter("measure.footrule.invocations"),
         r.counter("measure.rbo.invocations")},
        {r.histogram("measure.kendall_tau.latency_us"),
         r.histogram("measure.jaccard.latency_us"),
         r.histogram("measure.footrule.latency_us"),
         r.histogram("measure.rbo.latency_us")}};
  }();
  size_t index = static_cast<size_t>(measure);
  LatencyHistogram* hist = nullptr;
  if (index < 4 && km.latencies[index]->recording()) {
    km.invocations[index]->Add(1);
    hist = km.latencies[index];
  }
  ScopedTimer timer(hist);
  switch (measure) {
    case SearchMeasure::kKendallTau:
      return KendallTauTopK(a, b, options.kendall_penalty);
    case SearchMeasure::kJaccard:
      return JaccardDistance(a, b);
    case SearchMeasure::kFootrule:
      return FootruleTopK(a, b);
    case SearchMeasure::kRbo:
      return RboDistance(a, b, options.rbo_persistence);
  }
  return Status::InvalidArgument("unknown search measure");
}

Result<double> MarketplaceUnfairness(const MarketplaceDataset& data,
                                     const GroupSpace& space, GroupId g,
                                     QueryId q, LocationId l,
                                     MarketMeasure measure,
                                     const MeasureOptions& options) {
  FAIRJOB_RETURN_IF_ERROR(ValidateMarketplaceOptions(options));
  const MarketRanking* ranking = data.GetRanking(q, l);
  if (ranking == nullptr || ranking->workers.empty()) {
    return Status::NotFound("no ranking observed for this (query, location)");
  }
  switch (measure) {
    case MarketMeasure::kEmd:
      return MarketplaceEmd(data, space, g, *ranking, options);
    case MarketMeasure::kExposure:
      return MarketplaceExposure(data, space, g, *ranking, options);
  }
  return Status::InvalidArgument("unknown marketplace measure");
}

Result<double> SearchUnfairness(const SearchDataset& data,
                                const GroupSpace& space, GroupId g, QueryId q,
                                LocationId l, SearchMeasure measure,
                                const MeasureOptions& options) {
  if (options.kendall_penalty < 0.0 || options.kendall_penalty > 1.0) {
    return Status::InvalidArgument("kendall_penalty must lie in [0, 1]");
  }
  const std::vector<SearchObservation>* obs = data.GetObservations(q, l);
  if (obs == nullptr || obs->empty()) {
    return Status::NotFound("no observations for this (query, location)");
  }

  auto lists_of_group = [&](GroupId group) {
    const GroupLabel& label = space.label(group);
    std::vector<const RankedList*> lists;
    for (const SearchObservation& o : *obs) {
      if (label.Matches(data.user_demographics(o.user))) {
        lists.push_back(&o.results);
      }
    }
    return lists;
  };

  std::vector<const RankedList*> own = lists_of_group(g);
  if (own.empty()) {
    return Status::NotFound("group has no observations for this cell");
  }

  double group_sum = 0.0;
  size_t group_count = 0;
  for (GroupId other : space.Comparables(g)) {
    std::vector<const RankedList*> theirs = lists_of_group(other);
    if (theirs.empty()) continue;
    // Row-partial-sum order: each of `own`'s rows is accumulated on its own
    // before joining the pair total. This is the same association the batched
    // cube path uses (per-comparable-group column sums, see
    // EvaluateSearchColumn), which keeps the two bitwise identical.
    double pair_sum = 0.0;
    for (const RankedList* a : own) {
      double row_sum = 0.0;
      for (const RankedList* b : theirs) {
        FAIRJOB_ASSIGN_OR_RETURN(double d,
                                 SearchListDistance(measure, *a, *b, options));
        row_sum += d;
      }
      pair_sum += row_sum;
    }
    group_sum += pair_sum / static_cast<double>(own.size() * theirs.size());
    ++group_count;
  }
  if (group_count == 0) {
    return Status::NotFound("no comparable group has observations");
  }
  return group_sum / static_cast<double>(group_count);
}

}  // namespace fairjob
