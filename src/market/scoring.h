#ifndef FAIRJOB_MARKET_SCORING_H_
#define FAIRJOB_MARKET_SCORING_H_

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "core/attribute_schema.h"
#include "market/calibration.h"

namespace fairjob {

// Resolved, id-indexed view of a MarketCalibration against a concrete
// schema: turns name-keyed penalty maps into ValueId-indexed vectors.
//
// A score is Penalty + noise. Penalty does the string-keyed calibration
// lookups, and it depends on a worker only through the worker's
// (ethnicity, gender) cell, so a ranking computes it once per cell
// (PenaltyCell) rather than once per worker. The per-worker step,
// ScoreWithPenalty, is allocation-free.
class ScoringModel {
 public:
  // Errors: NotFound when the schema lacks a "gender" or "ethnicity"
  // attribute or the calibration names values the schema does not define.
  static Result<ScoringModel> Make(const AttributeSchema& schema,
                                   MarketCalibration calibration);

  const MarketCalibration& calibration() const { return calibration_; }

  // penalty(gender, ethnicity) for a worker, honouring the gender flip of
  // `city`.
  double CellPenalty(const Demographics& demographics,
                     const std::string& city) const;

  // severity(job, city) = city · category + (city, sub-job) interaction
  // adjustments, clamped to [0, 2].
  double Severity(const std::string& sub_job, const std::string& category,
                  const std::string& city,
                  const Demographics& demographics) const;

  // Direct score displacement for (ethnicity, sub-job) interactions, scaled
  // by the city severity (see MarketCalibration::ethnicity_job_adjust).
  double DirectAdjust(const std::string& sub_job, const std::string& city,
                      const Demographics& demographics) const;

  // Total score displacement of a worker with `demographics` in
  // (sub_job, category, city): the severity-scaled ethnicity penalty, the
  // gender penalty scaled by its floored city severity times the category
  // severity, and DirectAdjust. Depends on `demographics` only through
  // PenaltyCell.
  double Penalty(const std::string& sub_job, const std::string& category,
                 const std::string& city,
                 const Demographics& demographics) const;

  // Dense index in [0, num_penalty_cells()) of the (ethnicity, gender) cell
  // that Penalty depends on.
  size_t PenaltyCell(const Demographics& d) const {
    const auto e = static_cast<size_t>(d[static_cast<size_t>(ethnicity_attr_)]);
    const auto g = static_cast<size_t>(d[static_cast<size_t>(gender_attr_)]);
    return e * gender_penalty_by_id_.size() + g;
  }
  size_t num_penalty_cells() const {
    return ethnicity_penalty_by_id_.size() * gender_penalty_by_id_.size();
  }

  // base − penalty + noise, clamped to [0, 1]. Draws one Gaussian from
  // `rng`.
  double ScoreWithPenalty(double base_quality, double penalty, Rng* rng) const {
    double noise = rng->NextGaussian(0.0, calibration_.noise_stddev);
    return std::clamp(base_quality - penalty + noise, 0.0, 1.0);
  }

  // Latent ranking score: ScoreWithPenalty(base_quality, Penalty(...)).
  double Score(double base_quality, const std::string& sub_job,
               const std::string& category, const std::string& city,
               const Demographics& demographics, Rng* rng) const {
    return ScoreWithPenalty(
        base_quality, Penalty(sub_job, category, city, demographics), rng);
  }

 private:
  ScoringModel(MarketCalibration calibration) : calibration_(std::move(calibration)) {}

  MarketCalibration calibration_;
  AttributeId gender_attr_ = 0;
  AttributeId ethnicity_attr_ = 0;
  std::vector<double> gender_penalty_by_id_;
  std::vector<double> ethnicity_penalty_by_id_;
  std::vector<std::string> ethnicity_names_;  // by ValueId, for adjust keys
};

}  // namespace fairjob

#endif  // FAIRJOB_MARKET_SCORING_H_
