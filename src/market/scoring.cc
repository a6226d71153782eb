#include "market/scoring.h"

#include <algorithm>

namespace fairjob {
namespace {

double LookupOr(const std::unordered_map<std::string, double>& map,
                const std::string& key, double fallback) {
  auto it = map.find(key);
  return it == map.end() ? fallback : it->second;
}

}  // namespace

Result<ScoringModel> ScoringModel::Make(const AttributeSchema& schema,
                                        MarketCalibration calibration) {
  ScoringModel model(std::move(calibration));
  FAIRJOB_ASSIGN_OR_RETURN(model.gender_attr_, schema.FindAttribute("gender"));
  FAIRJOB_ASSIGN_OR_RETURN(model.ethnicity_attr_,
                           schema.FindAttribute("ethnicity"));

  size_t n_gender = schema.num_values(model.gender_attr_);
  model.gender_penalty_by_id_.assign(n_gender, 0.0);
  for (size_t v = 0; v < n_gender; ++v) {
    const std::string& name =
        schema.value_name(model.gender_attr_, static_cast<ValueId>(v));
    auto it = model.calibration_.gender_penalty.find(name);
    if (it == model.calibration_.gender_penalty.end()) {
      return Status::NotFound("calibration has no gender penalty for '" +
                              name + "'");
    }
    model.gender_penalty_by_id_[v] = it->second;
  }

  size_t n_eth = schema.num_values(model.ethnicity_attr_);
  model.ethnicity_penalty_by_id_.assign(n_eth, 0.0);
  model.ethnicity_names_.resize(n_eth);
  for (size_t v = 0; v < n_eth; ++v) {
    const std::string& name =
        schema.value_name(model.ethnicity_attr_, static_cast<ValueId>(v));
    auto it = model.calibration_.ethnicity_penalty.find(name);
    if (it == model.calibration_.ethnicity_penalty.end()) {
      return Status::NotFound("calibration has no ethnicity penalty for '" +
                              name + "'");
    }
    model.ethnicity_penalty_by_id_[v] = it->second;
    model.ethnicity_names_[v] = name;
  }
  return model;
}

double ScoringModel::CellPenalty(const Demographics& demographics,
                                 const std::string& city) const {
  size_t g = static_cast<size_t>(demographics[static_cast<size_t>(gender_attr_)]);
  size_t e =
      static_cast<size_t>(demographics[static_cast<size_t>(ethnicity_attr_)]);
  double gender = gender_penalty_by_id_[g];
  if (calibration_.gender_flip_cities.count(city) > 0) {
    // Swap this worker's gender component with the *other* gender's average
    // component; for a binary domain this is exactly the swap.
    double total = 0.0;
    for (double p : gender_penalty_by_id_) total += p;
    gender = (total - gender) /
             static_cast<double>(gender_penalty_by_id_.size() - 1);
  }
  return gender + ethnicity_penalty_by_id_[e];
}

double ScoringModel::Severity(const std::string& sub_job,
                              const std::string& category,
                              const std::string& city,
                              const Demographics& demographics) const {
  (void)demographics;
  double sev = LookupOr(calibration_.city_severity, city,
                        calibration_.default_city_severity) *
               LookupOr(calibration_.category_severity, category,
                        calibration_.default_category_severity);
  sev += LookupOr(calibration_.city_job_adjust, city + "|" + sub_job, 0.0);
  return std::clamp(sev, 0.0, 2.0);
}

double ScoringModel::DirectAdjust(const std::string& sub_job,
                                  const std::string& city,
                                  const Demographics& demographics) const {
  size_t e =
      static_cast<size_t>(demographics[static_cast<size_t>(ethnicity_attr_)]);
  double adjust = LookupOr(calibration_.ethnicity_job_adjust,
                           ethnicity_names_[e] + "|" + sub_job, 0.0);
  return adjust * LookupOr(calibration_.city_severity, city,
                           calibration_.default_city_severity);
}

double ScoringModel::Penalty(const std::string& sub_job,
                             const std::string& category,
                             const std::string& city,
                             const Demographics& demographics) const {
  size_t e =
      static_cast<size_t>(demographics[static_cast<size_t>(ethnicity_attr_)]);
  double severity = Severity(sub_job, category, city, demographics);
  double penalty = ethnicity_penalty_by_id_[e] * severity;

  // Gender component with its own city-severity floor (see calibration.h).
  size_t g =
      static_cast<size_t>(demographics[static_cast<size_t>(gender_attr_)]);
  double gender = gender_penalty_by_id_[g];
  if (calibration_.gender_flip_cities.count(city) > 0) {
    double total = 0.0;
    for (double p : gender_penalty_by_id_) total += p;
    gender = (total - gender) /
             static_cast<double>(gender_penalty_by_id_.size() - 1);
  }
  double city_sev = LookupOr(calibration_.city_severity, city,
                             calibration_.default_city_severity);
  double gender_city_sev =
      std::max(city_sev, calibration_.gender_city_severity_floor);
  double cat_sev = LookupOr(calibration_.category_severity, category,
                            calibration_.default_category_severity);
  penalty += gender * std::clamp(gender_city_sev * cat_sev, 0.0, 2.0);

  penalty += DirectAdjust(sub_job, city, demographics);
  return penalty;
}

}  // namespace fairjob
