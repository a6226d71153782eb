#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "common/string_util.h"
#include "core/marketplace_batch.h"

namespace fairjob {
namespace bench {

void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintPaperNote(const std::string& note) {
  std::printf("PAPER: %s\n", note.c_str());
}

void PrintTable(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(headers.size(), 0);
  for (size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < widths.size(); ++c) {
      line += PadRight(c < row.size() ? row[c] : "", widths[c]);
      if (c + 1 < widths.size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
  };
  print_row(headers);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-');
    if (c + 1 < widths.size()) rule += "  ";
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows) print_row(row);
}

std::string Fmt(double value, int decimals) {
  return FormatDouble(value, decimals);
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << content;
  out.close();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

Result<TaskRabbitBoxes> BuildTaskRabbitBoxes(const TaskRabbitConfig& config) {
  TaskRabbitBoxes boxes;
  FAIRJOB_ASSIGN_OR_RETURN(TaskRabbitDataset built,
                           BuildTaskRabbitDataset(config));
  boxes.data = std::make_unique<TaskRabbitDataset>(std::move(built));
  FAIRJOB_ASSIGN_OR_RETURN(GroupSpace space,
                           GroupSpace::Enumerate(boxes.data->dataset.schema()));
  boxes.space = std::make_unique<GroupSpace>(std::move(space));
  FAIRJOB_ASSIGN_OR_RETURN(
      FBox emd, FBox::ForMarketplace(&boxes.data->dataset, boxes.space.get(),
                                     MarketMeasure::kEmd));
  boxes.emd = std::make_unique<FBox>(std::move(emd));
  FAIRJOB_ASSIGN_OR_RETURN(
      FBox exposure,
      FBox::ForMarketplace(&boxes.data->dataset, boxes.space.get(),
                           MarketMeasure::kExposure));
  boxes.exposure = std::make_unique<FBox>(std::move(exposure));
  return boxes;
}

Result<GoogleBoxes> BuildGoogleBoxes(const GoogleStudyConfig& config) {
  GoogleBoxes boxes;
  FAIRJOB_ASSIGN_OR_RETURN(GoogleWorld world, BuildGoogleStudy(config));
  boxes.world = std::make_unique<GoogleWorld>(std::move(world));
  FAIRJOB_ASSIGN_OR_RETURN(
      GroupSpace space, GroupSpace::Enumerate(boxes.world->dataset.schema()));
  boxes.space = std::make_unique<GroupSpace>(std::move(space));

  FAIRJOB_ASSIGN_OR_RETURN(
      FBox kt_terms, FBox::ForSearch(&boxes.world->dataset, boxes.space.get(),
                                     SearchMeasure::kKendallTau));
  boxes.kendall_terms = std::make_unique<FBox>(std::move(kt_terms));
  FAIRJOB_ASSIGN_OR_RETURN(
      FBox jac_terms, FBox::ForSearch(&boxes.world->dataset, boxes.space.get(),
                                      SearchMeasure::kJaccard));
  boxes.jaccard_terms = std::make_unique<FBox>(std::move(jac_terms));
  FAIRJOB_ASSIGN_OR_RETURN(
      FBox kt_base,
      FBox::ForSearch(&boxes.world->dataset_by_base_query, boxes.space.get(),
                      SearchMeasure::kKendallTau));
  boxes.kendall_base = std::make_unique<FBox>(std::move(kt_base));
  FAIRJOB_ASSIGN_OR_RETURN(
      FBox jac_base,
      FBox::ForSearch(&boxes.world->dataset_by_base_query, boxes.space.get(),
                      SearchMeasure::kJaccard));
  boxes.jaccard_base = std::make_unique<FBox>(std::move(jac_base));
  return boxes;
}

MarketColumnComparison CompareMarketColumnPaths(
    const MarketplaceDataset& data, const GroupSpace& space,
    MarketMeasure measure, const MeasureOptions& options,
    const std::vector<std::pair<QueryId, LocationId>>& columns,
    size_t rounds) {
  const size_t num_groups = space.num_groups();
  // Hoisted per-dataset-version state, deliberately untimed (see header).
  MarketplaceGroupMembership membership(data, space);

  auto reference_pass = [&](std::vector<std::optional<double>>* out) {
    for (auto [q, l] : columns) {
      for (size_t g = 0; g < num_groups; ++g) {
        std::optional<double> cell;
        Result<double> v = MarketplaceUnfairness(
            data, space, static_cast<GroupId>(g), q, l, measure, options);
        if (v.ok()) cell = *v;
        if (out != nullptr) out->push_back(cell);
      }
    }
  };
  auto batch_pass = [&](std::vector<std::optional<double>>* out) {
    for (auto [q, l] : columns) {
      Result<MarketplaceCellBatch> batch = MarketplaceCellBatch::Make(
          space, membership, data.GetRanking(q, l), measure, options);
      for (size_t g = 0; g < num_groups; ++g) {
        std::optional<double> cell;
        if (batch.ok()) {
          Result<double> v = batch->Unfairness(static_cast<GroupId>(g));
          if (v.ok()) cell = *v;
        }
        if (out != nullptr) out->push_back(cell);
      }
    }
  };

  MarketColumnComparison result;
  std::vector<std::optional<double>> reference_cells;
  std::vector<std::optional<double>> batch_cells;
  reference_pass(&reference_cells);
  batch_pass(&batch_cells);
  result.identical = reference_cells.size() == batch_cells.size();
  for (size_t i = 0; result.identical && i < reference_cells.size(); ++i) {
    const std::optional<double>& a = reference_cells[i];
    const std::optional<double>& b = batch_cells[i];
    if (a.has_value() != b.has_value()) {
      result.identical = false;
    } else if (a.has_value()) {
      uint64_t ba;
      uint64_t bb;
      std::memcpy(&ba, &*a, sizeof(ba));
      std::memcpy(&bb, &*b, sizeof(bb));
      result.identical = ba == bb;
    }
  }

  auto best_of = [&](auto&& pass) {
    double best = 0.0;
    for (size_t r = 0; r < rounds; ++r) {
      auto start = std::chrono::steady_clock::now();
      pass(nullptr);
      double ms = std::chrono::duration_cast<
                      std::chrono::duration<double, std::milli>>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (r == 0 || ms < best) best = ms;
    }
    return best;
  };
  result.reference_ms = best_of(reference_pass);
  result.batch_ms = best_of(batch_pass);
  return result;
}

}  // namespace bench
}  // namespace fairjob
