#ifndef FAIRJOB_BENCH_BENCH_UTIL_H_
#define FAIRJOB_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fbox.h"
#include "core/unfairness_measures.h"
#include "market/taskrabbit_sim.h"
#include "search/google_sim.h"

namespace fairjob {
namespace bench {

// --- plain-text table rendering ----------------------------------------------

void PrintTitle(const std::string& title);
void PrintTable(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows);
std::string Fmt(double value, int decimals = 3);

// Prints "PAPER: ..." shape expectations next to measured output so the
// bench output is self-describing.
void PrintPaperNote(const std::string& note);

// Overwrites `path` with `content`; used for machine-readable BENCH_*.json
// outputs next to the human-readable tables.
Status WriteTextFile(const std::string& path, const std::string& content);

// --- prebuilt worlds -----------------------------------------------------------

// The full synthetic TaskRabbit crawl, with one FBox per marketplace
// measure.
struct TaskRabbitBoxes {
  std::unique_ptr<TaskRabbitDataset> data;
  std::unique_ptr<GroupSpace> space;
  std::unique_ptr<FBox> emd;
  std::unique_ptr<FBox> exposure;

  const FBox& box(MarketMeasure measure) const {
    return measure == MarketMeasure::kEmd ? *emd : *exposure;
  }
};
Result<TaskRabbitBoxes> BuildTaskRabbitBoxes(
    const TaskRabbitConfig& config = {});

// The synthetic Google user study, with FBoxes per measure over both query
// granularities (formulation terms and base queries).
struct GoogleBoxes {
  std::unique_ptr<GoogleWorld> world;
  std::unique_ptr<GroupSpace> space;
  std::unique_ptr<FBox> kendall_terms;
  std::unique_ptr<FBox> jaccard_terms;
  std::unique_ptr<FBox> kendall_base;
  std::unique_ptr<FBox> jaccard_base;
};
Result<GoogleBoxes> BuildGoogleBoxes(const GoogleStudyConfig& config = {});

// --- batched marketplace column comparison -------------------------------------

// Evaluates the given (query, location) columns across the whole group axis
// through the batched MarketplaceCellBatch engine and through the per-triple
// reference MarketplaceUnfairness, best-of-`rounds` wall clock each. The
// group membership table is built OUTSIDE the timed region, the way every
// production builder amortizes it across a dataset version — the comparison
// isolates per-column evaluation cost, which is what the delta and sharded
// paths pay per touched column. Also cross-checks that the two paths agree
// bitwise on every cell (value bit patterns and the missing pattern). Feeds
// the marketplace-batch speedup gates in bench_cube_build, bench_scale and
// bench_incremental.
struct MarketColumnComparison {
  double reference_ms = 0.0;  // per-triple MarketplaceUnfairness
  double batch_ms = 0.0;      // batched MarketplaceCellBatch engine
  bool identical = true;      // bitwise agreement, including missing cells
  double speedup() const {
    return batch_ms > 0.0 ? reference_ms / batch_ms : 0.0;
  }
};
MarketColumnComparison CompareMarketColumnPaths(
    const MarketplaceDataset& data, const GroupSpace& space,
    MarketMeasure measure, const MeasureOptions& options,
    const std::vector<std::pair<QueryId, LocationId>>& columns, size_t rounds);

// Exits with a message when a Result is an error (benches are top-level
// binaries; there is nothing to recover).
template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    PrintTitle(std::string("FATAL: ") + what + ": " +
               result.status().ToString());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace bench
}  // namespace fairjob

#endif  // FAIRJOB_BENCH_BENCH_UTIL_H_
