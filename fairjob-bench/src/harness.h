#ifndef FAIRJOB_BENCH_HARNESS_H_
#define FAIRJOB_BENCH_HARNESS_H_

// Shared plumbing of the fairjob benchmark: the metric schema (names and
// units of every metric a run prints), the percentile rules, the exact
// operation accounting behind error_share, and the one-line JSON result.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/quantification.h"

namespace fjbench {

// Monotonic wall time in milliseconds (steady clock).
double NowMs();

// Peak resident set of this process in MB (VmHWM) since the last
// ResetPeakRss; 0 where /proc is absent.
double PeakRssMb();

// Starts a new peak window: the kernel drops VmHWM to the current resident
// set. Returns false where that is not allowed; PeakRssMb is then the peak
// since the process started.
bool ResetPeakRss();

// Hands freed heap pages back to the OS, so that the next allocations start
// from a trimmed heap, as in a fresh process.
void ReleaseFreedMemory();

// CPUs this process may run on (what `nproc` prints), at least 1.
size_t UsableCpus();

// splitmix64 of (seed, stream): independent per-iteration seeds derived
// from the one workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// Median of the samples (mean of the middle two for even counts); 0 when
// empty.
double Median(std::vector<double> samples);

// Geometric mean of the samples, each floored at 1e-6 so that a zero
// reading cannot zero it; 0 when empty. Over latencies that span orders of
// magnitude every sample weighs the same in it, and speeding any of them
// up by a factor moves it.
double GeoMean(const std::vector<double>& samples);

// The tail of a latency sample: the highest percentile of the ladder
// 50, 75, 90, 95, 99 that leaves at least ten samples beyond it,
// taken by nearest rank. With fewer than 20 samples no ladder percentile
// qualifies and the tail is the nearest-rank median (percentile 50 with
// fewer than ten samples beyond it).
struct TailStat {
  double value = 0.0;
  double percentile = 0.0;
  size_t beyond = 0;  // samples strictly after the chosen rank
  size_t count = 0;
};
TailStat Tail(std::vector<double> samples);

// The dataset's ranked (query, location) pairs in id order (RankedPairs
// comes from a hash map), so seeded picks from it are reproducible.
std::vector<fairjob::QueryLocation> SortedRankedPairs(
    const fairjob::MarketplaceDataset& data);

// Canonical text of a request: equal keys are the same request.
std::string RequestKey(const fairjob::QuantificationRequest& request);

// Metric names are 1..64 characters of [A-Za-z0-9_.-], starting with a
// letter or digit; units are 1..16 characters of [A-Za-z0-9_/%.-].
bool IsValidMetricName(std::string_view name);
bool IsValidUnit(std::string_view unit);

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every untraced run prints, and the per-layer
// metrics every traced run prints, in output order. BENCHMARK.json lists
// the same names and units.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Values for one metric list. Set accepts only names of that list;
// ResultLine fails unless every listed metric has a finite value.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricSpec>* schema)
      : schema_(schema) {}

  fairjob::Status Set(std::string_view name, double value);
  double Get(std::string_view name) const;

  // The run's last stdout line:
  // {"correct": b, "attempted": n, "failed": n, "metrics": {name:
  //  {"value": v, "unit": u}, ...}} with values printed to 17 significant
  // digits. Missing metrics are reported as 0 only when `fill_missing`.
  fairjob::Result<std::string> ResultLine(bool correct, uint64_t attempted,
                                          uint64_t failed,
                                          bool fill_missing) const;

 private:
  const MetricSpec* Find(std::string_view name) const;

  const std::vector<MetricSpec>* schema_;
  std::map<std::string, double, std::less<>> values_;
};

// Exact accounting of attempted operations (crawl queries, upserts, audit
// questions, served answers). Each operation lands in exactly one bucket.
struct OpCounts {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t attempted() const { return ok + failed; }
  void Merge(const OpCounts& o) {
    ok += o.ok;
    failed += o.failed;
  }
};

// What a workload hands back to the driver. The driver derives the
// end-to-end metrics from the samples and copies `layer` into the
// per-layer set.
struct WorkloadResult {
  std::vector<double> setup_s;     // one per input generation
  std::vector<double> answer_ms;   // one per Problem 1/2 answer
  // One per iteration (audit or rebuild): the geometric mean of the
  // answer_ms samples that iteration added.
  std::vector<double> answer_gmean_ms;
  std::vector<double> refresh_ms;  // one per raw-data-to-servable refresh
  OpCounts ops;
  std::vector<std::string> check_failures;  // output checks that failed
  std::map<std::string, double> layer;      // per-layer metric values
  // Wall time the measured part of the run took (excludes set-up).
  double measured_ms = 0.0;
  // Highest PeakRssMb() seen before an output check ran. Workloads reset
  // the peak window at each iteration and after each check, so memory the
  // checks use does not count.
  double peak_rss_mb = 0.0;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void ObservePeakRss() { peak_rss_mb = std::max(peak_rss_mb, PeakRssMb()); }
  // Closes an iteration's answers: those added since answer_ms held
  // `begin` samples.
  void CloseAnswers(size_t begin) {
    answer_gmean_ms.push_back(GeoMean(std::vector<double>(
        answer_ms.begin() + static_cast<std::ptrdiff_t>(begin),
        answer_ms.end())));
  }
};

// Prints "FATAL <what>: <status>" to stderr and exits 1: a pipeline step
// that fails means the program under test is broken, and the run must not
// print a result.
[[noreturn]] void Fatal(const std::string& what,
                        const fairjob::Status& status);

inline void MustOk(const fairjob::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}

template <typename T>
T OrDie(fairjob::Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result).value();
}

}  // namespace fjbench

#endif  // FAIRJOB_BENCH_HARNESS_H_
