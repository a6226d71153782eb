#include "harness.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace fjbench {

using fairjob::Result;
using fairjob::Status;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = std::strtod(line + 6, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

void ReleaseFreedMemory() { malloc_trim(0); }

size_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double GeoMean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : samples) log_sum += std::log(std::max(x, 1e-6));
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

TailStat Tail(std::vector<double> samples) {
  TailStat tail;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Ladder in tenths of a percent, highest first. It stops at p99: at the
  // sample counts one run collects, p99.9 rests on a few dozen requests
  // and moves between runs by more than any usable bound.
  // Below 20 samples no rung qualifies and the tail falls back to the
  // median: the maximum of a handful of samples is one host hiccup.
  static constexpr int kLadder[] = {990, 950, 900, 750, 500};
  for (int p : kLadder) {
    // Nearest rank: the smallest rank r (1-based) with r >= p/1000 * n.
    size_t rank =
        std::max<size_t>(1, (static_cast<size_t>(p) * n + 999) / 1000);
    if (n - rank >= 10 || p == 500) {
      tail.value = samples[rank - 1];
      tail.percentile = p / 10.0;
      tail.beyond = n - rank;
      return tail;
    }
  }
  return tail;
}

std::vector<fairjob::QueryLocation> SortedRankedPairs(
    const fairjob::MarketplaceDataset& data) {
  std::vector<fairjob::QueryLocation> pairs = data.RankedPairs();
  std::sort(pairs.begin(), pairs.end(),
            [](const fairjob::QueryLocation& a,
               const fairjob::QueryLocation& b) {
              return a.query != b.query ? a.query < b.query
                                        : a.location < b.location;
            });
  return pairs;
}

std::string RequestKey(const fairjob::QuantificationRequest& r) {
  std::string key = std::to_string(static_cast<int>(r.target)) + "/" +
                    std::to_string(r.k) + "/" +
                    std::to_string(static_cast<int>(r.direction)) + "/" +
                    std::to_string(static_cast<int>(r.missing)) + "/" +
                    std::to_string(static_cast<int>(r.algorithm)) + "/";
  for (size_t p : r.agg1.positions) key += std::to_string(p) + ",";
  key += "/";
  for (size_t p : r.agg2.positions) key += std::to_string(p) + ",";
  key += "/";
  for (int32_t t : r.allowed_targets) key += std::to_string(t) + ",";
  return key;
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  for (char c : name) {
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"refresh_ms_p50", "ms"},
      {"ok_share", "share"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"answer_ms_gmean", "ms"},
      {"crawl.crawl_ms", "ms"},
      {"crawl.requests", "count"},
      {"crawl.retries", "count"},
      {"crawl.profiles_ms", "ms"},
      {"crawl.labeling_ms", "ms"},
      {"crawl.assembly_ms", "ms"},
      {"search.study_ms", "ms"},
      {"core.build_ms.market_emd", "ms"},
      {"core.build_ms.market_exposure", "ms"},
      {"core.build_ms.search_kendall", "ms"},
      {"core.build_ms.search_jaccard", "ms"},
      {"core.build_cells_per_s", "1/s"},
      {"crawl.cube_io.save_ms", "ms"},
      {"crawl.cube_io.file_mb", "MB"},
      {"crawl.cube_io.open_verified_ms", "ms"},
      {"crawl.cube_io.load_ms", "ms"},
      {"core.indices.build_ms", "ms"},
      {"core.quantification.solve_ms", "ms"},
      {"core.quantification.sorted_accesses_per_answer", "count"},
      {"core.quantification.random_accesses_per_answer", "count"},
      {"core.comparison.solve_ms", "ms"},
      {"serve.computations", "count"},
      {"serve.incremental.upsert_ms_p50", "ms"},
      {"serve.incremental.upsert_ms_tail", "ms"},
      {"serve.incremental.columns_touched", "count"},
      {"serve.incremental.columns_changed", "count"},
      {"serve.incremental.cells_recomputed", "count"},
      {"serve.set_snapshot_us", "us"},
      {"market.self_ms", "ms"},
      {"crawl.self_ms", "ms"},
      {"crawl.cube_io.self_ms", "ms"},
      {"search.self_ms", "ms"},
      {"core.build.self_ms", "ms"},
      {"core.indices.self_ms", "ms"},
      {"core.quantification.self_ms", "ms"},
      {"core.comparison.self_ms", "ms"},
      {"serve.service.self_ms", "ms"},
      {"serve.incremental.self_ms", "ms"},
      {"check.self_ms", "ms"},
      {"bench.self_ms", "ms"},
      {"trace.uncovered_share", "share"},
      {"trace.overhead_share", "share"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

const MetricSpec* MetricSet::Find(std::string_view name) const {
  for (const MetricSpec& spec : *schema_) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Status MetricSet::Set(std::string_view name, double value) {
  if (!IsValidMetricName(name)) {
    return Status::InvalidArgument("bad metric name: " + std::string(name));
  }
  if (Find(name) == nullptr) {
    return Status::NotFound("metric not in schema: " + std::string(name));
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite value for " +
                                   std::string(name));
  }
  values_[std::string(name)] = value;
  return Status::OK();
}

double MetricSet::Get(std::string_view name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

Result<std::string> MetricSet::ResultLine(bool correct, uint64_t attempted,
                                          uint64_t failed,
                                          bool fill_missing) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const MetricSpec& spec : *schema_) {
    auto it = values_.find(spec.name);
    if (it == values_.end() && !fill_missing) {
      return Status::FailedPrecondition(std::string("metric not set: ") +
                                        spec.name);
    }
    double value = it == values_.end() ? 0.0 : it->second;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += std::string(first ? "" : ", ") + "\"" + spec.name +
           "\": {\"value\": " + number + ", \"unit\": \"" + spec.unit +
           "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "FATAL %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

}  // namespace fjbench
