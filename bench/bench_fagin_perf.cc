// Performance of Algorithm 1 (Fagin Threshold Algorithm) against the full
// scan, across universe sizes and inverted-list counts. The skewed value
// distribution mirrors unfairness cubes, where a handful of dimension
// values dominate; TA terminates after a few sorted accesses while the scan
// always touches everything.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/fagin.h"
#include "topk_oracle.h"

namespace fairjob {
namespace {

std::vector<InvertedIndex> MakeLists(size_t universe, size_t num_lists,
                                     uint64_t seed, bool skewed = true) {
  Rng rng(seed);
  std::vector<InvertedIndex> lists;
  lists.reserve(num_lists);
  for (size_t l = 0; l < num_lists; ++l) {
    std::vector<ScoredEntry> entries;
    entries.reserve(universe);
    for (size_t id = 0; id < universe; ++id) {
      double u = rng.NextDouble();
      // Skewed: heavy right tail (most values small, few large), the shape
      // of unfairness cubes, where early termination shines. Uniform values
      // keep frontier bounds tight for longer, so candidate bookkeeping and
      // random accesses dominate.
      entries.push_back({static_cast<int32_t>(id), skewed ? u * u * u : u});
    }
    lists.emplace_back(std::move(entries));
  }
  return lists;
}

std::vector<const InvertedIndex*> Pointers(
    const std::vector<InvertedIndex>& lists) {
  std::vector<const InvertedIndex*> out;
  out.reserve(lists.size());
  for (const InvertedIndex& list : lists) out.push_back(&list);
  return out;
}

// One RunTopK lane per iteration; counters from the last run.
void RunTopKBenchmark(benchmark::State& state, TopKAlgorithm algorithm,
                      MissingCellPolicy missing, RankDirection direction,
                      size_t num_lists) {
  size_t universe = static_cast<size_t>(state.range(0));
  std::vector<InvertedIndex> lists = MakeLists(universe, num_lists, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  TopKOptions options;
  options.k = 5;
  options.missing = missing;
  options.direction = direction;
  FaginStats stats;
  for (auto _ : state) {
    stats = FaginStats{};
    auto result = RunTopK(algorithm, ptrs, options, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["sorted_accesses"] = static_cast<double>(stats.sorted_accesses);
  state.counters["random_accesses"] = static_cast<double>(stats.random_accesses);
  state.counters["ids_scored"] = static_cast<double>(stats.ids_scored);
}

void BM_TA(benchmark::State& state) {
  RunTopKBenchmark(state, TopKAlgorithm::kThresholdAlgorithm,
                   MissingCellPolicy::kSkip, RankDirection::kMostUnfair,
                   static_cast<size_t>(state.range(1)));
}

void BM_Scan(benchmark::State& state) {
  RunTopKBenchmark(state, TopKAlgorithm::kScan, MissingCellPolicy::kSkip,
                   RankDirection::kMostUnfair,
                   static_cast<size_t>(state.range(1)));
}

void BM_TABottomK(benchmark::State& state) {
  RunTopKBenchmark(state, TopKAlgorithm::kThresholdAlgorithm,
                   MissingCellPolicy::kSkip, RankDirection::kLeastUnfair, 16);
}

void BM_IndexBuild(benchmark::State& state) {
  size_t universe = static_cast<size_t>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    std::vector<ScoredEntry> entries;
    entries.reserve(universe);
    for (size_t id = 0; id < universe; ++id) {
      entries.push_back({static_cast<int32_t>(id), rng.NextDouble()});
    }
    InvertedIndex index(std::move(entries));
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(universe));
}

// --- engine vs brute-force oracle (--oracle_compare) ------------------------

// Best-of-`reps` average milliseconds per call of `fn` over `iters` calls.
double BestMsPerRun(int reps, int iters, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / iters;
    best = std::min(best, ms);
  }
  return best;
}

// Times the engine (RunTopK) against the brute-force oracle
// (tests/topk_oracle.h) on each algorithm, checks the answers against the
// oracle bitwise, and writes BENCH_fagin_oracle.json. The scan
// configuration carries an enforced bar on speedup = oracle ms / engine
// ms: the process exits non-zero when the speedup falls below its bar, or
// when an answer disagrees. TA is reported unenforced (early termination
// makes its runtime mostly sorted-access bound).
//
// The bar is a regression bound: the 2.0× bar the engine once had to keep
// over a hash-table engine, times the oracle/hash-engine time ratio
// measured on the same config (median of 5 runs, rounded up).
int OracleCompareMain(bool smoke) {
  struct Config {
    const char* name;
    TopKAlgorithm algorithm;
    size_t universe;
    size_t num_lists;
    size_t k;
    bool uniform;  // uniform values delay early stops (see MakeLists)
    double bar;    // minimum oracle/engine speedup; 0 = not enforced
    int iters;
  };
  const Config configs[] = {
      {"scan_wide", TopKAlgorithm::kScan, smoke ? size_t{1024} : size_t{8192},
       smoke ? size_t{16} : size_t{64}, 10, true, smoke ? 0.58 : 0.43,
       smoke ? 20 : 5},
      {"ta_skewed", TopKAlgorithm::kThresholdAlgorithm,
       smoke ? size_t{512} : size_t{4096}, smoke ? size_t{8} : size_t{16}, 5,
       false, 0.0, smoke ? 50 : 20},
  };
  const int reps = smoke ? 3 : 5;

  bench::PrintTitle(std::string("Top-K engine vs brute-force oracle (") +
                    (smoke ? "smoke" : "full") + ")");
  std::vector<std::vector<std::string>> rows;
  std::string json = std::string("{\n  \"bench\": \"fagin_oracle\",\n") +
                     "  \"mode\": \"" + (smoke ? "smoke" : "full") +
                     "\",\n  \"configs\": [\n";
  bool failed = false;

  for (size_t c = 0; c < sizeof(configs) / sizeof(configs[0]); ++c) {
    const Config& config = configs[c];
    std::vector<InvertedIndex> lists =
        MakeLists(config.universe, config.num_lists, 42, !config.uniform);
    std::vector<const InvertedIndex*> ptrs = Pointers(lists);
    TopKOptions options;
    options.k = config.k;
    options.universe_hint = config.universe;

    // Correctness gate first.
    auto engine = RunTopK(config.algorithm, ptrs, options);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s: run failed: %s\n", config.name,
                   engine.status().ToString().c_str());
      return 1;
    }
    const bool agrees =
        topk_oracle::Agrees(*engine, topk_oracle::TopK(ptrs, options));
    if (!agrees) {
      std::fprintf(stderr, "%s: engine/oracle divergence\n", config.name);
      failed = true;
    }

    double engine_ms = BestMsPerRun(reps, config.iters, [&] {
      auto result = RunTopK(config.algorithm, ptrs, options);
      benchmark::DoNotOptimize(result);
    });
    double oracle_ms = BestMsPerRun(reps, config.iters, [&] {
      auto result = topk_oracle::TopK(ptrs, options);
      benchmark::DoNotOptimize(result);
    });
    double speedup = engine_ms > 0.0 ? oracle_ms / engine_ms : 0.0;
    const bool enforced = config.bar > 0.0;
    bool below_bar = enforced && speedup < config.bar;
    if (below_bar) {
      std::fprintf(stderr, "%s: speedup %.4fx below the %.4fx bar\n",
                   config.name, speedup, config.bar);
      failed = true;
    }

    rows.push_back({config.name, TopKAlgorithmName(config.algorithm),
                    std::to_string(config.universe),
                    std::to_string(config.num_lists), bench::Fmt(engine_ms),
                    bench::Fmt(oracle_ms), bench::Fmt(speedup, 4) + "x",
                    enforced ? bench::Fmt(config.bar, 4) + "x" : "-",
                    enforced ? (below_bar ? "FAIL" : "ok") : "-"});
    json += std::string("    {\"name\": \"") + config.name +
            "\", \"algorithm\": \"" + TopKAlgorithmName(config.algorithm) +
            "\", \"universe\": " + std::to_string(config.universe) +
            ", \"lists\": " + std::to_string(config.num_lists) +
            ", \"k\": " + std::to_string(config.k) +
            ", \"engine_ms\": " + bench::Fmt(engine_ms, 4) +
            ", \"oracle_ms\": " + bench::Fmt(oracle_ms, 4) +
            ", \"speedup\": " + bench::Fmt(speedup, 4) +
            ", \"bar\": " + bench::Fmt(config.bar, 4) +
            ", \"enforced\": " + (enforced ? "true" : "false") +
            ", \"agrees_with_oracle\": " + (agrees ? "true" : "false") + "}" +
            (c + 1 < sizeof(configs) / sizeof(configs[0]) ? ",\n" : "\n");
  }

  bench::PrintTable({"config", "algorithm", "universe", "lists", "engine ms",
                     "oracle ms", "speedup", "bar", "gate"},
                    rows);
  json += "  ]\n}\n";
  Status written = bench::WriteTextFile("BENCH_fagin_oracle.json", json);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_fagin_oracle.json\n");
  return failed ? 1 : 0;
}

// CI smoke path (--smoke): one metrics-enabled run of each algorithm on a
// small instance, written to BENCH_fagin_smoke.json, bypassing the
// google-benchmark driver entirely so it finishes in milliseconds.
int SmokeMain(const char* metrics_path, const char* trace_path) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.SetEnabled(true);
  Tracer::Global().SetEnabled(true);

  std::vector<InvertedIndex> lists = MakeLists(512, 8, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  std::string json = "{\n  \"bench\": \"fagin_smoke\",\n  \"universe\": 512,"
                     "\n  \"lists\": 8,\n  \"algorithms\": [\n";

  struct Algo {
    const char* name;
    TopKAlgorithm algorithm;
  };
  const Algo algos[] = {
      {"ta", TopKAlgorithm::kThresholdAlgorithm},
      {"scan", TopKAlgorithm::kScan},
  };
  for (size_t i = 0; i < sizeof(algos) / sizeof(algos[0]); ++i) {
    TopKOptions options;
    options.k = 5;
    FaginStats stats;
    auto result = RunTopK(algos[i].algorithm, ptrs, options, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "smoke %s failed: %s\n", algos[i].name,
                   result.status().ToString().c_str());
      return 1;
    }
    json += std::string("    {\"algorithm\": \"") + algos[i].name +
            "\", \"sorted_accesses\": " + std::to_string(stats.sorted_accesses) +
            ", \"random_accesses\": " + std::to_string(stats.random_accesses) +
            ", \"ids_scored\": " + std::to_string(stats.ids_scored) +
            ", \"rounds\": " + std::to_string(stats.rounds) +
            ", \"threshold_checks\": " + std::to_string(stats.threshold_checks) +
            "}";
    json += (i + 1 < sizeof(algos) / sizeof(algos[0])) ? ",\n" : "\n";
  }
  json += "  ],\n  \"metrics\": " + metrics.ToJson() + "\n}\n";

  auto write = [](const char* path, const std::string& body) {
    FILE* f = std::fopen(path, "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return 0;
  };
  if (write("BENCH_fagin_smoke.json", json) != 0) return 1;
  if (metrics_path != nullptr && write(metrics_path, metrics.ToJson()) != 0) {
    return 1;
  }
  if (trace_path != nullptr &&
      write(trace_path, Tracer::Global().ToJson()) != 0) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fairjob

BENCHMARK(fairjob::BM_TA)
    ->ArgsProduct({{64, 512, 4096}, {4, 16, 64}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_Scan)
    ->ArgsProduct({{64, 512, 4096}, {4, 16, 64}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_TABottomK)
    ->Arg(512)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_IndexBuild)->Arg(1024)->Arg(16384)->Unit(
    benchmark::kMicrosecond);

// --smoke / --oracle_compare short-circuit before google-benchmark sees the
// command line, so the flag set stays stable across benchmark versions.
// "--oracle_compare --smoke" runs the oracle comparison at CI-smoke sizes.
int main(int argc, char** argv) {
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  bool smoke = false;
  bool oracle_compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--oracle_compare") == 0) oracle_compare = true;
    if (std::strncmp(argv[i], "--metrics_json=", 15) == 0) {
      metrics_path = argv[i] + 15;
    }
    if (std::strncmp(argv[i], "--trace_json=", 13) == 0) {
      trace_path = argv[i] + 13;
    }
  }
  if (oracle_compare) return fairjob::OracleCompareMain(smoke);
  if (smoke) return fairjob::SmokeMain(metrics_path, trace_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
