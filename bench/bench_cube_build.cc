// Cube-construction performance: the seed per-triple path (re-deriving
// worker values, memberships and histograms for every (group, comparable)
// pair) versus the production batched path (hoisted group membership +
// MarketplaceCellBatch), serial versus the shared thread pool — over a
// 47-group schema at several dataset sizes. Also isolates marketplace
// COLUMN evaluation (the unit the delta and sharded paths pay for): the
// batched engine versus the per-triple reference MarketplaceUnfairness,
// with an enforced speedup gate (>= 4.66x smoke, >= 7.60x full) and a
// bitwise identity cross-check. Writes BENCH_cube_build.json next to the
// printed tables; any identity miss or gate miss fails the bench.

#include <chrono>
#include <utility>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"

namespace fairjob {
namespace bench {
namespace {

struct SizeSpec {
  const char* name;
  size_t queries;
  size_t locations;
  size_t ranking_len;  // workers per marketplace ranking
  size_t users;        // observations per search cell
};

constexpr SizeSpec kSizes[] = {
    {"small", 6, 4, 40, 12},
    {"medium", 10, 6, 80, 18},
    {"large", 14, 8, 120, 24},
};

// ethnicity{3} × gender{2} × age{3}: (3+1)(2+1)(3+1) − 1 = 47 groups, past
// the paper's 11 and comfortably above the ≥32-group acceptance bar.
AttributeSchema WideSchema() {
  AttributeSchema schema;
  schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).value();
  schema.AddAttribute("gender", {"Male", "Female"}).value();
  schema.AddAttribute("age", {"Young", "Middle", "Old"}).value();
  return schema;
}

Demographics RandomDemographics(Rng& rng) {
  return {static_cast<ValueId>(rng.NextBelow(3)),
          static_cast<ValueId>(rng.NextBelow(2)),
          static_cast<ValueId>(rng.NextBelow(3))};
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) {
    PrintTitle(std::string("FATAL: ") + what + ": " + status.ToString());
    std::exit(1);
  }
}

MarketplaceDataset MakeMarket(const SizeSpec& size) {
  MarketplaceDataset data(WideSchema());
  Rng rng(991 + size.queries);
  std::vector<WorkerId> workers;
  size_t pool = size.ranking_len * 2;
  for (size_t i = 0; i < pool; ++i) {
    workers.push_back(
        *data.AddWorker("w" + std::to_string(i), RandomDemographics(rng)));
  }
  for (size_t q = 0; q < size.queries; ++q) {
    data.queries().GetOrAdd("q" + std::to_string(q));
    for (size_t l = 0; l < size.locations; ++l) {
      data.locations().GetOrAdd("l" + std::to_string(l));
      MarketRanking r;
      r.workers = workers;
      rng.Shuffle(r.workers);
      r.workers.resize(size.ranking_len);
      MustOk(data.SetRanking(static_cast<QueryId>(q),
                             static_cast<LocationId>(l), std::move(r)),
             "SetRanking");
    }
  }
  return data;
}

SearchDataset MakeSearch(const SizeSpec& size) {
  SearchDataset data(WideSchema());
  Rng rng(1777 + size.queries);
  for (size_t u = 0; u < size.users; ++u) {
    data.AddUser("u" + std::to_string(u), RandomDemographics(rng)).value();
  }
  for (size_t q = 0; q < size.queries; ++q) {
    data.queries().GetOrAdd("sq" + std::to_string(q));
    for (size_t l = 0; l < size.locations; ++l) {
      data.locations().GetOrAdd("sl" + std::to_string(l));
      for (size_t u = 0; u < size.users; ++u) {
        std::vector<int32_t> docs(30);
        for (size_t d = 0; d < docs.size(); ++d) {
          docs[d] = static_cast<int32_t>(d);
        }
        rng.Shuffle(docs);
        RankedList results(docs.begin(), docs.begin() + 10);
        MustOk(data.AddObservation(static_cast<QueryId>(q),
                                   static_cast<LocationId>(l),
                                   {static_cast<UserId>(u), results}),
               "AddObservation");
      }
    }
  }
  return data;
}

// The seed implementation of BuildMarketplaceCube: one MarketplaceUnfairness
// call per (group, query, location) triple, serial. Kept as the baseline the
// batched path is benchmarked against.
UnfairnessCube BuildMarketplaceCubeReference(const MarketplaceDataset& data,
                                             const GroupSpace& space,
                                             MarketMeasure measure) {
  std::vector<GroupId> groups;
  for (size_t g = 0; g < space.num_groups(); ++g) {
    groups.push_back(static_cast<GroupId>(g));
  }
  std::vector<QueryId> queries;
  for (size_t q = 0; q < data.queries().size(); ++q) {
    queries.push_back(static_cast<QueryId>(q));
  }
  std::vector<LocationId> locations;
  for (size_t l = 0; l < data.locations().size(); ++l) {
    locations.push_back(static_cast<LocationId>(l));
  }
  UnfairnessCube cube =
      OrDie(UnfairnessCube::Make(groups, queries, locations), "cube axes");
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t l = 0; l < locations.size(); ++l) {
      for (size_t g = 0; g < groups.size(); ++g) {
        Result<double> v = MarketplaceUnfairness(
            data, space, groups[g], queries[q], locations[l], measure);
        if (v.ok()) cube.Set(g, q, l, *v);
      }
    }
  }
  return cube;
}

// Best-of-R wall-clock of `fn`, in milliseconds.
template <typename Fn>
double TimeMs(size_t repetitions, Fn&& fn) {
  double best = 0.0;
  for (size_t r = 0; r < repetitions; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            stop - start)
            .count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

bool CubesIdentical(const UnfairnessCube& a, const UnfairnessCube& b) {
  if (a.num_cells() != b.num_cells()) return false;
  for (size_t g = 0; g < a.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < a.axis_size(Dimension::kQuery); ++q) {
      for (size_t l = 0; l < a.axis_size(Dimension::kLocation); ++l) {
        if (a.Get(g, q, l) != b.Get(g, q, l)) return false;
      }
    }
  }
  return true;
}

// One fully instrumented pass over the smallest size: cube builds through
// the pool, plus a Fagin top-k over the resulting cube, so every metric
// family (threadpool.*, cube.*, fagin.*, measure.*) has data. Runs after the
// timing loops — the timed numbers above are always metrics-off.
std::string InstrumentedPassJson(size_t pool) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  Tracer::Global().Reset();
  metrics.SetEnabled(true);
  Tracer::Global().SetEnabled(true);

  const SizeSpec& size = kSizes[0];
  MarketplaceDataset market = MakeMarket(size);
  GroupSpace space = OrDie(GroupSpace::Enumerate(market.schema()), "space");
  UnfairnessCube cube = OrDie(
      BuildMarketplaceCube(market, space, MarketMeasure::kEmd, {}, {}, pool),
      "instrumented market build");
  SearchDataset search = MakeSearch(size);
  GroupSpace search_space =
      OrDie(GroupSpace::Enumerate(search.schema()), "search space");
  BuildSearchCube(search, search_space, SearchMeasure::kKendallTau, {}, {},
                  pool)
      .value();
  IndexSet indices = IndexSet::Build(cube);
  QuantificationRequest request;
  request.target = Dimension::kGroup;
  request.k = 5;
  OrDie(SolveQuantification(cube, indices, request), "instrumented top-k");

  metrics.SetEnabled(false);
  Tracer::Global().SetEnabled(false);
  return metrics.ToJson();
}

}  // namespace

int Main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse({argv + 1, argv + argc});
  if (!flags.ok()) {
    PrintTitle("FATAL: " + flags.status().ToString());
    return 1;
  }
  const bool smoke = flags->Has("smoke");
  const size_t kReps = smoke ? 1 : 5;
  constexpr size_t kPool = 4;
  const size_t num_sizes = smoke ? 1 : sizeof(kSizes) / sizeof(kSizes[0]);

  PrintTitle("Cube construction: seed per-triple vs batched, serial vs pool");
  PrintPaperNote(
      "Building d<g,q,l> over all triples is the input to both Problem 1 and "
      "Problem 2 (Section 4); this bench guards the construction hot path.");

  // Pool speedups only materialize with real cores: on a single-CPU host
  // they read ~1.0x (the pool adds no benefit but also ~no overhead) while
  // the batched speedup is hardware-independent.
  size_t hardware = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %zu\n", hardware);

  std::string json = "{\n  \"bench\": \"cube_build\",\n  \"pool_parallelism\": " +
                     std::to_string(kPool) +
                     ",\n  \"hardware_concurrency\": " +
                     std::to_string(hardware) + ",\n  \"sizes\": [\n";
  std::vector<std::vector<std::string>> market_rows;
  std::vector<std::vector<std::string>> column_rows;
  std::vector<std::vector<std::string>> search_rows;
  bool all_identical = true;
  bool columns_identical = true;
  // Floors for the batched-vs-reference column gate. They carry over the
  // earlier floors against the retired cell-shared engine (1.5x smoke, 2x
  // full), scaled by the largest reference/cell-shared time ratio measured
  // on these columns (median of 5 runs on a 4-core x86 VM: 3.10 smoke, 3.80
  // full), so the gate is no looser than it was. The one-rep smoke run is
  // noisier, so its bar is lower.
  const double min_column_speedup = smoke ? 4.66 : 7.60;
  double worst_column_speedup = 0.0;
  bool have_column_speedup = false;

  for (size_t s = 0; s < num_sizes; ++s) {
    const SizeSpec& size = kSizes[s];
    MarketplaceDataset market = MakeMarket(size);
    GroupSpace space = OrDie(GroupSpace::Enumerate(market.schema()), "space");

    UnfairnessCube reference =
        BuildMarketplaceCubeReference(market, space, MarketMeasure::kEmd);
    UnfairnessCube shared_serial = OrDie(
        BuildMarketplaceCube(market, space, MarketMeasure::kEmd, {}, {}, 1),
        "batched serial build");
    UnfairnessCube shared_pool = OrDie(
        BuildMarketplaceCube(market, space, MarketMeasure::kEmd, {}, {}, kPool),
        "batched pooled build");
    bool identical = CubesIdentical(reference, shared_serial) &&
                     CubesIdentical(reference, shared_pool);
    all_identical = all_identical && identical;

    double ref_ms = TimeMs(kReps, [&] {
      BuildMarketplaceCubeReference(market, space, MarketMeasure::kEmd);
    });
    double shared_ms = TimeMs(kReps, [&] {
      BuildMarketplaceCube(market, space, MarketMeasure::kEmd, {}, {}, 1)
          .value();
    });
    double pool_ms = TimeMs(kReps, [&] {
      BuildMarketplaceCube(market, space, MarketMeasure::kEmd, {}, {}, kPool)
          .value();
    });

    // Column-evaluation comparison: every (query, location) of this size,
    // batched engine vs the per-triple reference, both measures.
    std::vector<std::pair<QueryId, LocationId>> columns;
    for (size_t q = 0; q < size.queries; ++q) {
      for (size_t l = 0; l < size.locations; ++l) {
        columns.emplace_back(static_cast<QueryId>(q),
                             static_cast<LocationId>(l));
      }
    }
    MarketColumnComparison emd_cmp = CompareMarketColumnPaths(
        market, space, MarketMeasure::kEmd, {}, columns, kReps);
    MarketColumnComparison exposure_cmp = CompareMarketColumnPaths(
        market, space, MarketMeasure::kExposure, {}, columns, kReps);
    struct NamedCmp {
      const char* measure;
      const MarketColumnComparison* cmp;
    };
    for (NamedCmp named :
         {NamedCmp{"emd", &emd_cmp}, NamedCmp{"exposure", &exposure_cmp}}) {
      const MarketColumnComparison& cmp = *named.cmp;
      columns_identical = columns_identical && cmp.identical;
      if (!have_column_speedup || cmp.speedup() < worst_column_speedup) {
        worst_column_speedup = cmp.speedup();
        have_column_speedup = true;
      }
      column_rows.push_back({size.name, named.measure,
                             std::to_string(columns.size()),
                             Fmt(cmp.reference_ms), Fmt(cmp.batch_ms),
                             Fmt(cmp.speedup(), 2) + "x",
                             cmp.identical ? "yes" : "NO"});
    }

    SearchDataset search = MakeSearch(size);
    GroupSpace search_space =
        OrDie(GroupSpace::Enumerate(search.schema()), "search space");
    double search_serial_ms = TimeMs(kReps, [&] {
      BuildSearchCube(search, search_space, SearchMeasure::kKendallTau, {}, {},
                      1)
          .value();
    });
    double search_pool_ms = TimeMs(kReps, [&] {
      BuildSearchCube(search, search_space, SearchMeasure::kKendallTau, {}, {},
                      kPool)
          .value();
    });

    market_rows.push_back(
        {size.name, std::to_string(space.num_groups()),
         std::to_string(size.queries * size.locations),
         std::to_string(size.ranking_len), Fmt(ref_ms), Fmt(shared_ms),
         Fmt(pool_ms), Fmt(ref_ms / shared_ms, 2) + "x",
         Fmt(ref_ms / pool_ms, 2) + "x", identical ? "yes" : "NO"});
    search_rows.push_back({size.name,
                           std::to_string(size.queries * size.locations),
                           std::to_string(size.users), Fmt(search_serial_ms),
                           Fmt(search_pool_ms),
                           Fmt(search_serial_ms / search_pool_ms, 2) + "x"});

    json += std::string("    {\"name\": \"") + size.name +
            "\", \"groups\": " + std::to_string(space.num_groups()) +
            ", \"queries\": " + std::to_string(size.queries) +
            ", \"locations\": " + std::to_string(size.locations) +
            ", \"ranking_len\": " + std::to_string(size.ranking_len) +
            ",\n     \"market\": {" +
            "\"reference_serial_ms\": " + Fmt(ref_ms) +
            ", \"cell_shared_serial_ms\": " + Fmt(shared_ms) +
            ", \"cell_shared_pool_ms\": " + Fmt(pool_ms) +
            ", \"speedup_batched\": " + Fmt(ref_ms / shared_ms, 2) +
            ", \"speedup_pool_vs_reference\": " + Fmt(ref_ms / pool_ms, 2) +
            ", \"identical_cells\": " + (identical ? "true" : "false") +
            "},\n     \"market_columns\": {" +
            "\"emd_reference_ms\": " + Fmt(emd_cmp.reference_ms) +
            ", \"emd_batched_ms\": " + Fmt(emd_cmp.batch_ms) +
            ", \"emd_speedup\": " + Fmt(emd_cmp.speedup(), 2) +
            ", \"exposure_reference_ms\": " + Fmt(exposure_cmp.reference_ms) +
            ", \"exposure_batched_ms\": " + Fmt(exposure_cmp.batch_ms) +
            ", \"exposure_speedup\": " + Fmt(exposure_cmp.speedup(), 2) +
            ", \"identical_cells\": " +
            (emd_cmp.identical && exposure_cmp.identical ? "true" : "false") +
            "},\n     \"search\": {" +
            "\"serial_ms\": " + Fmt(search_serial_ms) +
            ", \"pool_ms\": " + Fmt(search_pool_ms) +
            ", \"speedup_pool\": " + Fmt(search_serial_ms / search_pool_ms, 2) +
            "}}";
    json += (s + 1 < num_sizes) ? ",\n" : "\n";
  }
  json += "  ],\n";
  const bool column_gate_pass =
      have_column_speedup && worst_column_speedup >= min_column_speedup;
  json += "  \"gates\": {\"market_batch_min_speedup\": " +
          Fmt(min_column_speedup, 2) +
          ", \"market_batch_worst_speedup\": " +
          Fmt(worst_column_speedup, 2) +
          ", \"market_batch_speedup\": " +
          (column_gate_pass ? "true" : "false") +
          ", \"market_batch_identical\": " +
          (columns_identical ? "true" : "false") + "},\n";

  // The timing loops above always run metrics-off; this separate pass feeds
  // the "metrics" section (and the optional --metrics_json/--trace_json
  // exports) without perturbing the numbers.
  std::string metrics_json = InstrumentedPassJson(kPool);
  json += "  \"metrics\": " + metrics_json + "\n}\n";

  PrintTitle("BuildMarketplaceCube (EMD, 47 groups)");
  PrintTable({"size", "groups", "cells", "n", "reference ms", "batched ms",
              "pool ms", "batched speedup", "pool speedup", "identical"},
             market_rows);
  PrintTitle("Marketplace column evaluation: per-triple reference vs batched");
  PrintTable({"size", "measure", "columns", "reference ms", "batched ms",
              "speedup", "identical"},
             column_rows);
  std::printf("gate: worst batched speedup %.2fx (floor %.2fx) -> %s\n",
              worst_column_speedup, min_column_speedup,
              column_gate_pass ? "pass" : "FAIL");
  PrintTitle("BuildSearchCube (Kendall-Tau, 47 groups)");
  PrintTable({"size", "cells", "users/cell", "serial ms", "pool ms", "speedup"},
             search_rows);

  Status written = WriteTextFile("BENCH_cube_build.json", json);
  if (!written.ok()) {
    PrintTitle("FATAL: " + written.ToString());
    return 1;
  }
  std::printf("\nwrote BENCH_cube_build.json\n");

  std::string metrics_path = flags->GetString("metrics_json");
  if (!metrics_path.empty()) {
    Status s = WriteTextFile(metrics_path, metrics_json);
    if (!s.ok()) {
      PrintTitle("FATAL: " + s.ToString());
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  std::string trace_path = flags->GetString("trace_json");
  if (!trace_path.empty()) {
    Status s = Tracer::Global().WriteJson(trace_path);
    if (!s.ok()) {
      PrintTitle("FATAL: " + s.ToString());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }

  if (!all_identical) {
    PrintTitle("FATAL: fast-path cube contents diverged from the reference");
    return 1;
  }
  if (!columns_identical) {
    PrintTitle(
        "FATAL: batched column engine diverged bitwise from the per-triple "
        "reference");
    return 1;
  }
  if (!column_gate_pass) {
    PrintTitle("FATAL: batched column speedup " +
               Fmt(worst_column_speedup, 2) + "x below the " +
               Fmt(min_column_speedup, 2) + "x gate");
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace fairjob

int main(int argc, char** argv) { return fairjob::bench::Main(argc, argv); }
