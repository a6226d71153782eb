// scale-rebuild: cold rebuilds of a cube far larger than the last-level
// cache, then cold answers. Each iteration generates a scale marketplace
// and a scale search study from a seed derived from the workload seed
// (set-up), rebuilds both platform cubes from scratch (the refresh), and
// sends a fixed set of distinct Problem 1 requests plus two Problem 2
// comparisons one at a time through a service with the answer cache off.

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/comparison.h"
#include "core/group_space.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "crawl/cube_io.h"
#include "market/scale_gen.h"
#include "serve/quantification_service.h"
#include "workloads.h"

namespace fjbench {

using namespace fairjob;

namespace {

// A third of bench_scale's full tier on every axis that sets the cube size:
// 119 groups x 4,000 queries x 40 locations = 19.0M cells (152 MB of
// doubles on disk, about 300 MB materialized), still several times the
// last-level cache, so build, persistence, index and the Top-K lanes work
// out of DRAM as they do at full size.
ScaleSpec MarketSpec(uint64_t seed) {
  ScaleSpec spec;
  spec.seed = seed;
  spec.num_workers = 300'000;
  spec.num_queries = 4'000;
  spec.num_locations = 40;
  spec.num_ranked_columns = 6'000;
  return spec;
}

SearchScaleSpec SearchSpec(uint64_t seed) {
  SearchScaleSpec spec;
  spec.seed = seed;
  return spec;
}

// The cold request set is the same in every iteration and run (one
// constant seed), so answer latencies compare like with like; the cube
// under it changes with the seed.
constexpr uint64_t kRequestSeed = 31;
constexpr size_t kColdRequests = 48;  // distinct Problem 1 requests
constexpr size_t kCheckedColumns = 4;  // ranked columns rebuilt for the check
// A run is at least this many iterations per second of --seconds (5 at
// 40 s, about what a 4-vCPU Xeon host completes then), so the sample counts
// do not shrink on a slower host; a slow host makes the run longer instead.
constexpr double kMinIterationsPerSecond = 0.125;

bool SameBits(std::optional<double> a, std::optional<double> b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

std::vector<QuantificationRequest> DistinctRequests(const UnfairnessCube& c) {
  ServeLoadSpec spec;
  spec.seed = kRequestSeed;
  spec.distinct_patterns = kColdRequests;
  spec.num_requests = 64 * kColdRequests;
  std::vector<QuantificationRequest> stream = GenerateServeRequests(
      spec, c.axis_size(Dimension::kGroup), c.axis_size(Dimension::kQuery),
      c.axis_size(Dimension::kLocation));
  std::vector<QuantificationRequest> distinct;
  std::map<std::string, bool> seen;
  for (const QuantificationRequest& r : stream) {
    if (seen.emplace(RequestKey(r), true).second) distinct.push_back(r);
  }
  return distinct;
}

std::vector<size_t> Positions(const AxisSelector& sel, size_t size) {
  if (!sel.all()) return sel.positions;
  std::vector<size_t> all(size);
  for (size_t i = 0; i < size; ++i) all[i] = i;
  return all;
}

// The benchmark's own Problem 1 oracle: aggregate every candidate over the
// selected cells (summing in the index's list order, other1-major) and sort
// best-first. Returns (position, value) for every defined candidate.
std::vector<std::pair<size_t, double>> BruteForceRanking(
    const UnfairnessCube& cube, const QuantificationRequest& r) {
  Dimension d1, d2;
  QuantificationOtherDims(r.target, &d1, &d2);
  std::vector<size_t> p1s = Positions(r.agg1, cube.axis_size(d1));
  std::vector<size_t> p2s = Positions(r.agg2, cube.axis_size(d2));
  std::vector<size_t> targets;
  if (r.allowed_targets.empty()) {
    targets = Positions(AxisSelector::All(), cube.axis_size(r.target));
  } else {
    for (int32_t t : r.allowed_targets) {
      targets.push_back(static_cast<size_t>(t));
    }
  }
  std::vector<std::pair<size_t, double>> scored;
  for (size_t t : targets) {
    double sum = 0.0;
    size_t present = 0;
    for (size_t p1 : p1s) {
      for (size_t p2 : p2s) {
        size_t pos[3];
        pos[static_cast<size_t>(r.target)] = t;
        pos[static_cast<size_t>(d1)] = p1;
        pos[static_cast<size_t>(d2)] = p2;
        std::optional<double> v = cube.Get(pos[0], pos[1], pos[2]);
        if (v.has_value()) {
          sum += *v;
          ++present;
        }
      }
    }
    if (present == 0) continue;
    double denom = r.missing == MissingCellPolicy::kSkip
                       ? static_cast<double>(present)
                       : static_cast<double>(p1s.size() * p2s.size());
    scored.emplace_back(t, sum / denom);
  }
  const bool most = r.direction == RankDirection::kMostUnfair;
  std::stable_sort(scored.begin(), scored.end(),
                   [most](const auto& a, const auto& b) {
                     return most ? a.second > b.second : a.second < b.second;
                   });
  return scored;
}

// Equal up to ties: the top-k value sequence matches bit for bit, and every
// returned id's own aggregate is the value reported for it.
bool MatchesOracle(const UnfairnessCube& cube, const QuantificationRequest& r,
                   const QuantificationResult& got) {
  std::vector<std::pair<size_t, double>> ranking = BruteForceRanking(cube, r);
  if (std::min(r.k, ranking.size()) != got.answers.size()) return false;
  std::map<size_t, double> value_of(ranking.begin(), ranking.end());
  for (size_t i = 0; i < got.answers.size(); ++i) {
    const QuantificationAnswer& a = got.answers[i];
    if (std::memcmp(&a.value, &ranking[i].second, sizeof(double)) != 0) {
      return false;
    }
    Result<size_t> pos = cube.PosOf(r.target, a.id);
    if (!pos.ok() || value_of.count(*pos) == 0 ||
        std::memcmp(&value_of[*pos], &a.value, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Rebuilds a few ranked columns with the in-memory builder restricted to
// their queries and locations, and compares every cell of that sub-cube
// with the loaded cube and the mapped file.
bool SampledColumnsMatch(const MarketplaceDataset& market,
                         const GroupSpace& space, const UnfairnessCube& cube,
                         const MappedCube& mapped, uint64_t seed) {
  std::vector<QueryLocation> ranked = SortedRankedPairs(market);
  Rng rng(seed);
  CubeAxes axes;
  for (size_t i = 0; i < kCheckedColumns && !ranked.empty(); ++i) {
    const QueryLocation& ql =
        ranked[rng.NextBelow(static_cast<uint32_t>(ranked.size()))];
    if (std::find(axes.queries.begin(), axes.queries.end(), ql.query) ==
        axes.queries.end()) {
      axes.queries.push_back(ql.query);
    }
    if (std::find(axes.locations.begin(), axes.locations.end(),
                  ql.location) == axes.locations.end()) {
      axes.locations.push_back(ql.location);
    }
  }
  UnfairnessCube sub = OrDie(
      BuildMarketplaceCube(market, space, MarketMeasure::kEmd, {}, axes),
      "restricted cube");
  for (size_t g = 0; g < sub.axis_size(Dimension::kGroup); ++g) {
    size_t cg = OrDie(cube.PosOf(Dimension::kGroup,
                                 sub.axis_id(Dimension::kGroup, g)),
                      "group pos");
    for (size_t q = 0; q < sub.axis_size(Dimension::kQuery); ++q) {
      size_t cq = OrDie(cube.PosOf(Dimension::kQuery,
                                   sub.axis_id(Dimension::kQuery, q)),
                        "query pos");
      for (size_t l = 0; l < sub.axis_size(Dimension::kLocation); ++l) {
        size_t cl = OrDie(cube.PosOf(Dimension::kLocation,
                                     sub.axis_id(Dimension::kLocation, l)),
                          "location pos");
        std::optional<double> want = sub.Get(g, q, l);
        if (!SameBits(cube.Get(cg, cq, cl), want) ||
            !SameBits(mapped.Get(cg, cq, cl), want)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

WorkloadResult RunScaleRebuild(const RunContext& ctx) {
  WorkloadResult r;
  SpanBuffer* spans = ctx.spans;
  std::map<std::string, std::vector<double>> layer;
  double cells_built = 0.0, build_ms_total = 0.0;
  double sorted_accesses = 0.0, random_accesses = 0.0, p1_answers = 0.0;
  const std::string cube_path = ctx.work_dir + "/scale_rebuild_emd.bin";

  const double min_iterations =
      std::max(1.0, kMinIterationsPerSecond * ctx.seconds);
  for (uint64_t i = 0;
       r.measured_ms < ctx.seconds * 1e3 || i < min_iterations; ++i) {
    const uint64_t id = i + 1;
    // Each rebuild is cold: it starts from a trimmed heap, and the peak
    // window starts with it.
    ReleaseFreedMemory();
    ResetPeakRss();
    const uint64_t iteration_seed = DeriveSeed(ctx.seed, i);

    // --- set-up: input generation --------------------------------------------
    double t = NowMs();
    MarketplaceDataset market(AttributeSchema{});
    SearchDataset search(AttributeSchema{});
    {
      ScopedSpan span(spans, "market", id);
      market = OrDie(GenerateScaleMarketplace(MarketSpec(iteration_seed)),
                     "scale marketplace");
      search = OrDie(
          GenerateScaleSearch(SearchSpec(DeriveSeed(iteration_seed, 1))),
          "scale search");
    }
    r.setup_s.push_back((NowMs() - t) / 1e3);

    // --- refresh: cold rebuild of both platform cubes ------------------------
    const double rebuild_start = NowMs();
    GroupSpace space = [&] {
      ScopedSpan span(spans, "core.build", id);
      return OrDie(GroupSpace::Enumerate(market.schema()), "space");
    }();
    t = NowMs();
    {
      ScopedSpan span(spans, "core.build", id);
      CubeAxes axes =
          OrDie(ResolveMarketplaceCubeAxes(market, space), "resolve axes");
      auto writer = OrDie(BinaryCubeColumnWriter::Create(cube_path, axes),
                          "cube writer");
      ShardedBuildOptions sharded;
      sharded.shard_columns = 4096;
      sharded.parallelism = ctx.cpus;
      MustOk(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd,
                                         {}, axes, sharded, writer.get()),
             "sharded build");
      double build_ms = NowMs() - t;
      layer["core.build_ms.market_emd"].push_back(build_ms);
      build_ms_total += build_ms;
      t = NowMs();
      ScopedSpan io(spans, "crawl.cube_io", id);
      MustOk(writer->Finish(), "cube finish");
    }
    layer["crawl.cube_io.save_ms"].push_back(NowMs() - t);

    t = NowMs();
    MappedCube mapped = [&] {
      ScopedSpan span(spans, "crawl.cube_io", id);
      return OrDie(MappedCube::Open(cube_path), "verified open");
    }();
    layer["crawl.cube_io.open_verified_ms"].push_back(NowMs() - t);
    layer["crawl.cube_io.file_mb"].push_back(
        static_cast<double>(mapped.file_bytes()) / (1 << 20));
    t = NowMs();
    UnfairnessCube cube = [&] {
      ScopedSpan span(spans, "crawl.cube_io", id);
      return OrDie(LoadCubeBinary(cube_path), "load cube");
    }();
    layer["crawl.cube_io.load_ms"].push_back(NowMs() - t);
    cells_built += static_cast<double>(cube.num_cells());

    t = NowMs();
    IndexSet indices = [&] {
      ScopedSpan span(spans, "core.indices", id);
      return IndexSet::Build(cube);
    }();
    layer["core.indices.build_ms"].push_back(NowMs() - t);

    GroupSpace search_space = [&] {
      ScopedSpan span(spans, "core.build", id);
      return OrDie(GroupSpace::Enumerate(search.schema()), "search space");
    }();
    for (auto [measure, name] :
         {std::pair{SearchMeasure::kKendallTau, "core.build_ms.search_kendall"},
          std::pair{SearchMeasure::kJaccard, "core.build_ms.search_jaccard"}}) {
      t = NowMs();
      ScopedSpan span(spans, "core.build", id);
      UnfairnessCube built = OrDie(
          BuildSearchCube(search, search_space, measure, {}, {}, ctx.cpus),
          "search cube");
      double ms = NowMs() - t;
      layer[name].push_back(ms);
      build_ms_total += ms;
      cells_built += static_cast<double>(built.num_cells());
    }
    const double rebuild_ms = NowMs() - rebuild_start;
    r.refresh_ms.push_back(rebuild_ms);
    r.measured_ms += rebuild_ms;

    // --- cold answers --------------------------------------------------------
    std::vector<QuantificationRequest> requests = DistinctRequests(cube);
    QuantificationService::Options options;
    options.cache_capacity = 0;
    QuantificationService service(&cube, &indices, options);
    std::vector<Result<QuantificationResult>> answers;
    answers.reserve(requests.size());
    const size_t answers_begin = r.answer_ms.size();
    for (size_t q = 0; q < requests.size(); ++q) {
      t = NowMs();
      {
        // With the cache off the service only keys the request; the
        // solve is the Top-K layer's work.
        ScopedSpan span(spans, "core.quantification", id);
        answers.push_back(service.Answer(requests[q]));
      }
      double ms = NowMs() - t;
      r.answer_ms.push_back(ms);
      r.measured_ms += ms;
      layer["core.quantification.solve_ms"].push_back(ms);
      if (answers.back().ok()) {
        ++r.ops.ok;
        sorted_accesses +=
            static_cast<double>(answers.back()->stats.sorted_accesses);
        random_accesses +=
            static_cast<double>(answers.back()->stats.random_accesses);
        ++p1_answers;
      } else {
        ++r.ops.failed;
      }
    }
    // Problem 2: the first two groups broken down by location, and the
    // first two locations broken down by query.
    ComparisonRequest by_location;
    by_location.compare_dim = Dimension::kGroup;
    by_location.r1_pos = 0;
    by_location.r2_pos = 1;
    by_location.breakdown_dim = Dimension::kLocation;
    ComparisonRequest by_query;
    by_query.compare_dim = Dimension::kLocation;
    by_query.r1_pos = 0;
    by_query.r2_pos = 1;
    by_query.breakdown_dim = Dimension::kQuery;
    for (const ComparisonRequest& request : {by_location, by_query}) {
      t = NowMs();
      Result<ComparisonResult> answer = [&] {
        ScopedSpan span(spans, "core.comparison", id);
        return SolveComparison(cube, request);
      }();
      double ms = NowMs() - t;
      r.answer_ms.push_back(ms);
      r.measured_ms += ms;
      layer["core.comparison.solve_ms"].push_back(ms);
      if (answer.ok()) {
        ++r.ops.ok;
      } else {
        ++r.ops.failed;
      }
    }
    r.CloseAnswers(answers_begin);
    QuantificationService::Stats stats = service.stats();
    r.Check(stats.computations == requests.size() && stats.cache_hits == 0,
            "iteration " + std::to_string(i) +
                ": cache-off service did not compute every request");

    // --- output checks (outside the timed parts) -----------------------------
    r.ObservePeakRss();
    ScopedSpan check(spans, "check", id);
    r.Check(SampledColumnsMatch(market, space, cube, mapped,
                                DeriveSeed(iteration_seed, 3)),
            "iteration " + std::to_string(i) +
                ": loaded cube differs from the restricted in-memory build");
    for (size_t q = 0; q < requests.size(); q += 3) {
      r.Check(answers[q].ok() && MatchesOracle(cube, requests[q], *answers[q]),
              "iteration " + std::to_string(i) + ": cold answer " +
                  std::to_string(q) + " differs from the brute-force oracle");
    }
  }
  std::remove(cube_path.c_str());

  for (const auto& [name, samples] : layer) r.layer[name] = Median(samples);
  r.layer["core.build_cells_per_s"] =
      build_ms_total > 0.0 ? cells_built / (build_ms_total / 1e3) : 0.0;
  if (p1_answers > 0) {
    r.layer["core.quantification.sorted_accesses_per_answer"] =
        sorted_accesses / p1_answers;
    r.layer["core.quantification.random_accesses_per_answer"] =
        random_accesses / p1_answers;
  }
  return r;
}

}  // namespace fjbench
