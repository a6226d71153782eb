// paper-audit: the paper's own flow (Figures 6 and 9), repeated, with one
// monitoring re-crawl served through the incremental maintainer. Each audit
// gets a fresh default-size TaskRabbit site (3,311 taskers, 56 cities) from
// a seed derived from the workload seed; building the site is input
// generation and counts as set-up, everything from the crawl to the last
// answer, output checks excepted, counts as the audit.

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/virtual_clock.h"
#include "core/comparison.h"
#include "core/group_space.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "crawl/crawler.h"
#include "crawl/cube_io.h"
#include "crawl/dataset_assembly.h"
#include "crawl/labeling.h"
#include "crawl/profile_store.h"
#include "market/taskrabbit_sim.h"
#include "search/google_sim.h"
#include "serve/incremental.h"
#include "serve/quantification_service.h"
#include "workloads.h"

namespace fjbench {

using namespace fairjob;

namespace {

// A run is at least this many timed audits per second of --seconds, about
// half the rate of a 4-vCPU Xeon host (50 audits at 40 s), so the sample
// counts do not collapse on a much slower host; a slow host makes the run
// longer instead.
constexpr double kMinAuditsPerSecond = 1.25;
// The first audits of a process run slower (cold heap and caches); they
// are run and checked but not timed.
constexpr uint64_t kWarmupAudits = 1;

bool SameBits(std::optional<double> a, std::optional<double> b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

// Crawled rankings (by worker name, per job and city) equal the rankings
// the simulator emits directly for the same config.
bool RankingsMatchDirectBuild(const MarketplaceDataset& crawled,
                              const TaskRabbitConfig& config) {
  TaskRabbitDataset direct =
      OrDie(BuildTaskRabbitDataset(config), "direct dataset");
  const MarketplaceDataset& expected = direct.dataset;
  if (expected.num_rankings() != crawled.num_rankings()) return false;
  for (const QueryLocation& ql : expected.RankedPairs()) {
    Result<int32_t> q =
        crawled.queries().Find(expected.queries().NameOf(ql.query));
    Result<int32_t> l =
        crawled.locations().Find(expected.locations().NameOf(ql.location));
    if (!q.ok() || !l.ok()) return false;
    const MarketRanking* want = expected.GetRanking(ql.query, ql.location);
    const MarketRanking* got = crawled.GetRanking(*q, *l);
    if (got == nullptr || got->workers.size() != want->workers.size()) {
      return false;
    }
    for (size_t i = 0; i < want->workers.size(); ++i) {
      if (crawled.workers().NameOf(got->workers[i]) !=
          expected.workers().NameOf(want->workers[i])) {
        return false;
      }
    }
  }
  return true;
}

bool MappedMatchesCube(const MappedCube& mapped, const UnfairnessCube& cube) {
  const size_t gs = cube.axis_size(Dimension::kGroup);
  const size_t qs = cube.axis_size(Dimension::kQuery);
  const size_t ls = cube.axis_size(Dimension::kLocation);
  if (mapped.axis_size(Dimension::kGroup) != gs ||
      mapped.axis_size(Dimension::kQuery) != qs ||
      mapped.axis_size(Dimension::kLocation) != ls) {
    return false;
  }
  for (size_t g = 0; g < gs; ++g) {
    for (size_t q = 0; q < qs; ++q) {
      for (size_t l = 0; l < ls; ++l) {
        if (!SameBits(mapped.Get(g, q, l), cube.Get(g, q, l))) return false;
      }
    }
  }
  return true;
}

// Re-crawled pages as a crawl batch over the dataset's ids. Workers the
// first crawl never saw have no label and are left out, as assembly leaves
// out unlabeled workers.
CrawlBatch ToCrawlBatch(const MarketplaceDataset& data,
                        const std::vector<CrawlRecord>& records) {
  std::map<std::pair<QueryId, LocationId>,
           std::vector<std::pair<size_t, WorkerId>>>
      pages;
  for (const CrawlRecord& record : records) {
    Result<int32_t> q = data.queries().Find(record.job);
    Result<int32_t> l = data.locations().Find(record.city);
    Result<int32_t> w = data.workers().Find(record.worker_name);
    if (q.ok() && l.ok() && w.ok()) {
      pages[{*q, *l}].emplace_back(record.rank, *w);
    }
  }
  CrawlBatch batch;
  for (auto& [column, ranked] : pages) {
    std::sort(ranked.begin(), ranked.end());
    CrawlBatchRow row{column.first, column.second, {}};
    for (const auto& entry : ranked) {
      row.ranking.workers.push_back(entry.second);
    }
    batch.rows.push_back(std::move(row));
  }
  return batch;
}

bool SameAnswers(const QuantificationResult& a, const QuantificationResult& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].id != b.answers[i].id ||
        std::memcmp(&a.answers[i].value, &b.answers[i].value,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<size_t> GroupPositions(const GroupSpace& space,
                                   const UnfairnessCube& cube,
                                   const std::vector<std::string>& names) {
  std::vector<size_t> positions;
  for (const std::string& name : names) {
    GroupId id = OrDie(space.FindByDisplayName(name), "group " + name);
    positions.push_back(OrDie(cube.PosOf(Dimension::kGroup, id), "group pos"));
  }
  return positions;
}

}  // namespace

WorkloadResult RunPaperAudit(const RunContext& ctx) {
  WorkloadResult r;
  SpanBuffer* spans = ctx.spans;
  // Per-layer samples, one per audit; reported as medians.
  std::map<std::string, std::vector<double>> layer;
  double cells_built = 0.0, build_ms_total = 0.0;
  double sorted_accesses = 0.0, random_accesses = 0.0, p1_answers = 0.0;
  const std::string cube_path = ctx.work_dir + "/paper_audit_emd.bin";

  const double min_audits =
      kWarmupAudits + kMinAuditsPerSecond * ctx.seconds;
  for (uint64_t i = 0; r.measured_ms < ctx.seconds * 1e3 || i < min_audits;
       ++i) {
    const uint64_t id = i + 1;  // request id of this audit's spans
    ResetPeakRss();
    const uint64_t audit_seed = DeriveSeed(ctx.seed, i);
    TaskRabbitConfig config;
    config.seed = audit_seed;

    double t = NowMs();
    std::unique_ptr<SimulatedMarketplace> site;
    {
      ScopedSpan span(spans, "market", id);
      site = OrDie(BuildTaskRabbitSite(config), "site");
    }
    r.setup_s.push_back((NowMs() - t) / 1e3);
    const AttributeSchema& schema = site->schema();

    const double audit_start = NowMs();
    const size_t answers_begin = r.answer_ms.size();
    // --- crawl -> profiles -> labeling -> assembly ---------------------------
    VirtualClock clock;
    Crawler crawler(site.get(), &clock, CrawlerConfig{});
    CrawlReport report;
    t = NowMs();
    {
      ScopedSpan span(spans, "crawl", id);
      report = OrDie(crawler.CrawlAll(), "crawl");
    }
    layer["crawl.crawl_ms"].push_back(NowMs() - t);
    const size_t offered = site->num_queries_offered();
    r.ops.failed += report.failed_queries;
    r.ops.ok += offered - report.failed_queries;
    layer["crawl.requests"].push_back(
        static_cast<double>(report.requests_issued));
    layer["crawl.retries"].push_back(static_cast<double>(report.retries));

    ProfileStore profiles;
    t = NowMs();
    {
      ScopedSpan span(spans, "crawl", id);
      MustOk(crawler.CollectProfiles(report.records, &profiles, &report),
             "profiles");
    }
    layer["crawl.profiles_ms"].push_back(NowMs() - t);

    t = NowMs();
    std::unordered_map<std::string, Demographics> demographics;
    {
      ScopedSpan span(spans, "crawl", id);
      std::vector<Demographics> truths;
      truths.reserve(profiles.size());
      for (const RawProfile& profile : profiles.profiles()) {
        truths.push_back(
            OrDie(site->TruthByPicture(profile.picture_ref), "picture"));
      }
      Rng rng(DeriveSeed(audit_seed, 1));
      LabelingOutcome labeled =
          OrDie(RunLabeling(schema, truths, LabelingConfig{}, &rng),
                "labeling");
      for (size_t p = 0; p < profiles.size(); ++p) {
        demographics[profiles.profiles()[p].worker_name] = labeled.labels[p];
      }
    }
    layer["crawl.labeling_ms"].push_back(NowMs() - t);

    t = NowMs();
    MarketplaceAssembly assembly = [&] {
      ScopedSpan span(spans, "crawl", id);
      return OrDie(AssembleMarketplace(schema, report.records, demographics),
                   "assembly");
    }();
    layer["crawl.assembly_ms"].push_back(NowMs() - t);

    // --- cubes, persistence ---------------------------------------------------
    // The EMD cube is built once, by the incremental maintainer that later
    // applies the re-crawl: its cold build makes the cube, the inverted
    // indices and the fingerprint the service keys against. The dataset
    // moves into it.
    t = NowMs();
    GroupSpace space = [&] {
      ScopedSpan span(spans, "core.build", id);
      return OrDie(GroupSpace::Enumerate(schema), "group space");
    }();
    MarketplaceCubeMaintainer maintainer = [&] {
      ScopedSpan span(spans, "core.build", id);
      return OrDie(MarketplaceCubeMaintainer::Make(std::move(assembly.dataset),
                                                   space, MarketMeasure::kEmd),
                   "maintainer");
    }();
    layer["core.build_ms.market_emd"].push_back(NowMs() - t);
    build_ms_total += NowMs() - t;
    const MarketplaceDataset& data = maintainer.data();
    t = NowMs();
    {
      ScopedSpan span(spans, "core.build", id);
      UnfairnessCube exposure = OrDie(
          BuildMarketplaceCube(data, space, MarketMeasure::kExposure),
          "exposure cube");
      cells_built += static_cast<double>(exposure.num_cells());
    }
    layer["core.build_ms.market_exposure"].push_back(NowMs() - t);
    build_ms_total += NowMs() - t;

    // Problem 1 on every dimension, Problem 2 by gender.
    std::vector<QuantificationRequest> p1_requests;
    for (Dimension target :
         {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
      QuantificationRequest request;
      request.target = target;
      request.k = 5;
      p1_requests.push_back(request);
    }
    std::vector<QuantificationResult> p1;
    double paused_ms = 0.0;  // output checks inside the audit, not timed
    {
      // The first snapshot; the upsert below replaces it in the maintainer
      // and SetSnapshot in the service, which frees it.
      const UnfairnessCube& emd = maintainer.snapshot()->cube();
      const IndexSet& indices = maintainer.snapshot()->indices();
      cells_built += static_cast<double>(emd.num_cells());

      t = NowMs();
      {
        ScopedSpan span(spans, "crawl.cube_io", id);
        MustOk(SaveCubeBinary(cube_path, emd), "save cube");
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

      for (const QuantificationRequest& request : p1_requests) {
        t = NowMs();
        Result<QuantificationResult> answer = [&] {
          ScopedSpan span(spans, "core.quantification", id);
          return SolveQuantification(emd, indices, request);
        }();
        double ms = NowMs() - t;
        r.answer_ms.push_back(ms);
        layer["core.quantification.solve_ms"].push_back(ms);
        if (!answer.ok()) {
          ++r.ops.failed;
          continue;
        }
        ++r.ops.ok;
        sorted_accesses += static_cast<double>(answer->stats.sorted_accesses);
        random_accesses += static_cast<double>(answer->stats.random_accesses);
        ++p1_answers;
        p1.push_back(std::move(answer).value());
      }

      ComparisonRequest by_gender;
      by_gender.compare_dim = Dimension::kGroup;
      by_gender.r1_set = GroupPositions(
          space, emd, {"Asian Male", "Black Male", "White Male"});
      by_gender.r2_set = GroupPositions(
          space, emd, {"Asian Female", "Black Female", "White Female"});
      by_gender.breakdown_dim = Dimension::kLocation;
      t = NowMs();
      Result<ComparisonResult> comparison = [&] {
        ScopedSpan span(spans, "core.comparison", id);
        return SolveComparison(emd, by_gender);
      }();
      double compare_ms = NowMs() - t;
      r.answer_ms.push_back(compare_ms);
      layer["core.comparison.solve_ms"].push_back(compare_ms);
      if (comparison.ok()) {
        ++r.ops.ok;
      } else {
        ++r.ops.failed;
      }

      // The re-crawl changes the dataset and the cube, so the checks of the
      // crawl and of the file run here.
      t = NowMs();
      r.ObservePeakRss();
      {
        ScopedSpan check(spans, "check", id);
        r.Check(MappedMatchesCube(mapped, emd),
                "audit " + std::to_string(i) + ": mmap Get differs from cube");
        if (i == 0) {
          r.Check(RankingsMatchDirectBuild(data, config),
                  "audit 0: crawled rankings differ from "
                  "BuildTaskRabbitDataset");
        }
      }
      ResetPeakRss();
      paused_ms += NowMs() - t;
    }

    // --- monitoring: serve, re-crawl one city at the next epoch, serve -------
    // The Problem 1 requests are served from the first snapshot; one city
    // is re-crawled after the market moves, its pages are upserted, the new
    // snapshot is published and the requests are served again.
    QuantificationService service(maintainer.snapshot());
    std::vector<Result<QuantificationResult>> served;
    auto serve_all = [&] {
      for (const QuantificationRequest& request : p1_requests) {
        t = NowMs();
        {
          ScopedSpan span(spans, "serve.service", id);
          served.push_back(service.Answer(request));
        }
        r.answer_ms.push_back(NowMs() - t);
        if (served.back().ok()) {
          ++r.ops.ok;
        } else {
          ++r.ops.failed;
        }
      }
    };
    serve_all();
    site->SetEpoch(1);
    const std::vector<std::string> cities = site->Cities();
    const std::string& city = cities[i % cities.size()];
    std::vector<std::pair<std::string, std::string>> pages;
    for (const std::string& job : site->JobsIn(city)) {
      pages.emplace_back(job, city);
    }
    CrawlReport recrawl = [&] {
      ScopedSpan span(spans, "crawl", id);
      return OrDie(crawler.CrawlQueries(pages), "re-crawl");
    }();
    r.ops.failed += recrawl.failed_queries;
    r.ops.ok += pages.size() - recrawl.failed_queries;
    CrawlBatch batch = ToCrawlBatch(data, recrawl.records);
    t = NowMs();
    Result<UpsertReport> upsert = [&] {
      ScopedSpan span(spans, "serve.incremental", id);
      return maintainer.UpsertCrawlBatch(batch);
    }();
    const double upsert_ms = NowMs() - t;
    if (upsert.ok()) {
      ++r.ops.ok;
      layer["serve.incremental.upsert_ms"].push_back(upsert_ms);
      layer["serve.incremental.columns_touched"].push_back(
          static_cast<double>(upsert->columns_touched));
      layer["serve.incremental.columns_changed"].push_back(
          static_cast<double>(upsert->columns_changed));
      layer["serve.incremental.cells_recomputed"].push_back(
          static_cast<double>(upsert->cells_recomputed));
    } else {
      ++r.ops.failed;
    }
    t = NowMs();
    {
      ScopedSpan span(spans, "serve.incremental", id);
      service.SetSnapshot(maintainer.snapshot());
    }
    layer["serve.set_snapshot_us"].push_back((NowMs() - t) * 1e3);
    serve_all();
    const QuantificationService::Stats serve_stats = service.stats();
    layer["serve.computations"].push_back(
        static_cast<double>(serve_stats.computations));

    // --- Google study: Kendall-Tau and Jaccard cubes, Problem 1 --------------
    GoogleStudyConfig study_config;
    study_config.seed = DeriveSeed(audit_seed, 2);
    t = NowMs();
    GoogleWorld world = [&] {
      ScopedSpan span(spans, "search", id);
      return OrDie(BuildGoogleStudy(study_config), "google study");
    }();
    layer["search.study_ms"].push_back(NowMs() - t);
    t = NowMs();
    GroupSpace search_space = [&] {
      ScopedSpan span(spans, "core.build", id);
      return OrDie(GroupSpace::Enumerate(world.dataset.schema()),
                   "search space");
    }();
    UnfairnessCube kendall = [&] {
      ScopedSpan span(spans, "core.build", id);
      return OrDie(BuildSearchCube(world.dataset, search_space,
                                   SearchMeasure::kKendallTau),
                   "kendall cube");
    }();
    layer["core.build_ms.search_kendall"].push_back(NowMs() - t);
    build_ms_total += NowMs() - t;
    t = NowMs();
    {
      ScopedSpan span(spans, "core.build", id);
      UnfairnessCube jaccard =
          OrDie(BuildSearchCube(world.dataset, search_space,
                                SearchMeasure::kJaccard),
                "jaccard cube");
      cells_built += static_cast<double>(jaccard.num_cells());
    }
    layer["core.build_ms.search_jaccard"].push_back(NowMs() - t);
    build_ms_total += NowMs() - t;
    cells_built += static_cast<double>(kendall.num_cells());
    t = NowMs();
    IndexSet search_indices = [&] {
      ScopedSpan span(spans, "core.indices", id);
      return IndexSet::Build(kendall);
    }();
    layer["core.indices.build_ms"].push_back(NowMs() - t);
    {
      QuantificationRequest request;
      request.target = Dimension::kGroup;
      request.k = 5;
      t = NowMs();
      Result<QuantificationResult> answer = [&] {
        ScopedSpan span(spans, "core.quantification", id);
        return SolveQuantification(kendall, search_indices, request);
      }();
      double ms = NowMs() - t;
      r.answer_ms.push_back(ms);
      layer["core.quantification.solve_ms"].push_back(ms);
      if (answer.ok()) {
        ++r.ops.ok;
        sorted_accesses += static_cast<double>(answer->stats.sorted_accesses);
        random_accesses += static_cast<double>(answer->stats.random_accesses);
        ++p1_answers;
      } else {
        ++r.ops.failed;
      }
    }
    const double audit_ms = NowMs() - audit_start - paused_ms;
    if (i < kWarmupAudits) {
      r.answer_ms.resize(answers_begin);
    } else {
      r.refresh_ms.push_back(audit_ms);
      r.CloseAnswers(answers_begin);
      r.measured_ms += audit_ms;
    }

    // --- output checks (outside the timed audit) -----------------------------
    r.ObservePeakRss();
    ScopedSpan check(spans, "check", id);
    r.Check(assembly.dropped_records == 0,
            "audit " + std::to_string(i) + ": assembly dropped records");
    bool asian_top = !p1.empty() && !p1[0].answers.empty() &&
                     space.label(p1[0].answers[0].id)
                             .DisplayName(schema)
                             .rfind("Asian", 0) == 0;
    r.Check(asian_top, "audit " + std::to_string(i) +
                           ": EMD top group is not an Asian group");
    bool served_ok = served.size() == 2 * p1_requests.size();
    for (size_t s = 0; served_ok && s < served.size(); ++s) {
      served_ok = served[s].ok();
    }
    for (size_t s = 0; served_ok && s < p1_requests.size(); ++s) {
      const CubeSnapshot& now = *maintainer.snapshot();
      served_ok =
          p1.size() == p1_requests.size() && SameAnswers(*served[s], p1[s]) &&
          SameAnswers(*served[p1_requests.size() + s],
                      OrDie(SolveQuantification(now.cube(), now.indices(),
                                                p1_requests[s]),
                            "direct solve"));
    }
    r.Check(served_ok, "audit " + std::to_string(i) +
                           ": served answers differ from direct solves");
    if (i == 0) {
      UnfairnessCube cold = OrDie(
          BuildMarketplaceCube(data, space, MarketMeasure::kEmd),
          "cold rebuild");
      const UnfairnessCube& upserted = maintainer.snapshot()->cube();
      bool same = cold.num_cells() == upserted.num_cells();
      for (size_t g = 0; same && g < cold.axis_size(Dimension::kGroup); ++g) {
        for (size_t q = 0; same && q < cold.axis_size(Dimension::kQuery);
             ++q) {
          for (size_t l = 0; same && l < cold.axis_size(Dimension::kLocation);
               ++l) {
            same = SameBits(cold.Get(g, q, l), upserted.Get(g, q, l));
          }
        }
      }
      r.Check(same, "audit 0: upserted cube differs from a cold rebuild");
    }
  }
  std::remove(cube_path.c_str());

  std::vector<double> upsert_ms =
      std::move(layer["serve.incremental.upsert_ms"]);
  layer.erase("serve.incremental.upsert_ms");
  r.layer["serve.incremental.upsert_ms_p50"] = Median(upsert_ms);
  r.layer["serve.incremental.upsert_ms_tail"] = Tail(upsert_ms).value;
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
