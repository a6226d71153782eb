// Differential suite: the Top-K engine (RunTopK, one lane of the batched
// engine behind SolveQuantification) must return the brute-force oracle's
// answers (tests/topk_oracle.h) across every algorithm, direction,
// missing-cell policy and allowed-filter variant, on cubes with missing
// cells, wide and sparse lists, and after incremental index maintenance;
// its FaginStats are pinned by golden digests. A dedicated binary (see
// tests/CMakeLists.txt) so CI can run it directly under the sanitizers.

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fagin.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "serve/fnv.h"
#include "topk_oracle.h"

namespace fairjob {
namespace {

using topk_oracle::BitsOf;

// A cube with the requested density of present cells; values uniform [0,1).
UnfairnessCube MakeRandomCube(Rng& rng, size_t groups, size_t queries,
                              size_t locations, double density) {
  std::vector<int32_t> g_ids, q_ids, l_ids;
  for (size_t i = 0; i < groups; ++i) g_ids.push_back(static_cast<int32_t>(i));
  for (size_t i = 0; i < queries; ++i) {
    q_ids.push_back(static_cast<int32_t>(100 + i));
  }
  for (size_t i = 0; i < locations; ++i) {
    l_ids.push_back(static_cast<int32_t>(200 + i));
  }
  auto cube = UnfairnessCube::Make(g_ids, q_ids, l_ids);
  EXPECT_TRUE(cube.ok()) << cube.status().message();
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries; ++q) {
      for (size_t l = 0; l < locations; ++l) {
        if (rng.NextBernoulli(density)) cube->Set(g, q, l, rng.NextDouble());
      }
    }
  }
  return *std::move(cube);
}

// Runs one configuration through the engine and checks it against the
// oracle: every run succeeds with the oracle's answer, values bit for bit
// (see topk_oracle::Agrees for ties at the cut).
void ExpectMatchesOracle(TopKAlgorithm algorithm,
                         const std::vector<const InvertedIndex*>& lists,
                         const TopKOptions& options) {
  SCOPED_TRACE(::testing::Message()
               << "algorithm=" << TopKAlgorithmName(algorithm)
               << " k=" << options.k << " most_unfair="
               << (options.direction == RankDirection::kMostUnfair)
               << " skip=" << (options.missing == MissingCellPolicy::kSkip)
               << " allowed=" << (options.allowed != nullptr));

  Result<std::vector<ScoredEntry>> got = RunTopK(algorithm, lists, options);
  ASSERT_TRUE(got.ok()) << got.status().message();

  std::vector<ScoredEntry> want = topk_oracle::TopK(lists, options);
  const bool agrees = topk_oracle::Agrees(*got, want);
  EXPECT_TRUE(agrees);
  if (!agrees) {
    for (size_t i = 0; i < std::max(got->size(), want.size()); ++i) {
      ADD_FAILURE() << "rank " << i << ": got "
                    << (i < got->size() ? (*got)[i].pos : -1) << "="
                    << (i < got->size() ? (*got)[i].value : 0.0) << " want "
                    << (i < want.size() ? want[i].pos : -1) << "="
                    << (i < want.size() ? want[i].value : 0.0);
    }
  }
}

constexpr TopKAlgorithm kAlgorithms[] = {TopKAlgorithm::kThresholdAlgorithm,
                                         TopKAlgorithm::kScan};
constexpr RankDirection kDirections[] = {RankDirection::kMostUnfair,
                                         RankDirection::kLeastUnfair};
constexpr MissingCellPolicy kPolicies[] = {MissingCellPolicy::kSkip,
                                           MissingCellPolicy::kZero};

// Every algorithm × direction × policy × allowed variant for the given
// lists.
void RunFullGrid(const std::vector<const InvertedIndex*>& lists,
                 size_t universe, const std::vector<int32_t>& allowed,
                 size_t k) {
  for (TopKAlgorithm algorithm : kAlgorithms) {
    for (RankDirection direction : kDirections) {
      for (MissingCellPolicy missing : kPolicies) {
        for (bool restrict_targets : {false, true}) {
          TopKOptions options;
          options.k = k;
          options.direction = direction;
          options.missing = missing;
          options.allowed = restrict_targets ? &allowed : nullptr;
          options.universe_hint = universe;
          ExpectMatchesOracle(algorithm, lists, options);
        }
      }
    }
  }
}

TEST(FaginDenseDifferential, RandomCubesFullGrid) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    // Shapes chosen so every dimension gets a turn as the large axis; 0.6
    // density leaves plenty of missing cells.
    size_t groups = 3 + rng.NextBelow(6);
    size_t queries = 2 + rng.NextBelow(5);
    size_t locations = 2 + rng.NextBelow(4);
    UnfairnessCube cube =
        MakeRandomCube(rng, groups, queries, locations, 0.6);
    IndexSet indices = IndexSet::Build(cube);

    for (Dimension target :
         {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " target="
                                        << DimensionName(target));
      std::vector<const InvertedIndex*> lists =
          indices.ListsFor(target, AxisSelector::All(), AxisSelector::All());
      size_t universe = cube.axis_size(target);
      // An arbitrary-but-deterministic subset of eligible targets.
      std::vector<int32_t> allowed;
      for (size_t pos = 0; pos < universe; pos += 2) {
        allowed.push_back(static_cast<int32_t>(pos));
      }
      for (size_t k : {size_t{1}, size_t{3}, universe + 2}) {
        RunFullGrid(lists, universe, allowed, k);
      }
    }
  }
}

TEST(FaginDenseDifferential, SelectorSubsetsAgree) {
  Rng rng(7);
  UnfairnessCube cube = MakeRandomCube(rng, 6, 5, 4, 0.5);
  IndexSet indices = IndexSet::Build(cube);
  // Restrict the aggregation box: only some queries and locations.
  std::vector<const InvertedIndex*> lists = indices.ListsFor(
      Dimension::kGroup, AxisSelector{{0, 2, 4}}, AxisSelector{{1, 3}});
  std::vector<int32_t> allowed = {0, 1, 5};
  RunFullGrid(lists, cube.axis_size(Dimension::kGroup), allowed, 3);
}

// After IndexSet::RefreshColumn upserts/removes, the dense value columns
// must stay in sync: the refreshed set must match a set rebuilt from
// scratch, list by list, both via sorted access and via random access.
TEST(FaginDenseDifferential, RefreshColumnKeepsDenseColumnsInSync) {
  Rng rng(11);
  UnfairnessCube cube = MakeRandomCube(rng, 6, 5, 4, 0.7);
  IndexSet indices = IndexSet::Build(cube);

  // Touch two (query, location) columns: updates, inserts and removals.
  for (auto [q, l] : {std::pair<size_t, size_t>{1, 2}, {3, 0}}) {
    for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
      double coin = rng.NextDouble();
      if (coin < 0.35) {
        cube.Clear(g, q, l);
      } else if (coin < 0.8) {
        cube.Set(g, q, l, rng.NextDouble());
      }
    }
    indices.RefreshColumn(cube, q, l);
  }

  IndexSet rebuilt = IndexSet::Build(cube);
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    Dimension o1 = target == Dimension::kGroup ? Dimension::kQuery
                                               : Dimension::kGroup;
    Dimension o2 = target == Dimension::kLocation ? Dimension::kQuery
                                                  : Dimension::kLocation;
    for (size_t a = 0; a < cube.axis_size(o1); ++a) {
      for (size_t b = 0; b < cube.axis_size(o2); ++b) {
        const InvertedIndex& got = indices.ListAt(target, a, b);
        const InvertedIndex& want = rebuilt.ListAt(target, a, b);
        SCOPED_TRACE(::testing::Message() << DimensionName(target) << " list ("
                                          << a << ", " << b << ")");
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got.entry(i).pos, want.entry(i).pos);
          EXPECT_EQ(BitsOf(got.entry(i).value), BitsOf(want.entry(i).value));
        }
        for (size_t pos = 0; pos < cube.axis_size(target); ++pos) {
          std::optional<double> gv = got.Find(static_cast<int32_t>(pos));
          std::optional<double> wv = want.Find(static_cast<int32_t>(pos));
          ASSERT_EQ(gv.has_value(), wv.has_value()) << "pos " << pos;
          if (gv.has_value()) {
            EXPECT_EQ(BitsOf(*gv), BitsOf(*wv));
          }
        }
      }
    }
  }

  // And every algorithm still finds the oracle's answer on the refreshed
  // lists.
  std::vector<const InvertedIndex*> lists = indices.ListsFor(
      Dimension::kGroup, AxisSelector::All(), AxisSelector::All());
  std::vector<int32_t> allowed = {0, 2, 3};
  RunFullGrid(lists, cube.axis_size(Dimension::kGroup), allowed, 4);
}

// Upsert beyond the current dense extent must grow the column, and Remove
// must clear the slot; checked against a rebuilt-from-entries twin.
TEST(FaginDenseDifferential, UpsertGrowsAndRemoveClearsDenseColumn) {
  InvertedIndex list({{0, 0.5}, {2, 0.9}});
  ASSERT_EQ(list.dense_size(), 3u);
  list.Upsert(7, 0.25);
  EXPECT_GE(list.dense_size(), 8u);
  EXPECT_EQ(list.Find(7), std::optional<double>(0.25));
  list.Upsert(2, 0.1);
  EXPECT_EQ(list.Find(2), std::optional<double>(0.1));
  list.Remove(0);
  EXPECT_EQ(list.Find(0), std::nullopt);
  EXPECT_EQ(list.Find(-1), std::nullopt);
  EXPECT_EQ(list.Find(100), std::nullopt);

  std::vector<ScoredEntry> entries;
  for (size_t i = 0; i < list.size(); ++i) entries.push_back(list.entry(i));
  InvertedIndex twin(std::move(entries));
  for (int32_t pos = 0; pos < 10; ++pos) {
    EXPECT_EQ(list.Find(pos), twin.Find(pos)) << "pos " << pos;
  }
}

// Large selector fan-out: 70 lists over a 160-position universe, each list
// holding a random half or more of the positions — the shape the per-request
// engines once scored on the thread pool; the lanes score it in one pass.
TEST(FaginDenseDifferential, ParallelScoringPathMatchesReference) {
  Rng rng(13);
  constexpr size_t kUniverse = 160;
  constexpr size_t kLists = 70;
  std::vector<InvertedIndex> store;
  store.reserve(kLists);
  std::vector<int32_t> positions(kUniverse);
  for (size_t i = 0; i < kUniverse; ++i) {
    positions[i] = static_cast<int32_t>(i);
  }
  for (size_t l = 0; l < kLists; ++l) {
    rng.Shuffle(positions);
    size_t present = kUniverse / 2 + rng.NextBelow(kUniverse / 2);
    std::vector<ScoredEntry> entries;
    entries.reserve(present);
    for (size_t i = 0; i < present; ++i) {
      entries.push_back({positions[i], rng.NextDouble()});
    }
    store.emplace_back(std::move(entries));
  }
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : store) lists.push_back(&list);

  std::vector<int32_t> allowed;
  for (size_t pos = 0; pos < kUniverse; pos += 3) {
    allowed.push_back(static_cast<int32_t>(pos));
  }
  RunFullGrid(lists, kUniverse, allowed, 10);
}

// Negative list values: TA's kZero bound clamps each frontier at 0, and the
// kSkip bound takes the raw frontier; both must still find the oracle's
// answer.
TEST(FaginDenseDifferential, NegativeValuesMatchOracle) {
  Rng rng(17);
  constexpr size_t kUniverse = 64;
  std::vector<InvertedIndex> store;
  for (size_t l = 0; l < 6; ++l) {
    std::vector<ScoredEntry> entries;
    for (size_t pos = 0; pos < kUniverse; ++pos) {
      if (rng.NextBernoulli(0.8)) {
        entries.push_back(
            {static_cast<int32_t>(pos), rng.NextDouble(-1.0, 1.0)});
      }
    }
    store.emplace_back(std::move(entries));
  }
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : store) lists.push_back(&list);

  std::vector<int32_t> allowed = {1, 7, 9, 30, 55};
  for (size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
    RunFullGrid(lists, kUniverse, allowed, k);
  }
}

// Invalid requests are rejected with InvalidArgument and the documented
// message (the reference for errors; the oracle does not validate), by
// every algorithm that shares the check.
TEST(FaginDenseDifferential, ErrorCasesMatchReference) {
  InvertedIndex list({{0, 0.5}, {1, 0.25}});
  std::vector<const InvertedIndex*> one = {&list};
  auto expect_rejected = [](const Result<std::vector<ScoredEntry>>& result,
                            const std::string& message) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(), message);
  };

  TopKOptions zero_k;
  zero_k.k = 0;
  TopKOptions defaults;
  std::vector<const InvertedIndex*> none;
  std::vector<const InvertedIndex*> null_list = {&list, nullptr};
  for (TopKAlgorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    expect_rejected(RunTopK(algorithm, one, zero_k), "k must be positive");
    expect_rejected(RunTopK(algorithm, none, defaults),
                    "top-k needs at least one inverted list");
    expect_rejected(RunTopK(algorithm, null_list, defaults),
                    "null inverted list");
  }
}

// Empty lists (a cube column with no present cells) must be handled, not
// crash, and agree with the oracle.
TEST(FaginDenseDifferential, EmptyAndSingletonListsAgree) {
  InvertedIndex empty({});
  InvertedIndex single({{3, 0.75}});
  std::vector<const InvertedIndex*> lists = {&empty, &single, &empty};
  RunFullGrid(lists, 4, {3}, 2);
}

// A caller's FaginStats accumulate across runs: lanes add to them.
TEST(FaginDenseDifferential, CallerStatsAccumulate) {
  InvertedIndex list({{0, 0.5}, {1, 0.25}, {2, 0.125}});
  TopKOptions options;
  options.k = 1;
  FaginStats once;
  ASSERT_TRUE(RunTopK(TopKAlgorithm::kScan, {&list}, options, &once).ok());
  FaginStats twice = once;
  ASSERT_TRUE(RunTopK(TopKAlgorithm::kScan, {&list}, options, &twice).ok());
  EXPECT_EQ(twice.sorted_accesses, 2 * once.sorted_accesses);
  EXPECT_EQ(twice.random_accesses, 2 * once.random_accesses);
  EXPECT_EQ(twice.ids_scored, 2 * once.ids_scored);
}

// FNV-1a digests over a fixed grid of Top-K runs: every algorithm ×
// direction × missing policy × allowed filter × k on hand-built lists
// (random lists with missing cells, wide fan-out, negative values, long
// skewed lists, empty and singleton lists), plus random SolveQuantification
// requests with selector subsets. `stats` covers FaginStats, `answers` the
// answers (positions and value bits) and error messages.
struct Digest {
  uint64_t stats = fnv::kOffset;
  uint64_t answers = fnv::kOffset;
};

struct GridDigests {
  Digest main;
  size_t runs = 0;
};

void MixStats(Digest* d, const FaginStats& s) {
  for (size_t v : {s.sorted_accesses, s.random_accesses, s.ids_scored,
                   s.rounds, s.threshold_checks}) {
    fnv::HashValue(&d->stats, static_cast<uint64_t>(v));
  }
}

void MixStatus(Digest* d, const Status& status) {
  fnv::HashValue(&d->answers, static_cast<int>(status.code()));
  fnv::HashBytes(&d->answers, status.message().data(),
                 status.message().size());
}

void MixAnswer(Digest* d, int32_t id, double value) {
  fnv::HashValue(&d->answers, id);
  fnv::HashValue(&d->answers, value);
}

std::vector<InvertedIndex> GridLists(Rng& rng, size_t universe,
                                     size_t num_lists, double density,
                                     double lo, bool cubed) {
  std::vector<InvertedIndex> lists;
  for (size_t l = 0; l < num_lists; ++l) {
    std::vector<ScoredEntry> entries;
    for (size_t pos = 0; pos < universe; ++pos) {
      if (!rng.NextBernoulli(density)) continue;
      double u = rng.NextDouble();
      entries.push_back({static_cast<int32_t>(pos),
                         cubed ? u * u * u : lo + (1.0 - lo) * u});
    }
    lists.emplace_back(std::move(entries));
  }
  return lists;
}

void DigestListSet(const std::vector<InvertedIndex>& store, size_t universe,
                   GridDigests* d) {
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : store) lists.push_back(&list);
  std::vector<int32_t> allowed;
  for (size_t pos = 0; pos < universe; pos += 3) {
    allowed.push_back(static_cast<int32_t>(pos));
  }
  for (TopKAlgorithm algorithm : kAlgorithms) {
    for (RankDirection direction :
         {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
      for (MissingCellPolicy missing :
           {MissingCellPolicy::kSkip, MissingCellPolicy::kZero}) {
        for (bool restrict_targets : {false, true}) {
          for (size_t k : {size_t{1}, size_t{3}, size_t{10}, universe + 2}) {
            TopKOptions options;
            options.k = k;
            options.direction = direction;
            options.missing = missing;
            options.allowed = restrict_targets ? &allowed : nullptr;
            options.universe_hint = universe;
            FaginStats stats;
            Result<std::vector<ScoredEntry>> top =
                RunTopK(algorithm, lists, options, &stats);
            ++d->runs;
            MixStats(&d->main, stats);
            if (!top.ok()) {
              MixStatus(&d->main, top.status());
              continue;
            }
            for (const ScoredEntry& e : *top) {
              MixAnswer(&d->main, e.pos, e.value);
            }
          }
        }
      }
    }
  }
}

GridDigests DigestGrid() {
  GridDigests d;
  Rng rng(2020);
  for (int trial = 0; trial < 4; ++trial) {
    const size_t universe = 5 + rng.NextBelow(40);
    DigestListSet(GridLists(rng, universe, 1 + rng.NextBelow(6), 0.6, 0.0,
                            false),
                  universe, &d);
  }
  DigestListSet(GridLists(rng, 160, 70, 0.75, 0.0, false), 160, &d);
  DigestListSet(GridLists(rng, 64, 6, 0.8, -1.0, false), 64, &d);
  DigestListSet(GridLists(rng, 512, 16, 1.0, 0.0, true), 512, &d);
  std::vector<InvertedIndex> sparse;
  sparse.emplace_back(std::vector<ScoredEntry>{});
  sparse.emplace_back(std::vector<ScoredEntry>{{3, 0.75}});
  sparse.emplace_back(std::vector<ScoredEntry>{});
  DigestListSet(sparse, 4, &d);

  // Random Problem 1 requests with selector subsets through the entry point
  // every caller uses.
  std::vector<int32_t> ids[3];
  const size_t sizes[3] = {9, 6, 5};
  for (size_t dim = 0; dim < 3; ++dim) {
    for (size_t i = 0; i < sizes[dim]; ++i) {
      ids[dim].push_back(static_cast<int32_t>(100 * dim + i));
    }
  }
  UnfairnessCube cube = *UnfairnessCube::Make(ids[0], ids[1], ids[2]);
  for (size_t g = 0; g < sizes[0]; ++g) {
    for (size_t q = 0; q < sizes[1]; ++q) {
      for (size_t l = 0; l < sizes[2]; ++l) {
        if (rng.NextBernoulli(0.8)) cube.Set(g, q, l, rng.NextDouble());
      }
    }
  }
  IndexSet indices = IndexSet::Build(cube);
  for (int i = 0; i < 300; ++i) {
    QuantificationRequest request;
    request.target = static_cast<Dimension>(rng.NextBelow(3));
    request.k = 1 + rng.NextBelow(7);
    request.direction = rng.NextBernoulli(0.5) ? RankDirection::kMostUnfair
                                               : RankDirection::kLeastUnfair;
    request.missing = rng.NextBernoulli(0.5) ? MissingCellPolicy::kSkip
                                             : MissingCellPolicy::kZero;
    // Four-way draw, so the random stream is the one the grid had when it
    // also drew FA (now TA) and NRA (now the scan).
    request.algorithm = rng.NextBelow(4) < 2
                            ? TopKAlgorithm::kThresholdAlgorithm
                            : TopKAlgorithm::kScan;
    Dimension d1;
    Dimension d2;
    QuantificationOtherDims(request.target, &d1, &d2);
    for (size_t p = 0; p < cube.axis_size(d1); ++p) {
      if (rng.NextBernoulli(0.6)) request.agg1.positions.push_back(p);
    }
    for (size_t p = 0; p < cube.axis_size(d2); ++p) {
      if (rng.NextBernoulli(0.6)) request.agg2.positions.push_back(p);
    }
    if (rng.NextBernoulli(0.3)) {
      for (size_t p = 0; p < cube.axis_size(request.target); p += 2) {
        request.allowed_targets.push_back(static_cast<int32_t>(p));
      }
    }
    Result<QuantificationResult> result =
        SolveQuantification(cube, indices, request);
    ++d.runs;
    if (!result.ok()) {
      MixStatus(&d.main, result.status());
      continue;
    }
    MixStats(&d.main, result->stats);
    for (const QuantificationAnswer& a : result->answers) {
      MixAnswer(&d.main, a.id, a.value);
    }
  }
  return d;
}

// FaginStats semantics are part of the engine's contract (the paper's
// access-count metrics). The digests were computed from the grid above by
// the engine that still had the FA and NRA lanes (their draws mapped onto
// TA and the scan as above), so they show that deleting those lanes moved
// no TA or scan count or answer; any change to how a lane counts, or to
// what it returns, shows here.
TEST(TopKStatsDigestTest, GridDigestsArePinned) {
  GridDigests d = DigestGrid();
  EXPECT_EQ(d.runs, 812u);
  EXPECT_EQ(d.main.stats, 0xc46d573c3f1d2539ull);
  EXPECT_EQ(d.main.answers, 0x34b9f3d0aee38cfdull);
}

}  // namespace
}  // namespace fairjob
