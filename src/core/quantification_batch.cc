#include "core/quantification_batch.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "ranking/simd.h"

namespace fairjob {
namespace {

// True when `a` should rank ahead of `b` for the requested direction.
bool Better(double a, double b, RankDirection dir) {
  return dir == RankDirection::kMostUnfair ? a > b : a < b;
}

// Final ordering of every lane's output: best-first for the direction, ties
// by ascending position. A total order, so the result is deterministic
// however the candidate set was produced.
auto RankOrder(RankDirection dir) {
  return [dir](const ScoredEntry& a, const ScoredEntry& b) {
    if (a.value != b.value) return Better(a.value, b.value, dir);
    return a.pos < b.pos;
  };
}

void SortResults(std::vector<ScoredEntry>* out, RankDirection dir) {
  std::sort(out->begin(), out->end(), RankOrder(dir));
}

// Bound on the aggregate of any id never returned by sorted access so far —
// TA's termination bound. Pure in (lists, cursors, direction, missing), so
// every TA lane sharing the cursors shares the bound.
double ThresholdBound(const std::vector<const InvertedIndex*>& lists,
                      const std::vector<size_t>& cursors,
                      const TopKOptions& opt) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool most = opt.direction == RankDirection::kMostUnfair;
  if (opt.missing == MissingCellPolicy::kSkip) {
    double bound = most ? -kInf : kInf;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i]->size()) continue;  // exhausted: no unseen ids
      size_t next = most ? cursors[i] : lists[i]->size() - 1 - cursors[i];
      double frontier = lists[i]->entry(next).value;
      bound = most ? std::max(bound, frontier) : std::min(bound, frontier);
    }
    return bound;
  }
  // kZero: average of per-list bounds; a missing cell contributes exactly 0.
  double sum = 0.0;
  for (size_t i = 0; i < lists.size(); ++i) {
    if (cursors[i] >= lists[i]->size()) continue;  // per-list bound is 0
    size_t next = most ? cursors[i] : lists[i]->size() - 1 - cursors[i];
    double frontier = lists[i]->entry(next).value;
    sum += most ? std::max(frontier, 0.0) : std::min(frontier, 0.0);
  }
  return sum / static_cast<double>(lists.size());
}

// Extent of the position space: every entry pos of every list lies in
// [0, universe). An understated hint is corrected from the lists.
size_t UniverseOf(const std::vector<const InvertedIndex*>& lists,
                  size_t hint) {
  size_t universe = hint;
  for (const InvertedIndex* list : lists) {
    universe = std::max(universe, list->dense_size());
  }
  return universe;
}

// Materializes TopKOptions::allowed into a position-indexed byte bitmap
// inside `scratch`. Returns nullptr when every position is allowed, so the
// hot loops keep a single branch.
const uint8_t* BuildAllowedBitmap(const std::vector<int32_t>* allowed,
                                  size_t universe,
                                  std::vector<uint8_t>* scratch) {
  if (allowed == nullptr) return nullptr;
  scratch->assign(universe, 0);
  for (int32_t pos : *allowed) {
    if (pos >= 0 && static_cast<size_t>(pos) < universe) {
      (*scratch)[static_cast<size_t>(pos)] = 1;
    }
  }
  return scratch->data();
}

// `pos` must lie in [0, universe) — true for every position read from a
// list entry.
bool IsAllowed(const uint8_t* allowed, int32_t pos) {
  return allowed == nullptr || allowed[static_cast<size_t>(pos)] != 0;
}

// Metric label of each algorithm: lanes publish under fagin.<label>.*.
const char* MetricLabel(TopKAlgorithm algorithm) {
  static const char* const kLabels[] = {"ta", "scan"};
  return kLabels[static_cast<size_t>(algorithm)];
}

// FNV-1a over the exact selector sequences; bucket collisions fall back to
// SameSelectorGroup.
uint64_t SelectorHash(const QuantificationRequest& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(r.target));
  mix(r.agg1.positions.size());
  for (size_t p : r.agg1.positions) mix(p);
  mix(r.agg2.positions.size());
  for (size_t p : r.agg2.positions) mix(p);
  return h;
}

bool SameSelectorGroup(const QuantificationRequest& a,
                       const QuantificationRequest& b) {
  return a.target == b.target && a.agg1.positions == b.agg1.positions &&
         a.agg2.positions == b.agg2.positions;
}

// Lazily-filled per-position (sum, present-count) over the group's lists,
// the aggregate every TA random access needs. It depends only on the lists
// and the missing policy, never on the lane, so one computation serves
// every TA lane in the group, whatever its direction. A lane aggregates
// each position at most once, so with a single TA lane the memo would only
// be written, never read: it is then built with `memoize` false, allocates
// nothing and computes every aggregate directly. The sum accumulates in
// list order and the policy division happens fresh per call, so memoized
// answers are bitwise-identical to direct ones. Each call counts one random
// access per list whether or not the value was cached: stats record the
// algorithm's accesses, not how much work the memo saved.
class ScoreMemo {
 public:
  ScoreMemo(const std::vector<const InvertedIndex*>& lists, size_t universe,
            bool memoize)
      : lists_(lists), memoize_(memoize) {
    if (memoize_) {
      sums_.assign(universe, 0.0);
      counts_.assign(universe, 0);
      known_.assign(universe, 0);
    }
  }

  // Bumps random_accesses; nullopt when the position is present in no list;
  // the caller owns ids_scored.
  [[gnu::always_inline]] std::optional<double> Aggregate(
      int32_t pos, MissingCellPolicy policy, FaginStats* stats) {
    stats->random_accesses += lists_.size();
    double sum;
    uint32_t present;
    if (!memoize_) {
      Sum(pos, &sum, &present);
    } else {
      const size_t p = static_cast<size_t>(pos);
      if (known_[p] == 0) {
        Sum(pos, &sums_[p], &counts_[p]);
        known_[p] = 1;
      }
      sum = sums_[p];
      present = counts_[p];
    }
    if (present == 0) return std::nullopt;
    if (policy == MissingCellPolicy::kSkip) {
      return sum / static_cast<double>(present);
    }
    return sum / static_cast<double>(lists_.size());
  }

 private:
  void Sum(int32_t pos, double* sum, uint32_t* present) const {
    double s = 0.0;
    uint32_t n = 0;
    for (const InvertedIndex* list : lists_) {
      std::optional<double> v = list->Find(pos);
      if (v.has_value()) {
        s += *v;
        ++n;
      }
    }
    *sum = s;
    *present = n;
  }

  const std::vector<const InvertedIndex*>& lists_;
  const bool memoize_;
  std::vector<double> sums_;
  std::vector<uint32_t> counts_;
  std::vector<uint8_t> known_;
};

// One valid request: its algorithm and options, the lane-local allowed
// bitmap, and its outputs.
struct Lane {
  size_t request_index = 0;
  TopKAlgorithm algorithm = TopKAlgorithm::kThresholdAlgorithm;
  TopKOptions options;
  FaginStats stats;
  std::vector<ScoredEntry> entries;  // lane output, pre-axis-id mapping
  std::vector<uint8_t> allowed_scratch;
  const uint8_t* allowed = nullptr;
};

// Request-shape checks, the same for both algorithms: k, then the lists.
Status ValidateLane(const std::vector<const InvertedIndex*>& lists,
                    const TopKOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (lists.empty()) {
    return Status::InvalidArgument("top-k needs at least one inverted list");
  }
  for (const InvertedIndex* list : lists) {
    if (list == nullptr) {
      return Status::InvalidArgument("null inverted list");
    }
  }
  return Status::OK();
}

// --- Scan lanes ----------------------------------------------------------
// One shared, unfiltered accumulation pass over every list entry answers
// all scan lanes of the group. An entry at position p only ever contributes
// to sums[p], and lists are visited in order, so each position's sum
// accumulates in list order whatever else shares the pass — lane filters
// only decide which positions are *emitted*, never what their sums are.
// Cost O(total entries + lanes × universe).
void RunScanLanes(const std::vector<const InvertedIndex*>& lists,
                  size_t universe, const std::vector<Lane*>& lanes) {
  const size_t num_lists = lists.size();
  std::vector<double> sums(universe, 0.0);
  std::vector<uint32_t> counts(universe, 0);
  size_t longest = 0;
  size_t total_entries = 0;
  for (const InvertedIndex* list : lists) {
    longest = std::max(longest, list->size());
    total_entries += list->size();
    for (size_t i = 0; i < list->size(); ++i) {
      const ScoredEntry& e = list->entry(i);
      sums[static_cast<size_t>(e.pos)] += e.value;
      ++counts[static_cast<size_t>(e.pos)];
    }
  }

  // Present positions as a word bitmap: each lane's emit sweep intersects
  // it with the lane filter, skipping empty words, and the
  // simd::IntersectPopcount kernel (integer-only, so bitwise-safe) sizes
  // the output vector exactly up front.
  const size_t words = (universe + 63) / 64;
  std::vector<uint64_t> present(words, 0);
  for (size_t pos = 0; pos < universe; ++pos) {
    if (counts[pos] != 0) present[pos >> 6] |= uint64_t{1} << (pos & 63);
  }

  std::vector<uint64_t> lane_words;
  for (Lane* lane : lanes) {
    FaginStats* stats = &lane->stats;
    stats->rounds = std::max(stats->rounds, longest);
    stats->sorted_accesses += total_entries;

    const uint64_t* filter = present.data();
    if (lane->allowed != nullptr) {
      lane_words.assign(words, 0);
      for (size_t pos = 0; pos < universe; ++pos) {
        if (lane->allowed[pos] != 0) {
          lane_words[pos >> 6] |= uint64_t{1} << (pos & 63);
        }
      }
      filter = lane_words.data();
    }
    const size_t emitted =
        simd::IntersectPopcount(filter, present.data(), words);
    std::vector<ScoredEntry>& out = lane->entries;
    out.reserve(emitted);
    const double full_denom = static_cast<double>(num_lists);
    const bool skip_policy =
        lane->options.missing == MissingCellPolicy::kSkip;
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = filter[w] & present[w];
      while (bits != 0) {
        const size_t pos =
            (w << 6) + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const double denom =
            skip_policy ? static_cast<double>(counts[pos]) : full_denom;
        out.push_back(
            ScoredEntry{static_cast<int32_t>(pos), sums[pos] / denom});
      }
    }
    // Counted as if each emitted candidate were scored by random access:
    // one access per list, one ids_scored each.
    stats->random_accesses += emitted * num_lists;
    stats->ids_scored += emitted;
    // Only the first k of the total order are returned: select and order
    // just those (the same entries in the same order as a full sort).
    const size_t k = lane->options.k;
    if (out.size() > k) {
      std::partial_sort(out.begin(), out.begin() + static_cast<long>(k),
                        out.end(), RankOrder(lane->options.direction));
      out.resize(k);
    } else {
      SortResults(&out, lane->options.direction);
    }
  }
}

// --- TA lanes ------------------------------------------------------------
// TA's cursors advance identically every round regardless of k / allowed /
// missing — only the direction changes the access pattern. So all TA lanes
// of one direction share the round-robin sorted access: each list entry is
// read once per round and delivered to every active lane in list order.
// Threshold bounds are pure in (cursors, missing, direction) and cursors
// are shared, so they are memoized per missing policy within a round, and
// candidate scores come from the group ScoreMemo.
void RunTaLanes(const std::vector<const InvertedIndex*>& lists,
                size_t universe, RankDirection direction,
                const std::vector<Lane*>& lanes, ScoreMemo* memo) {
  struct TaState {
    Lane* lane;
    std::vector<uint8_t> seen;
    std::vector<ScoredEntry> kept;
    bool active = true;
  };
  const bool most = direction == RankDirection::kMostUnfair;
  auto worse_on_top = [direction](const ScoredEntry& a, const ScoredEntry& b) {
    return Better(a.value, b.value, direction);
  };

  std::vector<TaState> states;
  states.reserve(lanes.size());
  for (Lane* lane : lanes) {
    states.push_back(TaState{lane, std::vector<uint8_t>(universe, 0), {}, true});
  }

  std::vector<size_t> cursors(lists.size(), 0);
  size_t active = states.size();
  while (active > 0) {
    bool any_read = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i]->size()) continue;
      const size_t at = most ? cursors[i] : lists[i]->size() - 1 - cursors[i];
      const ScoredEntry& e = lists[i]->entry(at);
      ++cursors[i];
      any_read = true;
      for (TaState& s : states) {
        if (!s.active) continue;
        FaginStats* stats = &s.lane->stats;
        ++stats->sorted_accesses;
        if (!IsAllowed(s.lane->allowed, e.pos) ||
            s.seen[static_cast<size_t>(e.pos)] != 0) {
          continue;
        }
        s.seen[static_cast<size_t>(e.pos)] = 1;
        std::optional<double> agg =
            memo->Aggregate(e.pos, s.lane->options.missing, stats);
        if (!agg.has_value()) continue;  // unreachable: e.pos is in list i
        ++stats->ids_scored;
        ScoredEntry scored{e.pos, *agg};
        if (s.kept.size() < s.lane->options.k) {
          s.kept.push_back(scored);
          std::push_heap(s.kept.begin(), s.kept.end(), worse_on_top);
        } else if (Better(scored.value, s.kept.front().value, direction)) {
          std::pop_heap(s.kept.begin(), s.kept.end(), worse_on_top);
          s.kept.back() = scored;
          std::push_heap(s.kept.begin(), s.kept.end(), worse_on_top);
        }
      }
    }
    if (!any_read) break;  // every list exhausted, for every lane at once
    bool tau_valid[2] = {false, false};
    double tau_memo[2] = {0.0, 0.0};
    for (TaState& s : states) {
      if (!s.active) continue;
      FaginStats* stats = &s.lane->stats;
      ++stats->rounds;
      if (s.kept.size() < s.lane->options.k) continue;
      ++stats->threshold_checks;
      const size_t mi =
          s.lane->options.missing == MissingCellPolicy::kSkip ? 0 : 1;
      if (!tau_valid[mi]) {
        tau_memo[mi] = ThresholdBound(lists, cursors, s.lane->options);
        tau_valid[mi] = true;
      }
      const double tau = tau_memo[mi];
      const double kth = s.kept.front().value;
      const bool done = most ? (kth >= tau) : (kth <= tau);
      if (done) {
        s.active = false;
        --active;
      }
    }
  }
  for (TaState& s : states) {
    SortResults(&s.kept, direction);
    s.lane->entries = std::move(s.kept);
  }
}

// Runs every lane over one group's lists: the scan pass, then one TA pass
// per direction. Each lane publishes fagin.<algorithm>.* with the wall time
// of the pass it ran in (for a single lane, its own latency).
void RunLanes(const std::vector<const InvertedIndex*>& lists,
              size_t universe, std::vector<Lane>* lanes,
              BatchExecStats* exec_stats) {
  enum Pass { kScan, kTaMost, kTaLeast, kPasses };
  static const char* const kSpanNames[kPasses] = {"ScanLanes", "TaLanes",
                                                  "TaLanes"};
  std::vector<Lane*> passes[kPasses];
  for (Lane& lane : *lanes) {
    lane.allowed = BuildAllowedBitmap(lane.options.allowed, universe,
                                      &lane.allowed_scratch);
    const bool most = lane.options.direction == RankDirection::kMostUnfair;
    Pass pass = kScan;
    if (lane.algorithm == TopKAlgorithm::kThresholdAlgorithm) {
      pass = most ? kTaMost : kTaLeast;
    }
    passes[pass].push_back(&lane);
  }
  exec_stats->scan_lanes += passes[kScan].size();
  exec_stats->ta_lanes += passes[kTaMost].size() + passes[kTaLeast].size();
  if (!passes[kScan].empty()) ++exec_stats->shared_scan_passes;

  // Scan lanes never random-access; a scan-only group builds no memo, and
  // a lone TA lane gets a pass-through one.
  const size_t ta_lanes = lanes->size() - passes[kScan].size();
  std::optional<ScoreMemo> memo;
  if (ta_lanes > 0) memo.emplace(lists, universe, ta_lanes > 1);
  const bool timed = MetricsRegistry::Global().enabled();
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::vector<Lane*>& members = passes[pass];
    if (members.empty()) continue;
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    {
      TraceSpan span(kSpanNames[pass], "fagin");
      if (pass == kScan) {
        RunScanLanes(lists, universe, members);
      } else {
        RunTaLanes(lists, universe, members.front()->options.direction,
                   members, &*memo);
      }
    }
    if (!timed) continue;
    const double elapsed_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    for (const Lane* lane : members) {
      RecordFaginMetrics(MetricLabel(lane->algorithm), lane->stats,
                         elapsed_us);
    }
  }
}

}  // namespace

void RecordFaginMetrics(const char* algorithm, const FaginStats& stats,
                        double elapsed_us) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  if (!metrics.enabled()) return;
  std::string prefix = std::string("fagin.") + algorithm;
  metrics.counter(prefix + ".runs")->Add(1);
  metrics.counter(prefix + ".sorted_accesses")->Add(stats.sorted_accesses);
  metrics.counter(prefix + ".random_accesses")->Add(stats.random_accesses);
  metrics.counter(prefix + ".ids_scored")->Add(stats.ids_scored);
  metrics.counter(prefix + ".rounds")->Add(stats.rounds);
  metrics.counter(prefix + ".threshold_checks")->Add(stats.threshold_checks);
  metrics.histogram(prefix + ".latency_us")->Record(elapsed_us);
}

const char* TopKAlgorithmName(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kThresholdAlgorithm:
      return "TA";
    case TopKAlgorithm::kScan:
      return "scan";
  }
  return "?";
}

Result<std::vector<ScoredEntry>> RunTopK(
    TopKAlgorithm algorithm, const std::vector<const InvertedIndex*>& lists,
    const TopKOptions& options, FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateLane(lists, options));
  std::vector<Lane> lanes(1);
  lanes[0].algorithm = algorithm;
  lanes[0].options = options;
  // Lanes add to their stats, so a caller's counts accumulate across runs.
  if (stats != nullptr) lanes[0].stats = *stats;
  BatchExecStats exec_stats;
  RunLanes(lists, UniverseOf(lists, options.universe_hint), &lanes,
           &exec_stats);
  if (stats != nullptr) *stats = lanes[0].stats;
  return std::move(lanes[0].entries);
}

std::vector<Result<QuantificationResult>> SolveQuantificationBatch(
    const UnfairnessCube& cube, const IndexSet& indices,
    const std::vector<QuantificationRequest>& requests,
    BatchExecStats* exec_stats) {
  TraceSpan span("SolveQuantificationBatch", "quantification");
  BatchExecStats local_stats;
  if (exec_stats == nullptr) exec_stats = &local_stats;
  *exec_stats = BatchExecStats{};

  // errors[i] OK means values[i] holds the computed result.
  std::vector<Status> errors(requests.size());
  std::vector<QuantificationResult> values(requests.size());

  // Group valid requests by exact selector sequence (see header). A lone
  // request is its own group; only real batches pay for the bucket map.
  struct Group {
    std::vector<size_t> members;  // request indices, in arrival order
  };
  std::vector<Group> groups;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < requests.size(); ++i) {
    Status valid = ValidateQuantificationRequest(cube, requests[i]);
    if (!valid.ok()) {
      errors[i] = std::move(valid);
      ++exec_stats->invalid;
      continue;
    }
    size_t group_index = groups.size();
    std::vector<size_t>* bucket = nullptr;
    if (requests.size() > 1) {
      bucket = &buckets[SelectorHash(requests[i])];
      for (size_t g : *bucket) {
        if (SameSelectorGroup(requests[groups[g].members.front()],
                              requests[i])) {
          group_index = g;
          break;
        }
      }
    }
    if (group_index == groups.size()) {
      groups.push_back(Group{});
      if (bucket != nullptr) bucket->push_back(group_index);
    }
    groups[group_index].members.push_back(i);
  }

  for (const Group& group : groups) {
    const QuantificationRequest& representative =
        requests[group.members.front()];
    std::vector<const InvertedIndex*> lists = indices.ListsFor(
        representative.target, representative.agg1, representative.agg2);
    ++exec_stats->groups;
    exec_stats->lists_gathered += lists.size();
    const size_t universe =
        UniverseOf(lists, cube.axis_size(representative.target));

    // Build the group's lanes; requests the lanes cannot run error out here
    // (they still count as demand: answering them alone would have
    // gathered the lists too).
    std::vector<Lane> lanes;
    lanes.reserve(group.members.size());
    for (size_t i : group.members) {
      const QuantificationRequest& request = requests[i];
      exec_stats->lists_demanded += lists.size();
      Lane lane;
      lane.request_index = i;
      lane.algorithm = request.algorithm;
      lane.options.k = request.k;
      lane.options.direction = request.direction;
      lane.options.missing = request.missing;
      lane.options.allowed = request.allowed_targets.empty()
                                 ? nullptr
                                 : &request.allowed_targets;
      lane.options.universe_hint = cube.axis_size(request.target);
      Status valid = ValidateLane(lists, lane.options);
      if (!valid.ok()) {
        errors[i] = std::move(valid);
        ++exec_stats->invalid;
        continue;
      }
      lanes.push_back(std::move(lane));
    }
    RunLanes(lists, universe, &lanes, exec_stats);

    for (Lane& lane : lanes) {
      const QuantificationRequest& request = requests[lane.request_index];
      QuantificationResult result;
      result.stats = lane.stats;
      result.answers.reserve(lane.entries.size());
      for (const ScoredEntry& e : lane.entries) {
        result.answers.push_back(QuantificationAnswer{
            cube.axis_id(request.target, static_cast<size_t>(e.pos)),
            e.value});
      }
      values[lane.request_index] = std::move(result);
      ++exec_stats->requests;
    }
  }

  std::vector<Result<QuantificationResult>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (errors[i].ok()) {
      results.push_back(std::move(values[i]));
    } else {
      results.push_back(std::move(errors[i]));
    }
  }
  return results;
}

}  // namespace fairjob
