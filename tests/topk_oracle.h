#ifndef FAIRJOB_TESTS_TOPK_ORACLE_H_
#define FAIRJOB_TESTS_TOPK_ORACLE_H_

// Brute-force answer reference for the Top-K engine (RunTopK and the lanes
// behind SolveQuantification): aggregate every position over every list,
// sort, cut at k. No early termination, access counting or validation. Used
// by the differential tests and bench_fagin_perf --oracle_compare.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/fagin.h"
#include "core/indices.h"

namespace fairjob {
namespace topk_oracle {

// Top-k under `options`: each position's sum accumulates over the lists in
// list order (the FP order the engine promises), divided by the present
// count (kSkip) or the list count (kZero); positions absent from every list
// or outside `options.allowed` are never returned. Sorted best-first, ties by
// ascending position.
inline std::vector<ScoredEntry> TopK(
    const std::vector<const InvertedIndex*>& lists,
    const TopKOptions& options) {
  size_t universe = 0;
  for (const InvertedIndex* list : lists) {
    for (size_t i = 0; i < list->size(); ++i) {
      universe = std::max<size_t>(universe, list->entry(i).pos + 1);
    }
  }
  std::vector<double> sums(universe, 0.0);
  std::vector<size_t> present(universe, 0);
  for (const InvertedIndex* list : lists) {
    for (size_t i = 0; i < list->size(); ++i) {
      sums[static_cast<size_t>(list->entry(i).pos)] += list->entry(i).value;
      ++present[static_cast<size_t>(list->entry(i).pos)];
    }
  }
  std::vector<uint8_t> allowed(universe, options.allowed == nullptr ? 1 : 0);
  if (options.allowed != nullptr) {
    for (int32_t pos : *options.allowed) {
      if (pos >= 0 && static_cast<size_t>(pos) < universe) allowed[pos] = 1;
    }
  }
  std::vector<ScoredEntry> out;
  for (size_t pos = 0; pos < universe; ++pos) {
    if (allowed[pos] == 0 || present[pos] == 0) continue;
    const size_t denom = options.missing == MissingCellPolicy::kSkip
                             ? present[pos]
                             : lists.size();
    out.push_back(
        {static_cast<int32_t>(pos), sums[pos] / static_cast<double>(denom)});
  }
  const bool most = options.direction == RankDirection::kMostUnfair;
  std::sort(out.begin(), out.end(),
            [most](const ScoredEntry& a, const ScoredEntry& b) {
              if (a.value != b.value) return most ? a.value > b.value
                                                  : a.value < b.value;
              return a.pos < b.pos;
            });
  if (out.size() > options.k) out.resize(options.k);
  return out;
}

inline uint64_t BitsOf(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// True when `got` is a valid answer given the oracle's `want`: the same
// length and bit-equal values rank by rank, and the same positions except
// where the value equals the k-th value (a tie at the cut may let the engine
// keep a different, equally good position).
inline bool Agrees(const std::vector<ScoredEntry>& got,
                   const std::vector<ScoredEntry>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const bool tied_at_cut = want[i].value == want.back().value;
    if (BitsOf(got[i].value) != BitsOf(want[i].value) ||
        (!tied_at_cut && got[i].pos != want[i].pos)) {
      return false;
    }
  }
  return true;
}

}  // namespace topk_oracle
}  // namespace fairjob

#endif  // FAIRJOB_TESTS_TOPK_ORACLE_H_
