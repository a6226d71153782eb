#ifndef FAIRJOB_CORE_FAGIN_H_
#define FAIRJOB_CORE_FAGIN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/indices.h"

namespace fairjob {

// Direction of Problem 1: most-unfair returns the largest aggregates,
// least-unfair the smallest.
enum class RankDirection { kMostUnfair, kLeastUnfair };

// What a missing cube cell means when aggregating a target id across lists:
//  * kSkip: average over the lists where the id is present (the framework's
//    semantics: unobserved (q,l) pairs do not dilute a group's unfairness);
//  * kZero: treat missing as 0 (a full |Q|·|L| denominator, Algorithm 1's
//    literal behaviour on a complete cube).
// Both agree on complete cubes.
enum class MissingCellPolicy { kSkip, kZero };

// Instrumentation for the sorted/random access counts the Fagin family is
// judged by (the paper's Figure-9-style efficiency metrics).
struct FaginStats {
  size_t sorted_accesses = 0;
  size_t random_accesses = 0;
  size_t ids_scored = 0;
  // Round-robin passes over the lists before termination — the early-stop
  // depth (a full scan of lists of length n reports n rounds).
  size_t rounds = 0;
  // Times the termination bound was evaluated against the k-th best value.
  size_t threshold_checks = 0;
};

// Publishes one run's stats to the global MetricsRegistry under
// "fagin.<algorithm>.*" (runs, access counts, rounds, threshold checks and a
// latency histogram); no-op while metrics are disabled. Every Top-K lane
// publishes through it, with `elapsed_us` the wall time of the lane pass it
// ran in.
void RecordFaginMetrics(const char* algorithm, const FaginStats& stats,
                        double elapsed_us);

// Options for a top-k run.
struct TopKOptions {
  size_t k = 5;
  RankDirection direction = RankDirection::kMostUnfair;
  MissingCellPolicy missing = MissingCellPolicy::kSkip;
  // When non-null, only these target positions are eligible (e.g. "out of
  // Black Males, Asian Males and White Females, ..."); others are skipped.
  // Materialized once per run into a position-indexed bitmap.
  const std::vector<int32_t>* allowed = nullptr;
  // Size of the target axis when known (SolveQuantification passes the cube
  // axis size). 0 = derive from the lists' dense columns. The engine sizes
  // its flat accumulator arrays and bitmaps to
  // max(universe_hint, max list dense_size), so an understated hint is
  // harmless.
  size_t universe_hint = 0;
};

// The two Top-K algorithms over the unfairness cube's inverted lists:
//
//  * kThresholdAlgorithm — the paper's Algorithm 1, Fagin's Threshold
//    Algorithm (Fagin, Lotem & Naor, "Optimal aggregation algorithms for
//    middleware", JCSS 2003): round-robin sorted access, random access to
//    complete each newly seen id's aggregate, and a per-policy threshold
//    bound on unseen ids for early termination (the max/min frontier under
//    kSkip, the mean of clamped frontiers under kZero; with kZero +
//    kLeastUnfair no useful bound exists and the run degenerates to a
//    scan, still correct).
//  * kScan — scores every id in one pass over all list entries.
//
// Both return the same top-k up to ties at the k-th value, with bitwise
// equal values; they differ in their FaginStats. FA and NRA, the family
// members built for middleware where random access is costly or
// impossible, are not offered: here a random access is an array load, and
// neither beat both TA and the scan on any measured slice
// (docs/performance.md, "One Top-K engine").
enum class TopKAlgorithm {
  kThresholdAlgorithm,  // Algorithm 1 (default)
  kScan,
};

const char* TopKAlgorithmName(TopKAlgorithm algorithm);

// Runs one algorithm over `lists` as a single lane of the batched engine
// (core/quantification_batch.cc), the one Top-K implementation behind
// SolveQuantification and SolveQuantificationBatch.
//
// Returns up to k entries sorted by value (descending for most-unfair,
// ascending for least-unfair), ties by ascending position. Which of several
// ids tied at the k-th value makes the cut depends on the algorithm. Ids
// absent from every list are never returned.
//
// Errors: InvalidArgument when k == 0, `lists` is empty or holds a null
// list.
Result<std::vector<ScoredEntry>> RunTopK(
    TopKAlgorithm algorithm, const std::vector<const InvertedIndex*>& lists,
    const TopKOptions& options, FaginStats* stats = nullptr);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_FAGIN_H_
