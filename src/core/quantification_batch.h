#ifndef FAIRJOB_CORE_QUANTIFICATION_BATCH_H_
#define FAIRJOB_CORE_QUANTIFICATION_BATCH_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/quantification.h"

namespace fairjob {

// Execution counters for one SolveQuantificationBatch call, exported by the
// serving layer as serve.batch.* (docs/observability.md). The amortization
// the batch engine buys is lists_demanded / lists_gathered: what N
// per-request executions would have materialized vs. what the grouped pass
// actually touched.
struct BatchExecStats {
  size_t requests = 0;   // lanes that reached an engine (valid requests)
  size_t invalid = 0;    // requests rejected by validation
  size_t groups = 0;     // distinct (target, agg1, agg2) selector groups
  size_t lists_gathered = 0;  // inverted lists materialized (once per group)
  size_t lists_demanded = 0;  // lists N per-request runs would have gathered
  size_t scan_lanes = 0;
  size_t ta_lanes = 0;
  size_t shared_scan_passes = 0;  // one per group with >= 1 scan lane
};

// Multi-request Fagin executor: answers a whole batch of quantification
// requests with one pass over each distinct list view.
//
// Requests are grouped by their exact (target, agg1, agg2) selector
// sequences — not the canonical multiset the cache key uses — because
// IndexSet::ListsFor resolves positions verbatim (order and duplicates
// included) and per-candidate FP summation follows list order, so only the
// literal sequence guarantees a bitwise-identical list view. Each group
// materializes its inverted lists once; every request in the group becomes
// a *lane* (its own k / direction / missing policy / allowed bitmap /
// algorithm) driven during shared passes over those lists:
//
//  * scan lanes share ONE unfiltered accumulation pass over all list
//    entries (a position's sum is independent of every other position, so
//    lane filters only select which positions are emitted);
//  * TA lanes of the same direction share the round-robin sorted access —
//    their cursors advance identically whatever the lane's k, policy or
//    filter, so each entry is read once per round and delivered to every
//    active lane — and every TA lane of the group shares one memo of
//    random-access aggregates.
//
// This is the one Top-K engine: SolveQuantification is a batch of one and
// RunTopK (core/fagin.h) a single lane over hand-built lists.
//
// Contract: results[i] is bitwise-identical to
// SolveQuantification(cube, indices, requests[i]) — same answers (bit-equal
// values, same order), same FaginStats, same error codes and messages, for
// every request independently of what else is in the batch
// (tests/batch_exec_test.cc, bench_batch_exec's identity gate). Answers are
// checked against a brute-force oracle (tests/topk_oracle.h) and FaginStats
// against pinned digests (tests/topk_oracle_test.cc).
//
// Every lane publishes fagin.<algorithm>.* metrics, with latency_us the wall
// time of the shared pass it ran in; the serving layer adds serve.batch.*
// from `stats`.
std::vector<Result<QuantificationResult>> SolveQuantificationBatch(
    const UnfairnessCube& cube, const IndexSet& indices,
    const std::vector<QuantificationRequest>& requests,
    BatchExecStats* stats = nullptr);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_QUANTIFICATION_BATCH_H_
