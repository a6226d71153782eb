#ifndef FAIRJOB_BENCH_WORKLOADS_H_
#define FAIRJOB_BENCH_WORKLOADS_H_

// The two workloads of the benchmark. Each makes its inputs from the
// seed, measures for about `seconds` of wall time (set-up excluded), checks
// the program's outputs, and returns raw samples; the driver in main.cc
// turns them into metrics.

#include <cstdint>
#include <string>

#include "harness.h"
#include "spans.h"

namespace fjbench {

struct RunContext {
  uint64_t seed = 0;
  double seconds = 10.0;
  size_t cpus = 1;         // threads the workload may keep busy
  std::string work_dir;    // scratch files (cube files) go here
  // Traced runs only (null otherwise): the recorder, and the buffer of the
  // calling thread, inside the run's root span.
  SpanRecorder* recorder = nullptr;
  SpanBuffer* spans = nullptr;
};

// Repeated paper-scale audits (Figures 6 and 9): crawl, label, assemble,
// build, persist, index and answer Problems 1 and 2, then the Google study.
WorkloadResult RunPaperAudit(const RunContext& ctx);

// Cold rebuilds of a large marketplace cube (sharded build streamed to a
// binary file, verified open, load, index) and a large search cube, then
// distinct cold answers through a cache-less service.
WorkloadResult RunScaleRebuild(const RunContext& ctx);

}  // namespace fjbench

#endif  // FAIRJOB_BENCH_WORKLOADS_H_
