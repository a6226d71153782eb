// fairjob-bench driver:
//
//   fairjob_bench --workload <paper-audit|scale-rebuild>
//                 --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   fairjob_bench --list-metrics
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced run
// (--trace 1) runs the workload untraced for half the time and traced for
// the other half, and prints the per-layer metrics from the traced half,
// including per-layer self time and the tracing overhead. The last stdout
// line is the JSON result; the exit code is 1 if an output check failed.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.h"
#include "ranking/simd.h"
#include "spans.h"
#include "workloads.h"

namespace fjbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir = ".bench_build/work";
  bool list_metrics = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: fairjob_bench --workload "
               "<paper-audit|scale-rebuild> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       fairjob_bench --list-metrics\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || errno != 0 || value.empty())) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.list_metrics) return args;
  if (args.workload.empty()) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

// How the issue-level names of a workload map onto the shared metrics:
// the "refresh" of a workload is the time from new raw data to answers
// being servable, its "answer" the latency of one Problem 1/2 answer.
struct WorkloadSpec {
  const char* name;
  WorkloadResult (*run)(const RunContext&);
  const char* refresh_alias;
  double refresh_scale;  // from ms
  const char* refresh_unit;
  const char* answer_alias;
  double answer_scale;  // from ms
  const char* answer_unit;
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"paper-audit", RunPaperAudit, "audit_ms", 1.0, "ms", "answer_ms", 1.0,
       "ms"},
      {"scale-rebuild", RunScaleRebuild, "rebuild_s", 1e-3, "s",
       "cold_answer_ms", 1.0, "ms"},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void MakeDirs(const std::string& path) {
  for (size_t pos = path.find('/', 1);; pos = path.find('/', pos + 1)) {
    std::string prefix = path.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      Fatal("mkdir " + prefix,
            fairjob::Status::IOError(std::strerror(errno)));
    }
    if (pos == std::string::npos) break;
  }
}

void PrintHost(size_t cpus) {
  std::printf("host: nproc=%zu hardware_concurrency=%u simd=%s "
              "compiler=\"%s\" build_type=%s\n",
              cpus, std::thread::hardware_concurrency(),
              fairjob::simd::ActiveKernel(), __VERSION__,
              FAIRJOB_BENCH_BUILD_TYPE);
}

void PrintLatency(const char* metric, const char* alias, double scale,
                  const char* unit, const std::vector<double>& samples_ms) {
  TailStat tail = Tail(samples_ms);
  std::printf("%-16s p50 %.6g ms, tail p%g %.6g ms (%zu samples, %zu beyond)"
              "  [%s p50 %.6g %s, tail %.6g %s]\n",
              metric, Median(samples_ms), tail.percentile, tail.value,
              tail.count, tail.beyond, alias, Median(samples_ms) * scale,
              unit, tail.value * scale, unit);
}

// End-to-end metrics of one untraced run.
MetricSet EndToEnd(const WorkloadSpec& spec, const WorkloadResult& r) {
  MetricSet m(&EndToEndMetrics());
  double ok = r.ops.attempted() == 0
                  ? 0.0
                  : static_cast<double>(r.ops.ok) /
                        static_cast<double>(r.ops.attempted());
  MustOk(m.Set("setup_s", Median(r.setup_s)), "metric");
  MustOk(m.Set("refresh_ms_p50", Median(r.refresh_ms)), "metric");
  MustOk(m.Set("ok_share", ok), "metric");
  MustOk(m.Set("peak_rss_mb", r.peak_rss_mb), "metric");

  std::printf("\n== %s: end-to-end ==\n", spec.name);
  std::printf("setup_s          %.6g s (median of %zu set-ups)\n",
              Median(r.setup_s), r.setup_s.size());
  PrintLatency("refresh_ms", spec.refresh_alias, spec.refresh_scale,
               spec.refresh_unit, r.refresh_ms);
  PrintLatency("answer_ms", spec.answer_alias, spec.answer_scale,
               spec.answer_unit, r.answer_ms);
  std::printf("answer_ms_gmean  %.6g ms (median over %zu iterations of the "
              "geometric mean of each iteration's answers; %.6g ms over all "
              "%zu)\n",
              Median(r.answer_gmean_ms), r.answer_gmean_ms.size(),
              GeoMean(r.answer_ms), r.answer_ms.size());
  std::printf("ok_share         %.6g  [error_share %.6g: %llu ok, %llu "
              "failed of %llu attempted]\n",
              ok, 1.0 - ok, static_cast<unsigned long long>(r.ops.ok),
              static_cast<unsigned long long>(r.ops.failed),
              static_cast<unsigned long long>(r.ops.attempted()));
  std::printf("peak_rss_mb      %.6g MB (highest per-iteration peak, output "
              "checks excluded)\n",
              r.peak_rss_mb);
  return m;
}

// Per-layer metrics of a traced run; `untraced` is the same workload run
// without spans, for the tracing overhead.
MetricSet PerLayer(const WorkloadResult& traced,
                   const WorkloadResult& untraced,
                   const SpanRecorder& recorder) {
  MetricSet m(&PerLayerMetrics());
  // Answer latency comes from the untraced half: spans would add to it.
  MustOk(m.Set("answer_ms_gmean", Median(untraced.answer_gmean_ms)),
         "metric");
  for (const auto& [name, value] : traced.layer) {
    MustOk(m.Set(name, value), "per-layer metric " + name);
  }
  std::map<std::string, LayerTime> layers = recorder.SelfTimes();
  std::printf("\n== per-layer self time (traced half, %zu spans) ==\n",
              recorder.num_spans());
  std::printf("%-22s %12s %12s %8s\n", "layer", "self_ms", "total_ms",
              "spans");
  for (const auto& [name, time] : layers) {
    std::printf("%-22s %12.3f %12.3f %8zu\n", name.c_str(), time.self_ms,
                time.total_ms, time.spans);
    MustOk(m.Set(name + ".self_ms", time.self_ms), "self time of " + name);
  }
  // Each thread's root span ("bench") covers its part of the run; what no
  // layer span covers is the benchmark's own code.
  const LayerTime& root = layers["bench"];
  double uncovered =
      root.total_ms > 0.0 ? root.self_ms / root.total_ms : 0.0;
  double base = Median(untraced.refresh_ms);
  double overhead =
      base > 0.0 ? Median(traced.refresh_ms) / base - 1.0 : 0.0;
  MustOk(m.Set("trace.uncovered_share", uncovered), "metric");
  MustOk(m.Set("trace.overhead_share", overhead), "metric");
  MustOk(m.Set("trace.spans", static_cast<double>(recorder.num_spans())),
         "metric");
  std::printf("uncovered by layer spans: %.4f of %.1f ms\n", uncovered,
              root.total_ms);
  std::printf("tracing overhead on refresh_ms_p50: %+.4f (traced %.6g ms vs "
              "untraced %.6g ms)\n",
              overhead, Median(traced.refresh_ms), base);
  std::printf("\n== per-layer counters ==\n");
  for (const MetricSpec& spec : PerLayerMetrics()) {
    std::printf("%-48s %.6g %s\n", spec.name, m.Get(spec.name), spec.unit);
  }
  return m;
}

bool ReportChecks(const WorkloadResult& r, const char* phase) {
  for (const std::string& failure : r.check_failures) {
    std::printf("CHECK FAILED (%s): %s\n", phase, failure.c_str());
  }
  return r.check_failures.empty();
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.list_metrics) {
    for (const MetricSpec& s : EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", s.name, s.unit);
    }
    for (const MetricSpec& s : PerLayerMetrics()) {
      std::printf("per_layer %s %s\n", s.name, s.unit);
    }
    return 0;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage("unknown workload " + args.workload);

  RunContext ctx;
  ctx.seed = args.seed;
  ctx.cpus = UsableCpus();
  ctx.work_dir = args.work_dir;
  MakeDirs(ctx.work_dir);
  PrintHost(ctx.cpus);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::fflush(stdout);

  fairjob::Result<std::string> line = fairjob::Status::Internal("unset");
  bool correct = true;
  if (args.trace == 0) {
    ctx.seconds = args.seconds;
    WorkloadResult r = spec->run(ctx);
    correct = ReportChecks(r, "untraced");
    line = EndToEnd(*spec, r).ResultLine(correct, r.ops.attempted(),
                                         r.ops.failed,
                                         /*fill_missing=*/false);
  } else {
    ctx.seconds = args.seconds / 2.0;
    WorkloadResult untraced = spec->run(ctx);
    SpanRecorder recorder;
    WorkloadResult traced;
    {
      RunContext traced_ctx = ctx;
      traced_ctx.recorder = &recorder;
      traced_ctx.spans = recorder.NewBuffer();
      ScopedSpan root(traced_ctx.spans, "bench");
      traced = spec->run(traced_ctx);
    }
    bool untraced_ok = ReportChecks(untraced, "untraced half");
    correct = ReportChecks(traced, "traced half") && untraced_ok;
    std::string trace_path = ctx.work_dir + "/trace-" + spec->name + "-" +
                             std::to_string(args.seed) + ".json";
    MustOk(recorder.WriteChromeTrace(trace_path), "trace output");
    std::printf("spans written to %s\n", trace_path.c_str());
    OpCounts ops = untraced.ops;
    ops.Merge(traced.ops);
    // Layers a workload does not exercise read 0.
    line = PerLayer(traced, untraced, recorder)
               .ResultLine(correct, ops.attempted(), ops.failed,
                           /*fill_missing=*/true);
  }
  if (!line.ok()) Fatal("result line", line.status());
  std::printf("%s\n", line->c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fjbench

int main(int argc, char** argv) { return fjbench::Main(argc, argv); }
