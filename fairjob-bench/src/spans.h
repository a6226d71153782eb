#ifndef FAIRJOB_BENCH_SPANS_H_
#define FAIRJOB_BENCH_SPANS_H_

// In-memory span recorder for traced benchmark runs. The benchmark wraps
// each call it makes into a layer of the library in a span named after the
// layer ("crawl", "core.build", "serve.service", ...); the spans stay in
// memory until the run ends, then they are written out as a Chrome
// trace-event file and folded into per-layer self time.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace fjbench {

struct SpanRecord {
  const char* name;    // layer name; static storage
  double start_us;     // since the recorder was made
  double end_us;
  int32_t parent;      // index in the same buffer, -1 for a root
  uint64_t request_id; // operation the span belongs to (0 = none)
};

class SpanRecorder;

// The spans of one thread. Not thread-safe: each thread that records gets
// its own buffer from SpanRecorder::NewBuffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(const SpanRecorder* recorder) : recorder_(recorder) {}
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  // Opens a span nested in the innermost open one; returns its index.
  int32_t Open(const char* name, uint64_t request_id);
  void Close(int32_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  const SpanRecorder* recorder_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

// Self time of one layer: the time its spans were open minus the part of
// that time covered by their child spans, summed over every span of the
// layer on every thread.
struct LayerTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
  size_t spans = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double NowUs() const;

  // A buffer for one thread; stays valid for the recorder's lifetime.
  SpanBuffer* NewBuffer();

  // Both read every buffer: call only after the recording threads joined.
  std::map<std::string, LayerTime> SelfTimes() const;
  size_t num_spans() const;
  fairjob::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t epoch_ns_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// Opens a span for its lifetime; a no-op when `buffer` is null (untraced
// runs pass null everywhere).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t request_id = 0)
      : buffer_(buffer),
        index_(buffer ? buffer->Open(name, request_id) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

}  // namespace fjbench

#endif  // FAIRJOB_BENCH_SPANS_H_
