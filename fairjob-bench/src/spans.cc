#include "spans.h"

#include <chrono>
#include <cstdio>

namespace fjbench {

using fairjob::Status;

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int32_t SpanBuffer::Open(const char* name, uint64_t request_id) {
  int32_t parent = open_.empty() ? -1 : open_.back();
  if (request_id == 0 && parent >= 0) {
    request_id = spans_[static_cast<size_t>(parent)].request_id;
  }
  double now = recorder_->NowUs();
  spans_.push_back(SpanRecord{name, now, now, parent, request_id});
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanBuffer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_us = recorder_->NowUs();
  // Spans close in LIFO order on one thread (they are scoped).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

SpanRecorder::SpanRecorder() : epoch_ns_(SteadyNs()) {}

double SpanRecorder::NowUs() const {
  return static_cast<double>(SteadyNs() - epoch_ns_) / 1e3;
}

SpanBuffer* SpanRecorder::NewBuffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<SpanBuffer>(this));
  return buffers_.back().get();
}

std::map<std::string, LayerTime> SpanRecorder::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, LayerTime> layers;
  for (const auto& buffer : buffers_) {
    const std::vector<SpanRecord>& spans = buffer->spans();
    // Children of one span run one after another on the same thread, so
    // the time they cover is the sum of their durations.
    std::vector<double> child_us(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      LayerTime& layer = layers[s.name];
      double total = s.end_us - s.start_us;
      layer.total_ms += total / 1e3;
      layer.self_ms += (total - child_us[i]) / 1e3;
      ++layer.spans;
    }
  }
  return layers;
}

size_t SpanRecorder::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans().size();
  return n;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (size_t tid = 0; tid < buffers_.size(); ++tid) {
    for (const SpanRecord& s : buffers_[tid]->spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"parent\": %d, \"request_id\": %llu}}",
                   first ? "" : ",\n", s.name, tid, s.start_us,
                   s.end_us - s.start_us, s.parent,
                   static_cast<unsigned long long>(s.request_id));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

}  // namespace fjbench
