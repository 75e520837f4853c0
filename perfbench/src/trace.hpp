#pragma once

// Span recorder for the benchmark's traced runs. Spans are opened around
// calls into the library's public functions from the benchmark's own code —
// nothing under src/ is instrumented by this file — kept in per-thread
// buffers while the run executes, and written out once it has ended.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A layer span is a call into one of the library's layers and counts toward
/// trace coverage; a group span (a whole run, a pair, a failure sample)
/// only organises the tree.
enum class SpanKind : std::uint8_t { kLayer, kGroup };

struct SpanRecord {
  const char* name = "";  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t item = -1;    // failure sample or session id; -1 = none
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kLayer;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Parent for spans opened on a thread with no open span (pool workers):
  /// the span that dispatched the parallel work.
  void adopt(std::uint64_t parent) {
    adopted_.store(parent, std::memory_order_relaxed);
  }

  /// Every recorded span, sorted by start time. Call only after all threads
  /// that recorded spans have been joined (or passed a pool barrier).
  [[nodiscard]] std::vector<SpanRecord> collect() const;

 private:
  friend class Span;
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::uint64_t> open;  // ids of this thread's open spans
  };
  Buffer& local();

  const std::uint64_t generation_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> adopted_{0};
  mutable std::mutex mutex_;  // guards buffers_ growth
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records [construction, destruction) on the calling thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t item = -1,
       SpanKind kind = SpanKind::kLayer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  Tracer::Buffer& buffer_;
  SpanRecord record_;
};

/// Measure of the union of the layer spans' intervals inside [begin, end],
/// in seconds: the wall time during which some thread was inside a layer.
[[nodiscard]] double covered_seconds(const std::vector<SpanRecord>& spans,
                                     std::int64_t begin, std::int64_t end);

/// Writes the spans as a Chrome trace_event JSON file (loadable in Perfetto
/// or chrome://tracing): one complete ("X") event per span, microsecond
/// timestamps relative to `origin`, with the span id, parent id and item id
/// in its args. Returns false if the file could not be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        std::int64_t origin);

}  // namespace perfbench
