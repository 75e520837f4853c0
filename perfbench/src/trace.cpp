#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_generation{0};

// Per-thread cache of the calling thread's buffer in the current tracer.
// The generation tag keeps a pointer into a destroyed tracer from being
// reused by the next one.
struct LocalCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

Tracer::Tracer() : generation_(++g_generation) {}

Tracer::Buffer& Tracer::local() {
  if (t_cache.generation == generation_)
    return *static_cast<Buffer*>(t_cache.buffer);
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer& b = *buffers_.back();
  b.thread = static_cast<std::uint32_t>(buffers_.size() - 1);
  t_cache = {generation_, &b};
  return b;
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> all;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_)
      all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

Span::Span(Tracer& tracer, const char* name, std::int64_t item, SpanKind kind)
    : buffer_(tracer.local()) {
  record_.name = name;
  record_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  record_.parent = buffer_.open.empty()
                       ? tracer.adopted_.load(std::memory_order_relaxed)
                       : buffer_.open.back();
  record_.item = item;
  record_.thread = buffer_.thread;
  record_.kind = kind;
  buffer_.open.push_back(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  record_.end_ns = now_ns();
  buffer_.open.pop_back();
  buffer_.spans.push_back(record_);
}

double covered_seconds(const std::vector<SpanRecord>& spans,
                       std::int64_t begin, std::int64_t end) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const SpanRecord& s : spans) {
    if (s.kind != SpanKind::kLayer) continue;
    const std::int64_t a = std::max(s.start_ns, begin);
    const std::int64_t b = std::min(s.end_ns, end);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return static_cast<double>(covered) * 1e-9;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        std::int64_t origin) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(
        line, sizeof line,
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"item\":%lld}}%s\n",
        s.name, s.kind == SpanKind::kLayer ? "layer" : "group", s.thread,
        static_cast<double>(s.start_ns - origin) * 1e-3,
        static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<long long>(s.item), i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
