#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double failure_fraction(std::uint64_t failed, std::uint64_t attempted) {
  return (static_cast<double>(failed) + 0.5) /
         (static_cast<double>(attempted) + 1.0);
}

namespace {

std::string first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "unreadable";
  return line;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string load_average() {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) return "unreadable";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", load[0], load[1], load[2]);
  return buf;
}

namespace {

/// 240 pivots over a 512 x 512 tableau (2 MB): every other row minus a
/// multiple of the pivot row.
double tableau_ms() {
  constexpr int kN = 512;
  std::vector<double> m(static_cast<std::size_t>(kN) * kN);
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = 1.0 + static_cast<double>(i % 97) * 1e-3;
  const double t0 = cpu_seconds();
  for (int it = 0; it < 240; ++it) {
    const int p = (it * 37) % kN;
    const double* pivot = &m[static_cast<std::size_t>(p) * kN];
    for (int r = 0; r < kN; ++r) {
      if (r == p) continue;
      double* row = &m[static_cast<std::size_t>(r) * kN];
      const double f = row[(it * 11) % kN] * 1e-6;
      for (int c = 0; c < kN; ++c) row[c] -= f * pivot[c];
    }
  }
  const double ms = (cpu_seconds() - t0) * 1e3;
  volatile double sink = m[7];
  (void)sink;
  return ms;
}

/// Two rounds of 40k inserts into and 40k lookups in a fresh ordered map of
/// small vectors, keyed by an xorshift stream.
double map_ms() {
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t found = 0;
  const auto next_key = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % 1000003;
  };
  const double t0 = cpu_seconds();
  for (int round = 0; round < 2; ++round) {
    std::map<std::uint64_t, std::vector<int>> map;
    for (int i = 0; i < 40000; ++i) map[next_key()].push_back(i);
    for (int i = 0; i < 40000; ++i) {
      const auto it = map.find(next_key());
      if (it != map.end()) found += it->second.size();
    }
  }
  const double ms = (cpu_seconds() - t0) * 1e3;
  volatile std::uint64_t sink = found;
  (void)sink;
  return ms;
}

}  // namespace

double probe_ms() { return std::sqrt(tableau_ms() * map_ms()); }

std::string host_record_json(const std::string& load_start,
                             const std::string& load_end,
                             double probe_start_ms, double probe_end_ms) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"compiler\":" << json_string(compiler)
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"cpu_governor\":"
     << json_string(first_line(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
     << ",\"load_start\":" << json_string(load_start)
     << ",\"load_end\":" << json_string(load_end)
     << ",\"probe_ms_start\":" << probe_start_ms
     << ",\"probe_ms_end\":" << probe_end_ms << "}";
  return os.str();
}

SpanTable totals_by_name(const std::vector<SpanRecord>& spans) {
  SpanTable out;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = out[s.name];
    ++t.count;
    t.seconds += s.seconds();
    t.ms.push_back(s.seconds() * 1e3);
  }
  return out;
}

const SpanTotals& totals_of(const SpanTable& table, const std::string& name) {
  static const SpanTotals kNone;
  const auto it = table.find(name);
  return it == table.end() ? kNone : it->second;
}

std::uint64_t counter(const nexit::obs::Snapshot& snap,
                      const std::string& name) {
  for (const nexit::obs::CounterSnapshot& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

double phase_seconds(const std::vector<nexit::obs::PhaseSnapshot>& phases,
                     nexit::obs::Phase p, std::uint64_t* calls) {
  const nexit::obs::PhaseSnapshot& snap =
      phases.at(static_cast<std::size_t>(p));
  if (calls != nullptr) *calls = snap.calls;
  return static_cast<double>(snap.ns) * 1e-9;
}

void finish_trace(const Options& opt, const std::vector<SpanRecord>& spans,
                  std::int64_t begin_ns, std::int64_t end_ns, Result& result) {
  const double wall = static_cast<double>(end_ns - begin_ns) * 1e-9;
  const double covered = covered_seconds(spans, begin_ns, end_ns);
  result.values["trace.coverage"] = wall > 0.0 ? covered / wall : 0.0;
  result.values["trace.unattributed_s"] = wall - covered;
  if (!opt.spans_path.empty() &&
      !write_chrome_trace(opt.spans_path, spans, begin_ns))
    std::cerr << "warning: could not write spans to " << opt.spans_path
              << "\n";
}

}  // namespace perfbench
