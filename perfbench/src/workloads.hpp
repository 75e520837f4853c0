#pragma once

// Shared types of the benchmark binary: the command-line options a workload
// receives, the result it hands back, and small measurement helpers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// The self-check's tiny inputs instead of the measured sizes.
  bool small = false;
  /// Hex digest the workload must reproduce ("" = not pinned).
  std::string expect_digest;
  /// Where the traced run writes its spans ("" = do not write).
  std::string spans_path;
};

struct Result {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Outcome digest of the run (hex); the pinned value for the default seed.
  std::string digest;
  /// Metric values by name; main() attaches the units and fills any metric
  /// a workload does not exercise with 0.
  std::map<std::string, double> values;

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

Result run_fig7_failures(const Options& opt);
Result run_runtime_sessions(const Options& opt);
Result run_runtime_crash_resume(const Options& opt);

// --- measurement helpers (measure.cpp) ------------------------------------

/// Process user+sys CPU seconds so far, at nanosecond resolution. The
/// end-to-end times are taken on this clock: the workloads run one thread,
/// so it reads as the wall time on a host that never takes the CPU away,
/// while a shared host's steal time, which changes from run to run, stays
/// out of it.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// The Krichevsky-Trofimov estimate (failed + 1/2) / (attempted + 1) of the
/// failure rate: failed / attempted for large counts, but never 0, so a
/// bound stated as a share of the parent's median stays defined when no
/// operation fails (one real failure triples it).
[[nodiscard]] double failure_fraction(std::uint64_t failed,
                                      std::uint64_t attempted);

/// CPU milliseconds of a fixed piece of benchmark-owned work: row updates
/// over a dense tableau (the shape of the simplex) and inserts and lookups
/// in an ordered map of small vectors (allocation and pointer chasing, the
/// shape of the session code), combined as a geometric mean. No code under
/// src/ runs in it, so only the host changes its time: a shared host's
/// per-core speed drifts by tens of percent within minutes. Recorded with
/// the host facts, never applied to a metric.
[[nodiscard]] double probe_ms();

/// Host facts recorded with every result, as a JSON object.
[[nodiscard]] std::string host_record_json(const std::string& load_start,
                                           const std::string& load_end,
                                           double probe_start_ms,
                                           double probe_end_ms);
/// The 1/5/15-minute load averages, space-separated.
[[nodiscard]] std::string load_average();

/// Per-name span totals of a traced run.
struct SpanTotals {
  std::size_t count = 0;
  double seconds = 0.0;
  std::vector<double> ms;  // per-span durations
};
using SpanTable = std::map<std::string, SpanTotals>;
[[nodiscard]] SpanTable totals_by_name(const std::vector<SpanRecord>& spans);
/// The totals of `name` (all zero when no such span was recorded).
[[nodiscard]] const SpanTotals& totals_of(const SpanTable& table,
                                          const std::string& name);

/// The value of one obs work counter (0 when it was never bumped).
[[nodiscard]] std::uint64_t counter(const nexit::obs::Snapshot& snap,
                                    const std::string& name);

/// Seconds (and, optionally, calls) one obs phase timer accumulated.
[[nodiscard]] double phase_seconds(
    const std::vector<nexit::obs::PhaseSnapshot>& phases, nexit::obs::Phase p,
    std::uint64_t* calls = nullptr);

/// Fills trace.coverage and trace.unattributed_s from the layer spans inside
/// the traced run's wall interval [begin_ns, end_ns], and writes the spans
/// to opt.spans_path when set.
void finish_trace(const Options& opt, const std::vector<SpanRecord>& spans,
                  std::int64_t begin_ns, std::int64_t end_ns, Result& result);

}  // namespace perfbench
