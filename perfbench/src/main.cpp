// nexit_perfbench: runs one benchmark workload and prints its result as one
// JSON line. Normally started through perfbench/run.py, which builds this
// binary first:
//
//   nexit_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                   [--size=small] [--expect-digest=<hex>] [--spans=<path>]
//
// --trace=0 reports the end-to-end metrics, --trace=1 re-drives the same
// inputs through the layer functions with spans around each call and
// reports the per-layer metrics. A failed correctness gate prints
// "correct": false with no metrics and exits 1.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"items_per_s", "1/s"}, {"cpu_s", "s"},
    {"peak_rss_mb", "MB"}, {"failed_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"universe.build_s", "s"},
    {"routing.pair_routing_s", "s"},
    {"traffic.build_s", "s"},
    {"lp.solve_s", "s"},
    {"lp.solve_ms.p50", "ms"},
    {"lp.solve_ms.p99", "ms"},
    {"lp.solves", "count"},
    {"lp.failed", "count"},
    {"lp.vars.p50", "count"},
    {"lp.vars.max", "count"},
    {"oracle.full_s", "s"},
    {"oracle.full_calls", "count"},
    {"oracle.incremental_s", "s"},
    {"oracle.incremental_calls", "count"},
    {"oracle.row_fraction", "ratio"},
    {"engine.self_s", "s"},
    {"engine.rounds", "count"},
    {"engine.flows_moved", "count"},
    {"experiment.sample_ms.p50", "ms"},
    {"experiment.sample_ms.p99", "ms"},
    {"strategy.select_proposal_s", "s"},
    {"strategy.select_calls", "count"},
    {"strategy.quantization_s", "s"},
    {"wire.encode_s", "s"},
    {"wire.decode_s", "s"},
    {"wire.channel_s", "s"},
    {"wire.frames", "count"},
    {"wire.bytes", "bytes"},
    {"runtime.pump_s", "s"},
    {"runtime.pump_other_s", "s"},
    {"runtime.parallelism", "ratio"},
    {"runtime.rounds", "count"},
    {"runtime.steps", "count"},
    {"runtime.session_ms.p50", "ms"},
    {"runtime.session_ms.p99", "ms"},
    {"runtime.retries", "count"},
    {"runtime.timeouts", "count"},
    {"journal.checkpoints", "count"},
    {"journal.wal_events", "count"},
    {"journal.bytes", "bytes"},
    {"journal.kills_landed", "count"},
    {"journal.restores", "count"},
    {"journal.fallbacks", "count"},
    {"journal.resume_ms.p50", "ms"},
    {"journal.resume_ms.p99", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why
            << "\nusage: nexit_perfbench --workload=<fig7_failures|"
               "runtime_sessions|runtime_crash_resume> --seed=<n> "
               "--seconds=<s> --trace=<0|1> [--size=small] "
               "[--expect-digest=<hex>] [--spans=<path>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
        if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--size") {
        if (value != "small") usage("--size takes only 'small'");
        opt.small = true;
      } else if (arg == "--expect-digest") {
        opt.expect_digest = value;
      } else if (arg == "--spans") {
        opt.spans_path = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

void emit_metric(std::ostringstream& os, bool& first, const MetricDef& def,
                 double value) {
  char num[64];
  std::snprintf(num, sizeof num, "%.17g", std::isfinite(value) ? value : 0.0);
  os << (first ? "" : ",") << "\"" << def.name << "\":{\"value\":" << num
     << ",\"unit\":\"" << def.unit << "\"}";
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
#ifndef NDEBUG
  std::cerr << "error: refusing to report numbers from a build with "
               "assertions enabled (build type "
            << PERFBENCH_BUILD_TYPE << ")\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "error: refusing to report numbers from a "
              << PERFBENCH_BUILD_TYPE << " build; configure with Release\n";
    return 2;
  }

  const std::string load_start = perfbench::load_average();
  const double probe_start = perfbench::probe_ms();
  Result result;
  try {
    if (opt.workload == "fig7_failures") {
      result = perfbench::run_fig7_failures(opt);
    } else if (opt.workload == "runtime_sessions") {
      result = perfbench::run_runtime_sessions(opt);
    } else if (opt.workload == "runtime_crash_resume") {
      result = perfbench::run_runtime_crash_resume(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    result.fail(std::string("workload threw: ") + e.what());
  }
  if (!opt.expect_digest.empty() && result.digest != opt.expect_digest)
    result.fail("digest " + result.digest + " != pinned " + opt.expect_digest);
  if (result.attempted == 0) result.fail("no operation was attempted");

  result.values["peak_rss_mb"] = perfbench::peak_rss_mb();
  result.values["failed_frac"] =
      perfbench::failure_fraction(result.failed, result.attempted);

  std::ostringstream os;
  os << "{\"correct\":" << (result.correct ? "true" : "false")
     << ",\"attempted\":" << result.attempted
     << ",\"failed\":" << result.failed << ",\"metrics\":{";
  if (result.correct) {
    bool first = true;
    if (opt.trace) {
      for (const MetricDef& def : kPerLayer)
        emit_metric(os, first, def, result.values[def.name]);
    } else {
      for (const MetricDef& def : kEndToEnd)
        emit_metric(os, first, def, result.values[def.name]);
    }
  }
  os << "},\"digest\":\"" << result.digest << "\",\"error\":\"";
  for (const char c : result.error) os << (c == '"' || c == '\\' ? '\'' : c);
  os << "\",\"host\":"
     << perfbench::host_record_json(load_start, perfbench::load_average(),
                                    probe_start, perfbench::probe_ms())
     << "}";
  std::cout << os.str() << std::endl;
  return result.correct ? 0 : 1;
}
