#pragma once

// Shared scaffolding for the benches no scenario preset covers
// (snapshot_throughput, dist_throughput): flag parsing into
// universe/negotiation configs and the universe knobs of the JSON record.
//
// Unknown flags are a hard error: after reading all its flags, each binary
// calls util::reject_unknown(), so a misspelled flag (--seeed=7) aborts with
// a message instead of silently running the default configuration. The same
// call makes `--help` print the flags the binary reads and exit 0.

#include <string>

#include "core/engine.hpp"
#include "sim/pair_universe.hpp"
#include "sim/report.hpp"
#include "util/digest.hpp"
#include "util/flags.hpp"
#include "util/json_report.hpp"

namespace nexit::bench {

inline sim::UniverseConfig universe_from_flags(const util::Flags& flags) {
  sim::UniverseConfig u;
  u.isp_count = static_cast<std::size_t>(flags.get_int("isps", 65));
  u.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  u.max_pairs = static_cast<std::size_t>(flags.get_int("pairs", 120));
  u.generator.min_pops = static_cast<std::size_t>(flags.get_int("pop-min", 6));
  u.generator.max_pops = static_cast<std::size_t>(flags.get_int("pop-max", 20));
  return u;
}

inline core::NegotiationConfig negotiation_from_flags(const util::Flags& flags) {
  core::NegotiationConfig cfg;
  cfg.acceptance = core::AcceptancePolicy::kProtective;
  cfg.preferences.range = static_cast<int>(flags.get_int("pref-range", 10));
  return cfg;
}

/// Records the universe knobs every sweep bench shares.
inline void record_universe(util::JsonReport& json, const sim::UniverseConfig& u,
                            std::size_t threads) {
  json.config("isps", static_cast<std::int64_t>(u.isp_count));
  json.config("seed", static_cast<std::int64_t>(u.seed));
  json.config("pairs", static_cast<std::int64_t>(u.max_pairs));
  json.config("threads", static_cast<std::int64_t>(threads));
}

}  // namespace nexit::bench
