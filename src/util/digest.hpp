#pragma once

// FNV-1a scaffolding for the determinism digests printed across the repo
// (the scenario driver, the benches, and the test suites): one place for
// the constants so the digest scheme cannot drift between binaries. A
// digest equal across --threads values (or across --incremental on/off)
// demonstrates two runs are bit-identical from the shell; the golden table
// (tests/golden/scenarios.tsv) pins each preset's digest to a value.

#include <cstdint>
#include <cstring>
#include <string>

namespace nexit::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

/// Bit pattern of a double, for hashing exact values (not rounded text).
inline std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Fixed-width lowercase hex spelling, the format every digest print uses.
inline std::string digest_hex(std::uint64_t h) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace nexit::util
