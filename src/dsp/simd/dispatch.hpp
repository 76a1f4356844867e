// Runtime tier selection for the SIMD kernel table.
//
// The tier is chosen exactly once, at first use: the `OFDM_SIMD`
// environment variable wins if set ("scalar", "avx2" or "auto"),
// otherwise the best tier the CPU supports is picked (AVX2 on x86-64
// hosts that report it, scalar everywhere else). All datapath code
// funnels through `kernels()`, so an A/B run is just
// `OFDM_SIMD=scalar ./bench_e5` against the default.
#pragma once

#include <string>

#include "dsp/simd/kernels.hpp"

namespace ofdm::simd {

enum class Tier {
  kScalar,
  kAvx2,
};

/// The active kernel table. First call resolves OFDM_SIMD + CPU
/// features; later calls are a single atomic load.
const Kernels& kernels();

/// The tier of the installed table (resolves on first use, like
/// kernels()). Derived from the table pointer itself, so it can never
/// disagree with what kernels() runs.
Tier active_tier();

/// "scalar" / "avx2".
std::string tier_name(Tier tier);

/// Override the dispatch decision (benches and the digest-equivalence
/// test use this to pit tiers against each other). Requesting AVX2 on
/// a host without it installs the scalar tier; returns the tier
/// actually installed.
Tier force_tier(Tier tier);

/// Best tier this build + CPU supports (what auto-detection picks).
Tier best_supported_tier();

}  // namespace ofdm::simd
