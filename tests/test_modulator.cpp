// Modulator tests: frequency-domain assembly, the cyclic-prefix property,
// Hermitian (real-output) configurations, unit-power scaling and
// raised-cosine windowing with overlap-add.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/modulator.hpp"
#include "dsp/window.hpp"
#include "core/profiles.hpp"
#include "core/tone_map.hpp"

namespace ofdm::core {
namespace {

OfdmParams small_params() {
  OfdmParams p;
  p.fft_size = 32;
  p.cp_len = 8;
  p.sample_rate = 1e6;
  p.tone_map = null_tone_map(32);
  fill_data_range(p.tone_map, -8, 8);
  return p;
}

cvec random_tones(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec v(n);
  for (cplx& x : v) {
    x = {rng.bit() ? 1.0 : -1.0, rng.bit() ? 1.0 : -1.0};
    x /= std::sqrt(2.0);
  }
  return v;
}

TEST(Modulator, AssemblePlacesTonesAtLayoutBins) {
  const OfdmParams p = small_params();
  const Datapath dp(p);
  const ToneLayout& layout = dp.layout;
  Modulator mod(p, dp);
  const cvec data = random_tones(layout.data_bins.size(), 1);
  const cvec freq = mod.assemble(data, {});
  for (std::size_t i = 0; i < layout.data_bins.size(); ++i) {
    EXPECT_EQ(freq[layout.data_bins[i]], data[i]);
  }
  // Null bins stay zero.
  EXPECT_EQ(std::abs(freq[0]), 0.0);          // DC
  EXPECT_EQ(std::abs(freq[16]), 0.0);         // far guard
}

TEST(Modulator, CyclicPrefixIsACopyOfTheTail) {
  const OfdmParams p = small_params();
  const Datapath dp(p);
  const ToneLayout& layout = dp.layout;
  Modulator mod(p, dp);
  cvec out;
  mod.emit(mod.assemble(random_tones(layout.data_bins.size(), 2), {}),
           out);
  ASSERT_EQ(out.size(), p.symbol_len());
  for (std::size_t i = 0; i < p.cp_len; ++i) {
    EXPECT_NEAR(std::abs(out[i] - out[i + p.fft_size]), 0.0, 1e-12);
  }
}

TEST(Modulator, UnitAveragePowerAcrossConfigurations) {
  Rng rng(3);
  for (Standard s : {Standard::kWlan80211a, Standard::kDab,
                     Standard::kDvbT, Standard::kDrm}) {
    OfdmParams p = profile_for(s);
    const Datapath dp(p);
    const ToneLayout& layout = dp.layout;
    Modulator mod(p, dp);
    cvec out;
    for (int sym = 0; sym < 4; ++sym) {
      mod.emit(mod.assemble(random_tones(layout.data_bins.size(),
                                         10 + sym),
                            cvec(layout.pilot_bins.size(), cplx{1, 0})),
               out);
    }
    // CP repeats body samples, so average power stays ~1 regardless.
    EXPECT_NEAR(mean_power(out), 1.0, 0.15) << standard_name(s);
  }
}

TEST(Modulator, HermitianOutputIsReal) {
  OfdmParams p = small_params();
  p.hermitian = true;
  p.tone_map = null_tone_map(32);
  for (long k = 1; k <= 10; ++k) set_tone(p.tone_map, k, ToneType::kData);
  const Datapath dp(p);
  const ToneLayout& layout = dp.layout;
  Modulator mod(p, dp);
  cvec out;
  mod.emit(mod.assemble(random_tones(10, 4), {}), out);
  for (const cplx& v : out) {
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
  // And it is not the zero signal.
  EXPECT_GT(mean_power(out), 0.5);
}

TEST(Modulator, WindowRampOverlapKeepsFftWindowClean) {
  // The FFT window (after the CP) of every symbol must be identical with
  // and without windowing — the ramp only touches CP and suffix samples.
  OfdmParams p = small_params();
  const Datapath dp(p);
  const ToneLayout& layout = dp.layout;
  const cvec tones_a = random_tones(layout.data_bins.size(), 5);
  const cvec tones_b = random_tones(layout.data_bins.size(), 6);

  cvec plain;
  {
    Modulator mod(p, dp);
    mod.emit(mod.assemble(tones_a, {}), plain);
    mod.emit(mod.assemble(tones_b, {}), plain);
    mod.flush(plain);
  }
  p.window_ramp = 4;
  cvec windowed;
  {
    Modulator mod(p, dp);
    mod.emit(mod.assemble(tones_a, {}), windowed);
    mod.emit(mod.assemble(tones_b, {}), windowed);
    mod.flush(windowed);
  }
  ASSERT_GE(windowed.size(), 2 * p.symbol_len());
  for (std::size_t sym = 0; sym < 2; ++sym) {
    const std::size_t start = sym * p.symbol_len() + p.cp_len;
    for (std::size_t i = 0; i < p.fft_size; ++i) {
      EXPECT_NEAR(std::abs(windowed[start + i] - plain[start + i]), 0.0,
                  1e-12)
          << "symbol " << sym << " sample " << i;
    }
  }
}

TEST(Modulator, WindowedSymbolEdgesAreTapered) {
  OfdmParams p = small_params();
  p.window_ramp = 4;
  const Datapath dp(p);
  const ToneLayout& layout = dp.layout;
  Modulator mod(p, dp);
  cvec out;
  mod.emit(mod.assemble(random_tones(layout.data_bins.size(), 7), {}),
           out);
  // First sample of the burst carries the smallest ramp weight.
  const rvec ramp = dsp::raised_cosine_ramp(4);
  EXPECT_LT(std::abs(out[0]),
            std::abs(out[p.fft_size]) + 1e-9);  // tapered vs full body
  EXPECT_LT(ramp[0], 0.2);
}

TEST(Modulator, EmitSilenceAppliesPendingTail) {
  OfdmParams p = small_params();
  p.window_ramp = 4;
  const Datapath dp(p);
  const ToneLayout& layout = dp.layout;
  Modulator mod(p, dp);
  cvec out;
  mod.emit(mod.assemble(random_tones(layout.data_bins.size(), 8), {}),
           out);
  const std::size_t sym_end = out.size();
  mod.emit_silence(16, out);
  ASSERT_EQ(out.size(), sym_end + 16);
  // The first ramp samples of the silence carry the windowed tail.
  double tail_power = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    tail_power += std::norm(out[sym_end + i]);
  }
  EXPECT_GT(tail_power, 0.0);
  // Beyond the ramp it is exactly silent.
  for (std::size_t i = 4; i < 16; ++i) {
    EXPECT_EQ(std::abs(out[sym_end + i]), 0.0);
  }
}

TEST(Modulator, RejectsWrongValueCounts) {
  const OfdmParams p = small_params();
  const Datapath dp(p);
  const ToneLayout& layout = dp.layout;
  Modulator mod(p, dp);
  EXPECT_THROW(mod.assemble(cvec(3), {}), DimensionError);
}

}  // namespace
}  // namespace ofdm::core
