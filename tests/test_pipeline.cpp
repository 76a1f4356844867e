// The transmitter's per-symbol path and the inverse-FFT fast paths it
// leans on.
//
// Every OFDM symbol is assembled and inverse-transformed by the
// sequential loop in Transmitter::modulate_into, which reuses its
// scratch across symbols and bursts: a reused transmitter must produce
// *identical* samples to a fresh one for every family standard. The
// Hermitian inverse fast path, the in-place transforms and the fused
// output scale are checked against the reference DFT the same way the
// FFT unit tests are.
#include <gtest/gtest.h>

#include <random>

#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"

namespace ofdm::core {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1u);
  return bits;
}

TEST(SymbolPath, ReusedTransmitterMatchesFreshOneAcrossFamily) {
  // Stale scratch from an earlier burst would show up on the second and
  // later bursts, not the first.
  for (Standard std_id : kStandardFamily) {
    const OfdmParams p = profile_for(std_id);
    Transmitter reused(p);
    const std::size_t n = reused.recommended_payload_bits();
    (void)reused.modulate(random_bits(n, 41));
    const auto bits = random_bits(n, 42);
    const Transmitter::Burst got = reused.modulate(bits);
    Transmitter fresh(p);
    const Transmitter::Burst ref = fresh.modulate(bits);
    ASSERT_EQ(ref.samples.size(), got.samples.size())
        << standard_name(std_id);
    for (std::size_t i = 0; i < ref.samples.size(); ++i) {
      ASSERT_EQ(ref.samples[i], got.samples[i])
          << standard_name(std_id) << " sample " << i;
    }
  }
}

cvec random_hermitian_spectrum(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  cvec x(n, cplx{0.0, 0.0});
  for (std::size_t k = 1; k < n / 2; ++k) {
    x[k] = {dist(rng), dist(rng)};
    x[n - k] = std::conj(x[k]);
  }
  // DC and Nyquist must be real for a real output signal.
  x[0] = {dist(rng), 0.0};
  if (n % 2 == 0) x[n / 2] = {dist(rng), 0.0};
  return x;
}

TEST(HermitianIfft, MatchesReferenceDft) {
  // 512/1024/8192 are the ADSL/ADSL++/VDSL sizes; 36 exercises the
  // even-but-not-power-of-two path (half size 18 -> Bluestein).
  for (std::size_t n : {8u, 36u, 512u, 1024u}) {
    const cvec x = random_hermitian_spectrum(n, 7u + n);
    const cvec ref = dsp::reference_dft(x, /*inverse=*/true);
    cvec out(n);
    dsp::Fft fft(n);
    fft.inverse_hermitian(x, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i].real(), ref[i].real(), 1e-9 * n) << n << ":" << i;
      // The fast path produces exact zeros in the imaginary part.
      EXPECT_EQ(out[i].imag(), 0.0) << n << ":" << i;
      EXPECT_NEAR(ref[i].imag(), 0.0, 1e-9 * n) << n << ":" << i;
    }
  }
}

TEST(HermitianIfft, ScaleFactorRidesAlong) {
  const std::size_t n = 64;
  const cvec x = random_hermitian_spectrum(n, 3);
  dsp::Fft fft(n);
  cvec plain(n);
  cvec scaled(n);
  fft.inverse_hermitian(x, plain);
  fft.inverse_hermitian(x, scaled, 2.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scaled[i].real(), 2.5 * plain[i].real(), 1e-12);
  }
}

TEST(Ifft, InPlaceEqualsOutOfPlace) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t n : {16u, 60u, 256u}) {
    cvec x(n);
    for (auto& v : x) v = {dist(rng), dist(rng)};
    dsp::Fft fft(n);
    cvec out(n);
    fft.inverse(x, out, 1.7);
    cvec inplace = x;
    fft.inverse(inplace, inplace, 1.7);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], inplace[i]) << n << ":" << i;
    }
  }
}

TEST(Ifft, HermitianInPlaceEqualsOutOfPlace) {
  for (std::size_t n : {64u, 512u}) {
    const cvec x = random_hermitian_spectrum(n, 5u + n);
    dsp::Fft fft(n);
    cvec out(n);
    fft.inverse_hermitian(x, out, 0.5);
    cvec inplace = x;
    fft.inverse_hermitian(inplace, inplace, 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], inplace[i]) << n << ":" << i;
    }
  }
}

TEST(Ifft, FusedScaleMatchesSeparateScaling) {
  // Folding the 1/N + tone scale into the last butterfly stage must be
  // bit-identical to scaling the unscaled output afterwards (the same
  // floating-point operations in the same order).
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t n : {64u, 1024u}) {
    cvec x(n);
    for (auto& v : x) v = {dist(rng), dist(rng)};
    dsp::Fft fft(n);
    cvec fused(n);
    fft.inverse(x, fused, 3.25);
    cvec plain(n);
    fft.inverse(x, plain);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fused[i], plain[i] * 3.25) << n << ":" << i;
    }
  }
}

}  // namespace
}  // namespace ofdm::core
