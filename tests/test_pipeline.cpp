// The transmitter's per-symbol path and the inverse-FFT fast paths it
// leans on.
//
// Every OFDM symbol is assembled and inverse-transformed by the
// sequential loop in Transmitter::modulate_into, which reuses its
// scratch across symbols and bursts: a reused transmitter must produce
// *identical* samples to a fresh one for every family standard. The
// Hermitian inverse fast path, the in-place transforms and the fused
// output scale are checked against the reference DFT the same way the
// FFT unit tests are. Transmit digests over random configurations pin
// the per-symbol path's output, fixed-mapping configurations without an
// interleaver included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "random_params.hpp"

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

// Random configurations (tests/random_params.hpp seeds) whose transmit
// digests were recorded when fixed-mapping configurations without an
// interleaver (seeds 2, 8, 16, 46, 47, 54) still took a separate
// whole-stream mapping sweep; the per-symbol loop must emit the same
// samples. The rest cover interleaved, differential and DMT members.
struct TxDigest {
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr TxDigest kTxDigests[] = {
    {2, 0x1022cdf41cc746a1},  {8, 0xf168d2892c908f2d},
    {16, 0x2fd5c24bbaf452d5}, {46, 0x1f5125a6f33b72fd},
    {47, 0x3c07c85aae953e11}, {54, 0xfa1b73cd5554e5c5},
    {3, 0xa6f0e5dd967a631d},  {5, 0x0010fcac5fe51a5d},
    {6, 0x050cda65d090ca81},  {9, 0xdab6e4fe7d39bf85},
    {23, 0xa85615cae5597bf5},
};

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
}

// FNV-1a over the sample bit patterns of two bursts (a full frame, then
// a stretched one from the same transmitter) for each framing variant:
// window ramp off/on times null samples off/on.
std::uint64_t tx_digest(std::uint64_t seed) {
  Rng cfg_rng(seed);
  const OfdmParams drawn = test::random_params(cfg_rng);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t ramp : {std::size_t{0},
                           std::min<std::size_t>(drawn.cp_len, 4)}) {
    for (std::size_t nulls : {std::size_t{0}, std::size_t{37}}) {
      OfdmParams p = drawn;
      p.window_ramp = ramp;
      p.frame.null_samples = nulls;
      Transmitter tx(p);
      Rng rng(seed + 1000);
      const std::size_t n = tx.recommended_payload_bits();
      for (std::size_t bits : {n, n + 2 * tx.bits_per_symbol() + 3}) {
        const Transmitter::Burst b = tx.modulate(rng.bits(bits));
        fnv_mix(h, b.samples.size());
        for (const cplx& v : b.samples) {
          fnv_mix(h, std::bit_cast<std::uint64_t>(v.real()));
          fnv_mix(h, std::bit_cast<std::uint64_t>(v.imag()));
        }
      }
    }
  }
  return h;
}

TEST(SymbolPath, RandomConfigDigestsArePinned) {
  std::size_t fixed_no_interleaver = 0;
  for (const TxDigest& d : kTxDigests) {
    Rng cfg_rng(d.seed);
    const OfdmParams p = test::random_params(cfg_rng);
    if (p.mapping == MappingKind::kFixed &&
        p.interleaver.kind == InterleaverKind::kNone) {
      ++fixed_no_interleaver;
    }
    const std::uint64_t got = tx_digest(d.seed);
    EXPECT_EQ(got, d.digest)
        << "seed " << d.seed << " got 0x" << std::hex << got;
  }
  EXPECT_GE(fixed_no_interleaver, 6u);
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
