// Synchronization tests: CP-correlation timing, STF plateau metric and
// CFO estimation on real Mother Model bursts, and the running-sum
// correlators checked against the direct per-lag loops they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/standard.hpp"
#include "core/transmitter.hpp"
#include "rx/sync.hpp"

namespace ofdm {
namespace {

// ---------------------------------------------------------------------
// Oracles: the direct loops that re-sum every window at every lag,
// O(L * W). The library's correlators must reproduce them.

rx::TimingEstimate direct_cp_timing(std::span<const cplx> samples,
                                    std::size_t fft_size, std::size_t cp_len,
                                    double sample_rate) {
  rx::TimingEstimate best;
  const std::size_t last = samples.size() - fft_size - cp_len;
  for (std::size_t d = 0; d <= last; ++d) {
    cplx corr{0.0, 0.0};
    double e1 = 0.0;
    double e2 = 0.0;
    for (std::size_t i = 0; i < cp_len; ++i) {
      const cplx a = samples[d + i];
      const cplx b = samples[d + i + fft_size];
      corr += std::conj(a) * b;
      e1 += std::norm(a);
      e2 += std::norm(b);
    }
    const double denom = std::sqrt(e1 * e2);
    const double metric = denom > 0.0 ? std::abs(corr) / denom : 0.0;
    if (metric > best.metric) {  // first strict maximum
      best.metric = metric;
      best.offset = d;
      best.cfo_hz = std::arg(corr) * sample_rate /
                    (kTwoPi * static_cast<double>(fft_size));
    }
  }
  return best;
}

// M[d] for every d with a full 32-sample window.
rvec direct_stf_metric(std::span<const cplx> samples) {
  constexpr std::size_t kLag = 16;
  if (samples.size() < 2 * kLag) return {};
  rvec m(samples.size() - 2 * kLag + 1, 0.0);
  for (std::size_t d = 0; d < m.size(); ++d) {
    cplx corr{0.0, 0.0};
    double energy = 0.0;
    for (std::size_t i = 0; i < kLag; ++i) {
      corr += samples[d + i] * std::conj(samples[d + i + kLag]);
      energy += std::norm(samples[d + i + kLag]);
    }
    m[d] = energy > 0.0 ? std::norm(corr) / (energy * energy) : 0.0;
  }
  return m;
}

std::optional<rx::StfPlateau> direct_stf_plateau(
    std::span<const cplx> samples) {
  const rvec metric = direct_stf_metric(samples);
  std::size_t run = 0;
  for (std::size_t i = 0; i < metric.size(); ++i) {
    if (metric[i] > 0.7) {
      if (++run >= 80) return rx::StfPlateau{i + 1 - run, metric[i]};
    } else {
      run = 0;
    }
  }
  return std::nullopt;
}

// Same lock as the direct loop: identical offset, metric within 1e-12,
// CFO within 1e-6 relative (plus 1 uHz, since a clean stream's exact
// zero CFO comes back as a rounding-level residue).
void expect_same_timing(std::span<const cplx> stream, std::size_t fft_size,
                        std::size_t cp_len, double fs,
                        const std::string& what) {
  const auto want = direct_cp_timing(stream, fft_size, cp_len, fs);
  const auto got = rx::cp_timing(stream, fft_size, cp_len, fs);
  EXPECT_EQ(got.offset, want.offset) << what;
  EXPECT_NEAR(got.metric, want.metric, 1e-12) << what;
  EXPECT_NEAR(got.cfo_hz, want.cfo_hz, 1e-6 * std::abs(want.cfo_hz) + 1e-6)
      << what;
}

void add_noise(cvec& stream, double snr_db, Rng& rng) {
  double power = 0.0;
  for (const cplx& x : stream) power += std::norm(x);
  power /= static_cast<double>(stream.size());
  const double variance = power * std::pow(10.0, -snr_db / 10.0);
  for (cplx& x : stream) x += rng.complex_gaussian(variance);
}

cvec wlan_burst(std::uint64_t seed) {
  core::Transmitter tx(core::profile_wlan_80211a());
  Rng rng(seed);
  return tx.modulate(rng.bits(tx.recommended_payload_bits())).samples;
}

TEST(Sync, CpTimingFindsSymbolStart) {
  const cvec burst = wlan_burst(1);
  // Search around the first payload symbol (preamble = 320 samples).
  const std::size_t true_start = 320;
  const auto view =
      std::span<const cplx>(burst).subspan(true_start - 40, 200);
  const auto est = rx::cp_timing(view, 64, 16, 20e6);
  // CP correlation peaks when the window aligns with the symbol start.
  EXPECT_NEAR(static_cast<double>(est.offset), 40.0, 2.0);
  EXPECT_GT(est.metric, 0.9);
}

TEST(Sync, CpTimingCfoIsNearZeroWithoutOffset) {
  const cvec burst = wlan_burst(2);
  const auto view = std::span<const cplx>(burst).subspan(320, 160);
  const auto est = rx::cp_timing(view, 64, 16, 20e6);
  EXPECT_LT(std::abs(est.cfo_hz), 2e3);  // << subcarrier spacing
}

TEST(Sync, CfoEstimateRecoversInjectedOffset) {
  cvec burst = wlan_burst(3);
  const double cfo = 40e3;  // well below the +-156 kHz ambiguity limit
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const double a = kTwoPi * cfo * static_cast<double>(i) / 20e6;
    burst[i] *= cplx{std::cos(a), std::sin(a)};
  }
  // Autocorrelation over the LTF (period 64, two repeats at 192..320).
  // The estimate must recover magnitude AND sign.
  const double est = rx::estimate_cfo(burst, 192, 64, 64, 20e6);
  EXPECT_NEAR(est, cfo, 1e3);
}

TEST(Sync, StfMetricPlateausDuringShortTraining) {
  const cvec burst = wlan_burst(4);
  const rvec m = rx::stf_metric(burst);
  // During the STF (samples 0..160) the 16-periodic structure pushes the
  // metric to ~1.
  double stf_avg = 0.0;
  for (std::size_t i = 0; i < 100; ++i) stf_avg += m[i];
  stf_avg /= 100.0;
  EXPECT_GT(stf_avg, 0.9);
  // Deep in the payload it must be distinctly lower on average.
  double payload_avg = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 400; i < 700 && i < m.size(); ++i) {
    payload_avg += m[i];
    ++count;
  }
  payload_avg /= static_cast<double>(count);
  EXPECT_LT(payload_avg, 0.6);
}

// Every member of the family (all carry a CP), clean and at 20 dB SNR,
// at random leads of 0..2 symbols. On clean streams every symbol
// boundary scores 1.0 up to rounding, so this also pins the tie rule:
// the earliest boundary wins, as the direct loop's first strict maximum
// does.
TEST(SyncOracle, CpTimingMatchesDirectLoopAcrossFamily) {
  for (const core::Standard standard : core::kStandardFamily) {
    const core::OfdmParams params = core::profile_for(standard);
    core::Transmitter tx(params);
    Rng rng(1000 + static_cast<std::uint64_t>(standard));
    const cvec burst =
        tx.modulate(rng.bits(tx.recommended_payload_bits())).samples;
    // The null guard plus six symbols: enough repeated boundaries to
    // tie, short enough for the O(L * W) oracle.
    const std::size_t head = std::min(
        burst.size(), params.frame.null_samples + 6 * params.symbol_len());
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t lead =
          trial == 0 ? 0 : rng.uniform_int(2 * params.symbol_len() + 1);
      cvec stream(lead, cplx{0.0, 0.0});
      stream.insert(stream.end(), burst.begin(),
                    burst.begin() + static_cast<std::ptrdiff_t>(head));
      const std::string what = core::standard_name(standard) + " lead " +
                               std::to_string(lead);
      expect_same_timing(stream, params.fft_size, params.cp_len,
                         params.sample_rate, what + " clean");
      add_noise(stream, 20.0, rng);
      expect_same_timing(stream, params.fft_size, params.cp_len,
                         params.sample_rate, what + " awgn");
    }
  }
}

TEST(SyncOracle, CpTimingWithUnitPrefix) {
  Rng rng(11);
  cvec stream(300);
  for (cplx& x : stream) x = rng.complex_gaussian();
  // A one-sample "prefix" copy at a known lag.
  stream[200] = stream[184];
  expect_same_timing(stream, 16, 1, 1.0, "cp_len 1");
}

TEST(SyncOracle, CpTimingOnExactlyOneSymbol) {
  const cvec burst = wlan_burst(12);
  const auto symbol = std::span<const cplx>(burst).subspan(320, 80);
  expect_same_timing(symbol, 64, 16, 20e6, "one symbol");
  EXPECT_EQ(rx::cp_timing(symbol, 64, 16, 20e6).offset, 0u);
}

TEST(SyncOracle, CpTimingOnSilenceIsZero) {
  const cvec zeros(4 * 80, cplx{0.0, 0.0});
  const auto est = rx::cp_timing(zeros, 64, 16, 20e6);
  EXPECT_EQ(est.offset, 0u);
  EXPECT_EQ(est.metric, 0.0);
  EXPECT_EQ(est.cfo_hz, 0.0);
}

// Energy that stops dead: the running sums' subtraction leaves a
// rounding residue in the silent tail, which must not score as a peak.
// At 0 dB the noisy best is low enough for a residue ratio to beat it.
TEST(SyncOracle, CpTimingIgnoresSilentTail) {
  for (const core::Standard standard : core::kStandardFamily) {
    const core::OfdmParams params = core::profile_for(standard);
    core::Transmitter tx(params);
    Rng rng(2000 + static_cast<std::uint64_t>(standard));
    const cvec burst =
        tx.modulate(rng.bits(tx.recommended_payload_bits())).samples;
    const std::size_t head = std::min(
        burst.size(), params.frame.null_samples + 3 * params.symbol_len());
    cvec clean(burst.begin(),
               burst.begin() + static_cast<std::ptrdiff_t>(head));
    cvec noisy = clean;
    add_noise(noisy, 0.0, rng);
    const std::string what = core::standard_name(standard);
    for (cvec* s : {&clean, &noisy}) {
      s->insert(s->end(), 3 * params.symbol_len(), cplx{0.0, 0.0});
    }
    expect_same_timing(clean, params.fft_size, params.cp_len,
                       params.sample_rate, what + " clean, silent tail");
    expect_same_timing(noisy, params.fft_size, params.cp_len,
                       params.sample_rate, what + " 0 dB, silent tail");
  }
}

// 802.11a corpora: every rate, clean / CFO / AWGN, at random leads with
// a silent tail, plus streams cut inside the STF and noise alone.
std::vector<cvec> wlan_corpus() {
  std::vector<cvec> corpus;
  Rng rng(14);
  const core::WlanRate rates[] = {
      core::WlanRate::k6,  core::WlanRate::k9,  core::WlanRate::k12,
      core::WlanRate::k18, core::WlanRate::k24, core::WlanRate::k36,
      core::WlanRate::k48, core::WlanRate::k54};
  for (const core::WlanRate rate : rates) {
    core::Transmitter tx(core::profile_wlan_80211a(rate));
    const cvec burst =
        tx.modulate(rng.bits(tx.recommended_payload_bits())).samples;
    for (const double snr_db : {300.0, 25.0, 10.0, 3.0}) {
      const std::size_t lead = rng.uniform_int(400);
      cvec stream(lead, cplx{0.0, 0.0});
      stream.insert(stream.end(), burst.begin(), burst.end());
      stream.insert(stream.end(), 200, cplx{0.0, 0.0});
      const double cfo = rng.uniform(-200e3, 200e3);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const double a = kTwoPi * cfo * static_cast<double>(i) / 20e6;
        stream[i] *= cplx{std::cos(a), std::sin(a)};
      }
      if (snr_db < 200.0) add_noise(stream, snr_db, rng);
      corpus.push_back(std::move(stream));
    }
    for (std::size_t cut = 8; cut < 160; cut += 8) {
      corpus.emplace_back(burst.begin() + static_cast<std::ptrdiff_t>(cut),
                          burst.end());
    }
  }
  cvec noise(2000);
  for (cplx& x : noise) x = rng.complex_gaussian();
  corpus.push_back(std::move(noise));
  return corpus;
}

TEST(SyncOracle, StfMetricMatchesDirectLoop) {
  for (const cvec& stream : wlan_corpus()) {
    const rvec want = direct_stf_metric(stream);
    const rvec got = rx::stf_metric(stream);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < want.size(); ++d) {
      // Relative: M[d] normalizes by the late window only, so it
      // exceeds 1 where that window runs into silence.
      ASSERT_NEAR(got[d], want[d], 1e-12 * std::max(1.0, want[d]))
          << "lag " << d;
    }
  }
}

TEST(SyncOracle, StfPlateauMatchesDirectLoop) {
  std::size_t detected = 0;
  for (const cvec& stream : wlan_corpus()) {
    const auto want = direct_stf_plateau(stream);
    const auto got = rx::detect_stf_plateau(stream);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want) continue;
    ++detected;
    EXPECT_EQ(got->start, want->start);
    EXPECT_NEAR(got->metric, want->metric, 1e-12);
  }
  EXPECT_GT(detected, 32u);  // every uncut burst at least
}

TEST(Sync, RejectsShortInput) {
  cvec tiny(10);
  EXPECT_THROW(rx::cp_timing(tiny, 64, 16, 1.0), DimensionError);
  EXPECT_THROW(rx::estimate_cfo(tiny, 0, 16, 16, 1.0), DimensionError);
}

}  // namespace
}  // namespace ofdm
