// 802.11a packet reception through the RX Mother Model: a burst at an
// unknown offset in a stream, with CFO, noise, multipath and phase
// noise, acquired by MotherReceiver::synchronize (STF plateau, coarse
// CFO, LTF fine timing and fine CFO) and received by the documented
// chain: derotate -> LTF channel estimate -> pilot tracking ->
// demodulate.
#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/rng.hpp"
#include "core/preamble.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "metrics/ber.hpp"
#include "rf/channel.hpp"
#include "rf/impairments.hpp"
#include "rx/mother/mother_rx.hpp"

namespace ofdm {
namespace {

using core::OfdmParams;

struct Scenario {
  cvec stream;
  bitvec payload;
  std::size_t true_start;
  OfdmParams params;
};

Scenario make_scenario(core::WlanRate rate, std::size_t lead_in,
                       double cfo_hz, double snr_db, std::uint64_t seed) {
  Scenario sc;
  sc.params = core::profile_wlan_80211a(rate);
  core::Transmitter tx(sc.params);
  Rng rng(seed);
  sc.payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(sc.payload);

  sc.true_start = lead_in;
  sc.stream.assign(lead_in, cplx{0.0, 0.0});
  sc.stream.insert(sc.stream.end(), burst.samples.begin(),
                   burst.samples.end());
  sc.stream.insert(sc.stream.end(), 200, cplx{0.0, 0.0});

  if (cfo_hz != 0.0) {
    for (std::size_t i = 0; i < sc.stream.size(); ++i) {
      const double a = kTwoPi * cfo_hz * static_cast<double>(i) / 20e6;
      sc.stream[i] *= cplx{std::cos(a), std::sin(a)};
    }
  }
  // Noise at the given SNR relative to unit burst power.
  if (snr_db < 200.0) {
    rf::AwgnChannel noise(rf::snr_to_noise_power(1.0, snr_db), seed + 1);
    sc.stream = noise.process(sc.stream);
  }
  return sc;
}

struct Reception {
  rx::SyncReport sync;
  cvec equalizer;
  bitvec payload;
};

// synchronize -> derotate -> estimate_equalizer -> pilot tracking ->
// demodulate.
Reception receive(const Scenario& sc) {
  rx::MotherReceiver rx(sc.params);
  Reception r;
  r.sync = rx.synchronize(sc.stream, sc.params.sample_rate);
  if (r.sync.metric == 0.0) return r;
  const auto from = std::span<const cplx>(sc.stream).subspan(r.sync.offset);
  cvec corrected(from.size());
  rx::derotate(from, r.sync.cfo_hz, sc.params.sample_rate, corrected);
  r.equalizer = rx.estimate_equalizer(corrected);
  rx.set_equalizer(r.equalizer);
  rx.set_pilot_tracking(true);
  r.payload = rx.demodulate(corrected, sc.payload.size()).payload;
  return r;
}

TEST(MotherRxAcquire, DetectsAndDecodesCleanBurstAtOffset) {
  const Scenario sc = make_scenario(core::WlanRate::k24, 777, 0.0, 999.0, 1);
  const Reception r = receive(sc);
  ASSERT_GT(r.sync.metric, 0.0);
  EXPECT_TRUE(r.sync.used_preamble);
  EXPECT_NEAR(static_cast<double>(r.sync.offset),
              static_cast<double>(sc.true_start), 3.0);
  EXPECT_EQ(metrics::ber(sc.payload, r.payload).errors, 0u);
}

TEST(MotherRxAcquire, NoLockOnNoiseOnly) {
  Rng rng(2);
  cvec noise(4000);
  for (cplx& v : noise) v = rng.complex_gaussian(1.0);
  const OfdmParams params = core::profile_wlan_80211a();
  rx::MotherReceiver rx(params);
  EXPECT_EQ(rx.synchronize(noise, params.sample_rate).metric, 0.0);
}

class MotherRxAcquireCfo : public ::testing::TestWithParam<double> {};

TEST_P(MotherRxAcquireCfo, RecoversCfoAndDecodes) {
  const double cfo = GetParam();
  const Scenario sc = make_scenario(core::WlanRate::k12, 300, cfo, 30.0, 3);
  const Reception r = receive(sc);
  ASSERT_GT(r.sync.metric, 0.0);
  EXPECT_NEAR(r.sync.cfo_hz, cfo, 3e3);  // within 1% of subcarrier spacing
  EXPECT_EQ(metrics::ber(sc.payload, r.payload).errors, 0u) << "cfo " << cfo;
}

// 802.11a requires +-20 ppm oscillators: +-100 kHz at 5 GHz; test to
// +-200 kHz (40 ppm, both signs).
INSTANTIATE_TEST_SUITE_P(Offsets, MotherRxAcquireCfo,
                         ::testing::Values(-200e3, -50e3, -5e3, 5e3, 80e3,
                                           200e3));

TEST(MotherRxAcquire, SurvivesMultipathAndNoise) {
  Scenario sc = make_scenario(core::WlanRate::k12, 500, 30e3, 25.0, 4);
  rf::MultipathChannel ch(cvec{cplx{0.9, 0.1}, cplx{0.0, 0.0},
                               cplx{0.25, -0.1}, cplx{0.1, 0.05}});
  sc.stream = ch.process(sc.stream);
  const Reception r = receive(sc);
  ASSERT_GT(r.sync.metric, 0.0);
  EXPECT_EQ(metrics::ber(sc.payload, r.payload).errors, 0u);
}

// A faded direct path with a stronger echo inside the CP: timing must
// lock on the first path, not the strongest one.
TEST(MotherRxAcquire, LocksOnFirstPathWhenAnEchoIsStronger) {
  Scenario sc = make_scenario(core::WlanRate::k12, 350, 0.0, 999.0, 8);
  cvec taps(11, cplx{0.0, 0.0});
  taps[0] = {0.6, 0.0};
  taps[10] = {0.0, 1.0};
  rf::MultipathChannel ch(taps);
  sc.stream = ch.process(sc.stream);
  const Reception r = receive(sc);
  ASSERT_GT(r.sync.metric, 0.0);
  EXPECT_NEAR(static_cast<double>(r.sync.offset),
              static_cast<double>(sc.true_start), 3.0);
  EXPECT_EQ(metrics::ber(sc.payload, r.payload).errors, 0u);
}

// The sui_3 geometry: an echo 0.9 us (18 samples, past the CP) late
// and 7 dB stronger than the faded direct path. The window must still
// open on the direct path.
TEST(MotherRxAcquire, LocksOnFirstPathBelowALateStrongerEcho) {
  Scenario sc = make_scenario(core::WlanRate::k12, 250, 20e3, 30.0, 9);
  cvec taps(19, cplx{0.0, 0.0});
  taps[0] = {0.3, 0.3};
  taps[18] = {1.0, 0.0};
  rf::MultipathChannel ch(taps);
  sc.stream = ch.process(sc.stream);
  const Reception r = receive(sc);
  ASSERT_GT(r.sync.metric, 0.0);
  EXPECT_NEAR(static_cast<double>(r.sync.offset),
              static_cast<double>(sc.true_start), 3.0);
}

TEST(MotherRxAcquire, PilotTrackingAbsorbsPhaseNoise) {
  Scenario sc = make_scenario(core::WlanRate::k12, 400, 0.0, 35.0, 5);
  rf::PhaseNoise pn(200.0, 20e6, 9);  // 200 Hz linewidth oscillator
  sc.stream = pn.process(sc.stream);
  const Reception r = receive(sc);
  ASSERT_GT(r.sync.metric, 0.0);
  EXPECT_EQ(metrics::ber(sc.payload, r.payload).errors, 0u);
}

TEST(MotherRxAcquire, ChannelEstimateMatchesAppliedChannel) {
  Scenario sc = make_scenario(core::WlanRate::k12, 250, 0.0, 999.0, 6);
  const cplx gain{0.6, -0.5};
  for (cplx& v : sc.stream) v *= gain;
  const Reception r = receive(sc);
  ASSERT_GT(r.sync.metric, 0.0);
  // The equalizer inverts the channel: 1/eq ~ the applied flat gain on
  // every used bin.
  const cvec known = core::wlan_ltf_bins();
  for (std::size_t bin = 0; bin < 64; ++bin) {
    if (std::abs(known[bin]) == 0.0) continue;
    EXPECT_NEAR(std::abs(1.0 / r.equalizer[bin] - gain), 0.0, 0.05)
        << "bin " << bin;
  }
}

}  // namespace
}  // namespace ofdm
