// OfdmParams validation and tone-layout tests: the reconfiguration
// surface must reject inconsistent configurations with clear errors and
// derive tone bookkeeping correctly.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/params.hpp"
#include "core/profiles.hpp"
#include "core/tone_map.hpp"

namespace ofdm::core {
namespace {

OfdmParams minimal_params() {
  OfdmParams p;
  p.fft_size = 16;
  p.cp_len = 4;
  p.sample_rate = 1e6;
  p.tone_map = null_tone_map(16);
  fill_data_range(p.tone_map, -4, 4);
  return p;
}

TEST(ToneMap, LogicalIndexing) {
  auto map = null_tone_map(16);
  set_tone(map, -1, ToneType::kPilot);
  set_tone(map, 3, ToneType::kData);
  EXPECT_EQ(map[15], ToneType::kPilot);  // -1 wraps to N-1
  EXPECT_EQ(map[3], ToneType::kData);
  EXPECT_EQ(tone_at(map, -1), ToneType::kPilot);
  EXPECT_THROW(set_tone(map, 8, ToneType::kData), Error);   // out of range
  EXPECT_THROW(set_tone(map, -9, ToneType::kData), Error);
}

TEST(ToneLayout, LogicalFrequencyOrdering) {
  OfdmParams p = minimal_params();
  set_tone(p.tone_map, -2, ToneType::kPilot);
  const ToneLayout layout = make_tone_layout(p);
  // Data tones: -4,-3,-1,1,2,3,4 (DC skipped, -2 became a pilot).
  ASSERT_EQ(layout.data_bins.size(), 7u);
  EXPECT_EQ(layout.data_bins[0], 12u);  // logical -4 -> bin 12
  EXPECT_EQ(layout.data_bins[1], 13u);
  EXPECT_EQ(layout.data_bins[2], 15u);  // -1
  EXPECT_EQ(layout.data_bins[3], 1u);   // +1
  EXPECT_EQ(layout.pilot_bins, (std::vector<std::size_t>{14}));
}

TEST(ToneLayout, HermitianUsesOnlyPositiveHalf) {
  OfdmParams p = minimal_params();
  p.hermitian = true;
  p.tone_map = null_tone_map(16);
  for (long k = 1; k <= 5; ++k) set_tone(p.tone_map, k, ToneType::kData);
  const ToneLayout layout = make_tone_layout(p);
  EXPECT_EQ(layout.data_bins, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
}

TEST(Validate, AcceptsMinimalConfig) {
  EXPECT_NO_THROW(validate(minimal_params()));
}

TEST(Validate, RejectsToneMapSizeMismatch) {
  OfdmParams p = minimal_params();
  p.tone_map.resize(8);
  EXPECT_THROW(validate(p), ConfigError);
}

TEST(Validate, RejectsNoDataTones) {
  OfdmParams p = minimal_params();
  p.tone_map = null_tone_map(16);
  EXPECT_THROW(validate(p), ConfigError);
}

TEST(Validate, RejectsPilotValueCountMismatch) {
  OfdmParams p = minimal_params();
  set_tone(p.tone_map, 2, ToneType::kPilot);
  // pilots.base_values left empty -> mismatch.
  EXPECT_THROW(validate(p), ConfigError);
}

TEST(Validate, RejectsWindowLongerThanCp) {
  OfdmParams p = minimal_params();
  p.window_ramp = 5;  // cp is 4
  EXPECT_THROW(validate(p), ConfigError);
}

TEST(Validate, RejectsHermitianWithNegativeTones) {
  OfdmParams p = minimal_params();  // has tones at -4..-1
  p.hermitian = true;
  EXPECT_THROW(validate(p), ConfigError);
}

TEST(Validate, RejectsDifferentialWithoutPhaseReference) {
  OfdmParams p = minimal_params();
  p.mapping = MappingKind::kDifferential;
  EXPECT_THROW(validate(p), ConfigError);
  p.frame.preamble = PreambleKind::kPhaseReference;
  EXPECT_NO_THROW(validate(p));
}

TEST(Validate, RejectsBitTableSizeMismatch) {
  OfdmParams p = minimal_params();
  p.mapping = MappingKind::kBitTable;
  p.bit_table = {4, 4};  // 8 data tones exist
  EXPECT_THROW(validate(p), ConfigError);
}

TEST(Validate, RejectsBadBlockInterleaverRows) {
  OfdmParams p = minimal_params();
  p.scheme = mapping::Scheme::kQpsk;
  p.interleaver.kind = InterleaverKind::kBlock;
  p.interleaver.rows = 5;  // cbps = 16, not divisible by 5
  EXPECT_THROW(validate(p), ConfigError);
}

TEST(Validate, RejectsWlanPreambleOffTheSixtyFourPointGeometry) {
  // The 802.11a training fields are 64-point symbols; the receiver's
  // channel estimate writes one coefficient per bin of them.
  OfdmParams p = minimal_params();  // 16-point FFT
  p.frame.preamble = PreambleKind::kWlan;
  EXPECT_THROW(validate(p), ConfigError);
  EXPECT_NO_THROW(validate(profile_wlan_80211a()));
}

TEST(CodedBits, PerSymbolArithmetic) {
  OfdmParams p = minimal_params();  // 8 data tones
  p.scheme = mapping::Scheme::kQam16;
  EXPECT_EQ(coded_bits_per_symbol(p), 32u);
  p.mapping = MappingKind::kDifferential;
  p.diff_kind = mapping::DiffKind::kDqpsk;
  EXPECT_EQ(coded_bits_per_symbol(p), 16u);
  p.mapping = MappingKind::kBitTable;
  p.bit_table.assign(8, 7);
  EXPECT_EQ(coded_bits_per_symbol(p), 56u);
}

TEST(ParameterDistance, IdenticalConfigsAreZeroApart) {
  const OfdmParams a = profile_wlan_80211a();
  EXPECT_EQ(parameter_distance(a, a), 0u);
}

TEST(ParameterDistance, SiblingStandardsAreClose) {
  // 802.11g is 802.11a at another carrier: distance must be tiny
  // compared to the full parameter surface.
  const OfdmParams a = profile_wlan_80211a();
  const OfdmParams g = profile_wlan_80211g();
  const std::size_t d = parameter_distance(a, g);
  EXPECT_GE(d, 1u);
  EXPECT_LE(d, 3u);
  EXPECT_LT(d, parameter_count(a) / 5);
}

TEST(ParameterDistance, UnrelatedStandardsAreFar) {
  const OfdmParams a = profile_wlan_80211a();
  const OfdmParams d = profile_dab();
  EXPECT_GT(parameter_distance(a, d), parameter_distance(
      a, profile_wlan_80211g()));
}

TEST(Summarize, MentionsKeyNumbers) {
  const std::string s = summarize(profile_wlan_80211a());
  EXPECT_NE(s.find("N=64"), std::string::npos);
  EXPECT_NE(s.find("802.11a"), std::string::npos);
}

}  // namespace
}  // namespace ofdm::core
