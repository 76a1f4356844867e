// Convolutional coding tests: generator correctness, puncturing geometry,
// and Viterbi decoding under clean, erased and corrupted conditions.
#include <gtest/gtest.h>

#include <cmath>

#include "coding/convolutional.hpp"
#include "coding/viterbi.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace ofdm::coding {
namespace {

TEST(ConvEncoder, ImpulseResponseMatchesGenerators) {
  // A single 1 followed by zeros reads the generator taps out directly.
  const ConvEncoder enc(k7_industry_code());
  bitvec input(7, 0);
  input[0] = 1;
  const bitvec out = enc.encode(input);
  // Stream A taps 133 octal = 1011011: outputs over 7 steps.
  const bitvec a_expect = bits_from_string("1011011");
  const bitvec b_expect = bits_from_string("1111001");  // 171 octal
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_EQ(out[2 * t], a_expect[t]) << "A stream step " << t;
    EXPECT_EQ(out[2 * t + 1], b_expect[t]) << "B stream step " << t;
  }
}

TEST(ConvEncoder, RateOutputLengths) {
  const ConvEncoder enc(k7_industry_code());
  Rng rng(41);
  const bitvec msg = rng.bits(120);
  const bitvec coded = enc.encode_terminated(msg);
  EXPECT_EQ(coded.size(), (msg.size() + 6) * 2);

  EXPECT_EQ(puncture(coded, puncture_none()).size(), coded.size());
  EXPECT_EQ(puncture(coded, puncture_2_3()).size(), coded.size() * 3 / 4);
  EXPECT_EQ(puncture(coded, puncture_3_4()).size(), coded.size() * 2 / 3);
}

TEST(Puncture, DepunctureRestoresGeometryWithErasures) {
  Rng rng(42);
  const ConvEncoder enc(k7_industry_code());
  const bitvec msg = rng.bits(60);
  const bitvec coded = enc.encode_terminated(msg);
  const PuncturePattern pat = puncture_3_4();
  const bitvec punct = puncture(coded, pat);
  const bitvec rest = depuncture(punct, pat, coded.size());
  ASSERT_EQ(rest.size(), coded.size());
  std::size_t erasures = 0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == kErasure) {
      ++erasures;
    } else {
      EXPECT_EQ(rest[i], coded[i]);
    }
  }
  EXPECT_EQ(erasures, coded.size() - punct.size());
}

class ViterbiRates : public ::testing::TestWithParam<int> {
 protected:
  PuncturePattern pattern() const {
    switch (GetParam()) {
      case 0: return puncture_none();
      case 1: return puncture_2_3();
      default: return puncture_3_4();
    }
  }
};

TEST_P(ViterbiRates, CleanDecodingIsExact) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(43);
  // Message sized for whole puncture periods.
  const bitvec msg = rng.bits(240 - 6);
  const PuncturePattern pat = pattern();
  const bitvec coded = puncture(enc.encode_terminated(msg), pat);
  const bitvec rest = depuncture(coded, pat, (msg.size() + 6) * 2);
  EXPECT_EQ(dec.decode_terminated(rest), msg);
}

TEST_P(ViterbiRates, CorrectsScatteredBitErrors) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(44);
  const bitvec msg = rng.bits(240 - 6);
  const PuncturePattern pat = pattern();
  bitvec coded = puncture(enc.encode_terminated(msg), pat);
  // Flip well-separated bits (spacing >> constraint length).
  for (std::size_t i = 20; i + 50 < coded.size(); i += 97) {
    coded[i] ^= 1u;
  }
  const bitvec rest = depuncture(coded, pat, (msg.size() + 6) * 2);
  EXPECT_EQ(dec.decode_terminated(rest), msg);
}

INSTANTIATE_TEST_SUITE_P(AllRates, ViterbiRates, ::testing::Values(0, 1, 2));

TEST(Viterbi, BurstsBeyondCapacityFail) {
  // A long error burst must defeat the code (sanity: the decoder is not
  // an oracle). 40 consecutive flips >> free distance.
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(46);
  const bitvec msg = rng.bits(200);
  bitvec coded = enc.encode_terminated(msg);
  for (std::size_t i = 100; i < 140; ++i) coded[i] ^= 1u;
  EXPECT_NE(dec.decode_terminated(coded), msg);
}

TEST(Viterbi, ShorterConstraintLengthCode) {
  // K=3 (7,5) textbook code round-trips too (the decoder is generic).
  ConvCode code;
  code.constraint_length = 3;
  code.generators = {05, 07};
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(47);
  const bitvec msg = rng.bits(80);
  EXPECT_EQ(dec.decode_terminated(enc.encode_terminated(msg)), msg);
}

TEST(ConvCodeValidation, DecoderRejectsInvalidCodes) {
  ConvCode no_generators = k7_industry_code();
  no_generators.generators.clear();
  ConvCode too_long = k7_industry_code();
  too_long.constraint_length = 20;
  ConvCode too_short = k7_industry_code();
  too_short.constraint_length = 1;
  ConvCode too_wide = k7_industry_code();
  too_wide.generators = {0133, 0777};
  ConvCode too_many = k7_industry_code();
  too_many.generators.assign(kMaxConvOutputs + 1, 0133);
  for (const ConvCode& bad :
       {no_generators, too_long, too_short, too_wide, too_many}) {
    EXPECT_THROW(ViterbiDecoder{bad}, ConfigError);
    EXPECT_THROW(ConvEncoder{bad}, ConfigError);
  }
  too_many.generators.pop_back();
  EXPECT_NO_THROW(ViterbiDecoder{too_many});
}

}  // namespace
}  // namespace ofdm::coding

// --- soft-decision decoding -----------------------------------------------

namespace ofdm::coding {
namespace {

rvec to_llr(const bitvec& bits, double confidence) {
  rvec llr(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    llr[i] = bits[i] ? -confidence : confidence;
  }
  return llr;
}

TEST(ViterbiSoft, CleanLlrsDecodeExactly) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(48);
  const bitvec msg = rng.bits(200);
  const rvec llr = to_llr(enc.encode_terminated(msg), 4.0);
  EXPECT_EQ(dec.decode_soft_terminated(llr), msg);
}

TEST(ViterbiSoft, ConfidenceWeightingBeatsHardDecisions) {
  // Construct a case hard decisions get wrong but soft gets right:
  // several flipped bits carry tiny confidence, the rest are strong.
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(49);
  const bitvec msg = rng.bits(120);
  const bitvec coded = enc.encode_terminated(msg);

  bitvec hard = coded;
  rvec llr = to_llr(coded, 4.0);
  // Flip a dense error burst (too much for hard decisions), but mark
  // every flipped position as low-confidence.
  for (std::size_t i = 60; i < 72; ++i) {
    hard[i] ^= 1u;
    llr[i] = hard[i] ? -0.05 : 0.05;
  }
  EXPECT_NE(dec.decode_terminated(hard), msg);      // hard fails
  EXPECT_EQ(dec.decode_soft_terminated(llr), msg);  // soft recovers
}

TEST(ViterbiSoft, DepunctureSoftInsertsZeroLlrs) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(50);
  const bitvec msg = rng.bits(120);
  const PuncturePattern pat = puncture_3_4();
  const bitvec punct = puncture(enc.encode_terminated(msg), pat);
  const rvec llr =
      depuncture_soft(to_llr(punct, 2.0), pat, (msg.size() + 6) * 2);
  std::size_t zeros = 0;
  for (double l : llr) zeros += l == 0.0;
  EXPECT_EQ(zeros, (msg.size() + 6) * 2 - punct.size());
  EXPECT_EQ(dec.decode_soft_terminated(llr), msg);
}

}  // namespace
}  // namespace ofdm::coding

// --- pinned decoder outputs -----------------------------------------------
//
// Digests of decode_terminated / decode_soft_terminated over a seeded
// corpus of noisy code words: bit flips and erasures on the hard path,
// integer-rounded LLRs (many exact metric ties) on the soft path, at
// rates 1/2, 2/3 and 3/4. Any change to branch metrics, add-compare-
// select or tie-breaking (the lowest predecessor wins on equal metrics)
// moves a digest. The constants were recorded from the decoder these
// tests were introduced against; they must never be re-recorded to
// accommodate a decoder change.

namespace ofdm::coding {
namespace {

struct DigestCode {
  ConvCode code;
  std::uint64_t hard_digest;
  std::uint64_t soft_digest;
};

ConvCode make_code(unsigned k, std::vector<std::uint32_t> gens) {
  ConvCode c;
  c.constraint_length = k;
  c.generators = std::move(gens);
  return c;
}

std::vector<DigestCode> digest_codes() {
  return {
      {make_code(3, {05, 07}),  //
       0x3a390d8da81721f4ull, 0x4c6618dbc962ab60ull},
      {make_code(5, {023, 035}),  //
       0x0881937dbdf6f530ull, 0xe36495a4f1417d39ull},
      {k7_industry_code(),  //
       0xb0d4aac921deb430ull, 0xc4d700929454feb4ull},
      {make_code(9, {0561, 0753}),  //
       0x187f503f6ca486bbull, 0xd3fc43ec48a66b41ull},
  };
}

constexpr int kDigestTrials = 24;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
}

PuncturePattern digest_pattern(int trial) {
  switch (trial % 3) {
    case 0: return puncture_none();
    case 1: return puncture_2_3();
    default: return puncture_3_4();
  }
}

// Message length whose mother code word spans whole puncture periods of
// every pattern (steps divisible by 6).
std::size_t digest_msg_len(Rng& rng, unsigned k) {
  return 6 * (8 + rng.uniform_int(40)) - (k - 1);
}

// Length of a terminated message's unpunctured code word.
std::size_t mother_len(std::size_t msg_bits, const ConvCode& code) {
  return (msg_bits + code.constraint_length - 1) * code.num_outputs();
}

std::uint64_t hard_corpus_digest(const ConvCode& code) {
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(0xD1C0DE00u + code.constraint_length);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (int trial = 0; trial < kDigestTrials; ++trial) {
    const bitvec msg = rng.bits(digest_msg_len(rng, code.constraint_length));
    const PuncturePattern pat = digest_pattern(trial);
    bitvec sent = puncture(enc.encode_terminated(msg), pat);
    const double flip_p = 0.01 * (trial % 12);
    for (auto& b : sent) {
      if (rng.uniform() < flip_p) b ^= 1u;
    }
    bitvec rest = depuncture(sent, pat, mother_len(msg.size(), code));
    if (trial % 2 == 1) {
      for (auto& b : rest) {
        if (rng.uniform() < 0.15) b = kErasure;
      }
    }
    const bitvec out = dec.decode_terminated(rest);
    fnv_mix(h, out.size());
    for (std::uint8_t b : out) fnv_mix(h, b);
  }
  return h;
}

std::uint64_t soft_corpus_digest(const ConvCode& code) {
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(0x50F7C0DEu + code.constraint_length);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (int trial = 0; trial < kDigestTrials; ++trial) {
    const bitvec msg = rng.bits(digest_msg_len(rng, code.constraint_length));
    const PuncturePattern pat = digest_pattern(trial);
    const bitvec sent = puncture(enc.encode_terminated(msg), pat);
    // Small integer LLRs: coarse quantization makes equal path metrics
    // common, so the tie-breaking rule is exercised on every code word.
    const double scale = 1.0 + static_cast<double>(trial % 3);
    const double sigma = 0.3 + 0.1 * static_cast<double>(trial % 8);
    rvec llr(sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const double s = sent[i] ? -1.0 : 1.0;
      llr[i] = std::round(scale * (s + sigma * rng.gaussian()));
    }
    const rvec rest =
        depuncture_soft(llr, pat, mother_len(msg.size(), code));
    const bitvec out = dec.decode_soft_terminated(rest);
    fnv_mix(h, out.size());
    for (std::uint8_t b : out) fnv_mix(h, b);
  }
  return h;
}

TEST(ViterbiDigest, HardDecodingOutputsArePinned) {
  for (const DigestCode& c : digest_codes()) {
    EXPECT_EQ(hard_corpus_digest(c.code), c.hard_digest)
        << "K=" << c.code.constraint_length << " got 0x" << std::hex
        << hard_corpus_digest(c.code);
  }
}

TEST(ViterbiDigest, SoftDecodingOutputsArePinned) {
  for (const DigestCode& c : digest_codes()) {
    EXPECT_EQ(soft_corpus_digest(c.code), c.soft_digest)
        << "K=" << c.code.constraint_length << " got 0x" << std::hex
        << soft_corpus_digest(c.code);
  }
}

}  // namespace
}  // namespace ofdm::coding
