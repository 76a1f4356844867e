#include "coding/viterbi.hpp"

#include <bit>
#include <limits>

#include "common/error.hpp"

namespace ofdm::coding {

ViterbiDecoder::ViterbiDecoder(ConvCode code) : code_(std::move(code)) {
  validate(code_);
  const std::size_t states = code_.num_states();
  out_bits_.resize(states * 2);
  for (std::size_t ns = 0; ns < states; ++ns) {
    for (std::uint32_t p = 0; p < 2; ++p) {
      // Encoder window of the branch: input bit on top (bit K-1), the
      // predecessor state below it.
      const std::uint32_t window = (static_cast<std::uint32_t>(ns) << 1) | p;
      std::uint32_t packed = 0;
      for (std::size_t j = 0; j < code_.generators.size(); ++j) {
        packed |= static_cast<std::uint32_t>(
                      std::popcount(window & code_.generators[j]) & 1)
                  << j;
      }
      out_bits_[ns * 2 + p] = packed;
    }
  }
}

bitvec ViterbiDecoder::decode_terminated(
    std::span<const std::uint8_t> coded) const {
  // Hard symbols as LLRs. The branch metric becomes 2*hamming - n_t,
  // where n_t counts the non-erased symbols of step t and is the same on
  // every branch of the step, so every comparison and tie comes out as
  // under the Hamming metric; the small integers are exact in double.
  std::vector<double> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llr[i] = coded[i] == kErasure ? 0.0 : (coded[i] & 1u) ? -1.0 : 1.0;
  }
  return decode_soft_terminated(llr);
}

bitvec ViterbiDecoder::decode_soft_terminated(
    std::span<const double> llr) const {
  const unsigned n_out = code_.num_outputs();
  OFDM_REQUIRE_DIM(llr.size() % n_out == 0,
                   "Viterbi: LLR length not a multiple of output count");
  const std::size_t steps = llr.size() / n_out;
  const unsigned tail = code_.constraint_length - 1;
  OFDM_REQUIRE_DIM(steps >= tail, "Viterbi: code word shorter than tail");
  const std::size_t states = code_.num_states();
  const std::size_t half = states / 2;
  const std::size_t words = (states + 63) / 64;
  // States not reachable yet (the first K-1 steps) lose every
  // comparison against a reachable one.
  constexpr double kUnreached = std::numeric_limits<double>::infinity();

  std::vector<double> metric(states, kUnreached);
  std::vector<double> next(states);
  metric[0] = 0.0;  // encoders start from the zero state
  std::vector<double> bm(std::size_t{1} << n_out);
  // Bit ns of step t: 1 when predecessor ((ns << 1) & (states - 1)) | 1
  // won into state ns.
  std::vector<std::uint64_t> decisions(steps * words, 0);

  for (std::size_t t = 0; t < steps; ++t) {
    // Correlation metric per expected output pattern: expected bit 1
    // pays +llr, bit 0 pays -llr; minimizing the sum is maximum-
    // likelihood for llr = log P(0)/P(1).
    const double* l = llr.data() + t * n_out;
    for (std::size_t e = 0; e < bm.size(); ++e) {
      double sum = 0.0;
      for (unsigned j = 0; j < n_out; ++j) {
        sum += ((e >> j) & 1u) ? l[j] : -l[j];
      }
      bm[e] = sum;
    }
    std::uint64_t* decided = decisions.data() + t * words;
    // Gather-form butterfly: states j and j + half share the
    // predecessors 2j and 2j+1. The odd predecessor wins only when
    // strictly better, so ties go to the lower state.
    for (std::size_t j = 0; j < half; ++j) {
      const double m0 = metric[2 * j];
      const double m1 = metric[2 * j + 1];
      for (const std::size_t ns : {j, j + half}) {
        const double c0 = m0 + bm[out_bits_[ns * 2]];
        const double c1 = m1 + bm[out_bits_[ns * 2 + 1]];
        const bool odd = c1 < c0;
        next[ns] = odd ? c1 : c0;
        decided[ns >> 6] |= std::uint64_t{odd} << (ns & 63);
      }
    }
    metric.swap(next);
  }

  // Terminated: the tail drives the encoder back to the zero state.
  bitvec decoded(steps - tail);
  const unsigned top = code_.constraint_length - 2;
  std::size_t s = 0;
  for (std::size_t t = steps; t-- > 0;) {
    if (t < decoded.size()) decoded[t] = static_cast<std::uint8_t>(s >> top);
    const std::uint64_t odd =
        (decisions[t * words + (s >> 6)] >> (s & 63)) & 1u;
    s = ((s << 1) & (states - 1)) | odd;
  }
  return decoded;
}

}  // namespace ofdm::coding
