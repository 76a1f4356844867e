// Viterbi decoder for the convolutional codes in coding/convolutional.hpp:
// one add-compare-select core serves hard- and soft-decision input. Used
// by the RX Mother Model to close the TX->RX loop and by the BER
// experiments.
#pragma once

#include <span>

#include "coding/convolutional.hpp"
#include "common/types.hpp"

namespace ofdm::coding {

/// Maximum-likelihood sequence decoder for terminated code words.
///
/// Hard input symbols are 0, 1 or kErasure (from depuncture()); they
/// enter the soft core as the LLRs +1, -1 and 0, so erasures contribute
/// nothing to any branch metric and the decisions equal those of a
/// Hamming-metric decoder. On equal path metrics the lower-numbered
/// predecessor state wins.
class ViterbiDecoder {
 public:
  /// Throws ConfigError unless coding::validate(code) accepts the code.
  explicit ViterbiDecoder(ConvCode code);

  /// Decode a hard-decision terminated code word (encoder used
  /// encode_terminated()): ends in the zero state and strips the (K-1)
  /// tail bits.
  bitvec decode_terminated(std::span<const std::uint8_t> coded) const;

  /// Soft-decision decoding from LLRs (convention: llr > 0 => coded bit
  /// 0 more likely; llr == 0 == erasure). Terminated code words.
  /// Typically worth ~2 dB over hard decisions on an AWGN channel.
  bitvec decode_soft_terminated(std::span<const double> llr) const;

  const ConvCode& code() const { return code_; }

 private:
  ConvCode code_;
  // Expected output bits (bit j from generator j) of the branch into
  // state ns from predecessor ((ns << 1) & (states - 1)) | p, at
  // [ns * 2 + p].
  std::vector<std::uint32_t> out_bits_;
};

}  // namespace ofdm::coding
