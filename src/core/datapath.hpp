// The per-standard datapath both link directions share.
//
// One OfdmParams decides, once, which stages a family member gets: the
// tone layout and output scale, the fixed constellation or DMT bit
// table, the bit or cell interleaver, the Reed-Solomon codec and the
// constant training section. core::Transmitter and rx::MotherReceiver
// each own one by value and add only their own direction's parts:
// Modulator, ConvEncoder, PilotGenerator and DifferentialMapper on the
// transmit side; FFT, equalizer, ViterbiDecoder and the LTF timing
// template on the receive side. The RT-level VHDL generator reads its
// interleaver and mapper ROMs from the same object.
#pragma once

#include <optional>

#include "coding/interleaver.hpp"
#include "coding/reed_solomon.hpp"
#include "core/params.hpp"
#include "mapping/bitloading.hpp"
#include "mapping/constellation.hpp"

namespace ofdm::core {

struct Datapath {
  /// Validates `p` (throws ofdm::ConfigError) and builds every shared
  /// stage it selects.
  explicit Datapath(const OfdmParams& p);

  /// Max-log LLR demapping and soft Viterbi apply to a fixed
  /// constellation under an inner convolutional code.
  static bool soft_capable(const OfdmParams& p);

  ToneLayout layout;
  std::size_t cbps = 0;    ///< coded bits per OFDM symbol
  /// Scale of the 1/N-normalized IFFT output for unit average power;
  /// the receiver divides its FFT output by it.
  double tone_scale = 1.0;

  std::optional<mapping::Constellation> constellation;  ///< kFixed
  std::optional<mapping::DmtMapper> dmt;                ///< kBitTable
  std::optional<coding::PermutationInterleaver> bit_interleaver;
  std::optional<coding::PermutationInterleaver> cell_interleaver;
  std::optional<coding::ReedSolomon> rs;

  // Constant training section.
  std::size_t preamble_len = 0;  ///< samples between null and payload
  cvec wlan_preamble;  ///< the 320 STF + LTF samples (kWlan)
  cvec ltf_bins;       ///< LTF tone values, natural order (kWlan)
  cvec ref_values;     ///< phase-reference data tones (kPhaseReference)
};

}  // namespace ofdm::core
