#include "core/datapath.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/preamble.hpp"

namespace ofdm::core {

Datapath::Datapath(const OfdmParams& p) {
  validate(p);
  layout = make_tone_layout(p);
  cbps = coded_bits_per_symbol(p);

  // Unit average output power: the 1/N-scaled IFFT of a spectrum with
  // n_used unit-power tones has average power n_used/N^2.
  std::size_t used = layout.used_tones();
  if (p.hermitian) used *= 2;  // mirrored half carries equal power
  OFDM_REQUIRE(used > 0, "Datapath: no used tones");
  tone_scale = static_cast<double>(p.fft_size) /
               std::sqrt(static_cast<double>(used));

  switch (p.mapping) {
    case MappingKind::kFixed:
      constellation = mapping::Constellation::make(p.scheme);
      break;
    case MappingKind::kDifferential:
      break;  // per-burst state: each direction seeds its own
    case MappingKind::kBitTable:
      dmt.emplace(p.bit_table);
      break;
  }

  switch (p.interleaver.kind) {
    case InterleaverKind::kNone:
      break;
    case InterleaverKind::kWlan:
      bit_interleaver = coding::make_wlan_interleaver(
          cbps, mapping::bits_per_symbol(p.scheme));
      break;
    case InterleaverKind::kBlock:
      bit_interleaver = coding::make_block_interleaver(
          p.interleaver.rows, cbps / p.interleaver.rows);
      break;
    case InterleaverKind::kCell:
      cell_interleaver = coding::make_random_interleaver(
          layout.data_bins.size(), p.interleaver.seed);
      break;
  }

  if (p.fec.rs_enabled) rs.emplace(p.fec.rs_n, p.fec.rs_k);

  switch (p.frame.preamble) {
    case PreambleKind::kNone:
      break;
    case PreambleKind::kWlan:
      wlan_preamble = core::wlan_preamble(p);
      ltf_bins = wlan_ltf_bins();
      preamble_len = wlan_preamble.size();
      break;
    case PreambleKind::kPhaseReference:
      ref_values = phase_reference_values(p, layout.data_bins.size());
      preamble_len = p.symbol_len();
      break;
  }
}

bool Datapath::soft_capable(const OfdmParams& p) {
  return p.fec.conv_enabled && p.mapping == MappingKind::kFixed;
}

}  // namespace ofdm::core
