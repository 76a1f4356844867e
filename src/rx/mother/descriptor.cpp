#include "rx/mother/descriptor.hpp"

#include <sstream>

#include "core/datapath.hpp"

namespace ofdm::rx {

using core::OfdmParams;

namespace {

std::string diff_kind_name(mapping::DiffKind k) {
  switch (k) {
    case mapping::DiffKind::kDbpsk: return "DBPSK";
    case mapping::DiffKind::kDqpsk: return "DQPSK";
    case mapping::DiffKind::kPi4Dqpsk: return "pi/4-DQPSK";
  }
  return "?";
}

std::string demapper_name(const OfdmParams& p) {
  switch (p.mapping) {
    case core::MappingKind::kFixed:
      return "fixed " + mapping::scheme_name(p.scheme);
    case core::MappingKind::kDifferential:
      return "differential " + diff_kind_name(p.diff_kind);
    case core::MappingKind::kBitTable:
      return "bit-table DMT";
  }
  return "?";
}

std::string interleaver_name(const OfdmParams& p,
                             std::size_t cbps) {
  std::ostringstream os;
  switch (p.interleaver.kind) {
    case core::InterleaverKind::kNone:
      return "none";
    case core::InterleaverKind::kWlan:
      os << "wlan(" << cbps << ")";
      return os.str();
    case core::InterleaverKind::kBlock:
      os << "block " << p.interleaver.rows << "x"
         << cbps / p.interleaver.rows;
      return os.str();
    case core::InterleaverKind::kCell:
      return "cell";
  }
  return "?";
}

std::string inner_code_name(const OfdmParams& p) {
  if (!p.fec.conv_enabled) return "none";
  std::ostringstream os;
  os << "conv K=" << p.fec.conv.constraint_length << " R=";
  const auto& pat = p.fec.puncture;
  const std::size_t streams = p.fec.conv.generators.size();
  if (pat.period() == 0 ||
      pat.kept_per_period() == pat.period() * streams) {
    os << "1/" << streams;
  } else {
    os << pat.period() << "/" << pat.kept_per_period();
  }
  return os.str();
}

std::string outer_code_name(const OfdmParams& p) {
  if (!p.fec.rs_enabled) return "none";
  std::ostringstream os;
  os << "RS(" << p.fec.rs_n << "," << p.fec.rs_k << ")";
  return os.str();
}

}  // namespace

RxDescriptor describe_receiver(const OfdmParams& params) {
  RxDescriptor d;
  switch (params.frame.preamble) {
    case core::PreambleKind::kNone:
      d.sync = params.cp_len > 0 ? "cp-correlation" : "none";
      d.equalizer = "none";
      break;
    case core::PreambleKind::kWlan:
      d.sync = "stf-ltf";
      d.equalizer = "ltf-average";
      break;
    case core::PreambleKind::kPhaseReference:
      d.sync = params.cp_len > 0 ? "cp-correlation" : "none";
      d.equalizer = "phase-reference";
      break;
  }
  const std::size_t cbps = core::coded_bits_per_symbol(params);
  d.demapper = demapper_name(params);
  d.interleaver = interleaver_name(params, cbps);
  d.inner_code = inner_code_name(params);
  d.outer_code = outer_code_name(params);
  d.soft_capable = core::Datapath::soft_capable(params);

  std::ostringstream chain;
  chain << "sync[" << d.sync << "] -> cp-strip -> fft("
        << params.fft_size << ") -> eq[" << d.equalizer << "] -> demap["
        << d.demapper << "]";
  if (d.interleaver != "none") {
    chain << " -> deintlv[" << d.interleaver << "]";
  }
  if (d.inner_code != "none") {
    chain << " -> viterbi[" << d.inner_code
          << (d.soft_capable ? ", soft-capable]" : "]");
  }
  if (d.outer_code != "none") chain << " -> rs[" << d.outer_code << "]";
  if (params.scrambler.enabled) chain << " -> descramble";
  d.chain = chain.str();
  return d;
}

}  // namespace ofdm::rx
