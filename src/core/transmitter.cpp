#include "core/transmitter.hpp"

#include <algorithm>

#include "coding/convolutional.hpp"
#include "coding/lfsr.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/datapath.hpp"
#include "core/modulator.hpp"
#include "core/pilots.hpp"
#include "mapping/differential.hpp"
#include "obs/trace.hpp"

namespace ofdm::core {

// The shared datapath plus the transmit-only stages.
struct Transmitter::State {
  explicit State(OfdmParams p)
      : params(std::move(p)),
        dp(params),
        modulator(params, dp),
        pilots(params.pilots, dp.layout.pilot_bins.size()) {
    if (params.mapping == MappingKind::kDifferential) {
      diff.emplace(params.diff_kind, dp.layout.data_bins.size());
    }
    if (params.fec.conv_enabled) conv.emplace(params.fec.conv);
  }

  OfdmParams params;
  Datapath dp;
  Modulator modulator;
  PilotGenerator pilots;
  std::optional<mapping::DifferentialMapper> diff;
  std::optional<coding::ConvEncoder> conv;
  cvec data_scratch;  ///< per-symbol tone values, reused across bursts
};

Transmitter::Transmitter() = default;
Transmitter::~Transmitter() = default;
Transmitter::Transmitter(Transmitter&&) noexcept = default;
Transmitter& Transmitter::operator=(Transmitter&&) noexcept = default;

Transmitter::Transmitter(OfdmParams params) { configure(std::move(params)); }

void Transmitter::configure(OfdmParams params) {
  // Commit only after everything succeeded.
  state_ = std::make_unique<State>(std::move(params));
}

bool Transmitter::configured() const { return state_ != nullptr; }

namespace {
const char* kUnconfigured = "Transmitter: configure() first";
}

const OfdmParams& Transmitter::params() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->params;
}

const ToneLayout& Transmitter::layout() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->dp.layout;
}

double Transmitter::tone_scale() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->dp.tone_scale;
}

std::size_t Transmitter::bits_per_symbol() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->dp.cbps;
}

std::size_t Transmitter::coded_length(std::size_t payload_bits) const {
  OFDM_REQUIRE(state_, kUnconfigured);
  const std::size_t bits =
      chain_lengths(state_->params, payload_bits).punctured_bits;
  // Pad to whole symbols, at least the configured frame length.
  const std::size_t cbps = state_->dp.cbps;
  const std::size_t min_syms = state_->params.frame.symbols_per_frame;
  const std::size_t syms = std::max(min_syms, (bits + cbps - 1) / cbps);
  return syms * cbps;
}

std::size_t Transmitter::recommended_payload_bits() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  const std::size_t capacity =
      state_->params.frame.symbols_per_frame * state_->dp.cbps;
  // coded_length() is monotone in the payload size; find the largest
  // payload that still fits the configured frame.
  std::size_t lo = 0;
  std::size_t hi = capacity;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (coded_length(mid) <= capacity) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

bitvec Transmitter::encode_payload(
    std::span<const std::uint8_t> payload_bits) const {
  OFDM_REQUIRE(state_, kUnconfigured);
  const OfdmParams& p = state_->params;
  bitvec bits(payload_bits.begin(), payload_bits.end());

  if (p.scrambler.enabled) {
    coding::Scrambler scr(p.scrambler.degree, p.scrambler.taps,
                          p.scrambler.seed);
    bits = scr.process(bits);
  }

  // Filler PRBS: frame padding (RS block fill and whole-symbol fill)
  // carries pseudo-random bits, not zeros — a run of zero bits would map
  // to constellation corner points and skew the transmit power, whereas
  // the real standards keep padding energy-dispersed. The receiver
  // truncates the padding away, so the exact sequence only needs to be
  // deterministic.
  coding::Lfsr filler(15, (std::uint64_t{1} << 14) | 1u, 0x2A2A);

  const std::optional<coding::ReedSolomon>& rs = state_->dp.rs;
  if (rs) {
    while (bits.size() % 8 != 0) bits.push_back(filler.step());
    bytevec bytes = bits_to_bytes_msb(bits);
    const std::size_t k = rs->k();
    const std::size_t blocks =
        std::max<std::size_t>((bytes.size() + k - 1) / k, 1);
    while (bytes.size() < blocks * k) {
      std::uint8_t b = 0;
      for (int i = 0; i < 8; ++i) {
        b = static_cast<std::uint8_t>((b << 1) | filler.step());
      }
      bytes.push_back(b);
    }
    bytevec coded_bytes;
    coded_bytes.reserve(bytes.size() / k * rs->n());
    for (std::size_t off = 0; off < bytes.size(); off += k) {
      const bytevec block = rs->encode(
          std::span<const std::uint8_t>(bytes).subspan(off, k));
      coded_bytes.insert(coded_bytes.end(), block.begin(), block.end());
    }
    bits = bytes_to_bits_msb(coded_bytes);
  }

  if (state_->conv) {
    bits = coding::puncture(state_->conv->encode_terminated(bits),
                            p.fec.puncture);
  }

  const std::size_t target = coded_length(payload_bits.size());
  OFDM_REQUIRE(bits.size() <= target,
               "Transmitter: internal coded-length mismatch");
  while (bits.size() < target) bits.push_back(filler.step());
  return bits;
}

cvec Transmitter::preamble_samples() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  const State& s = *state_;
  if (s.params.frame.preamble != PreambleKind::kPhaseReference) {
    return s.dp.wlan_preamble;  // empty without a preamble
  }
  // The reference symbol as a fresh burst emits it: no window tail
  // ahead of it.
  Modulator mod(s.params, s.dp);
  cvec out;
  mod.modulate_symbol(s.dp.ref_values, s.params.pilots.base_values, out);
  return out;
}

Transmitter::Burst Transmitter::modulate(
    std::span<const std::uint8_t> payload_bits) {
  Burst burst;
  modulate_into(payload_bits, burst);
  return burst;
}

void Transmitter::modulate_into(std::span<const std::uint8_t> payload_bits,
                                Burst& burst) {
  OFDM_REQUIRE(state_, kUnconfigured);
  obs::ScopedSpan span("Transmitter::modulate");
  State& s = *state_;
  const OfdmParams& p = s.params;

  burst.samples.clear();  // keeps capacity for burst reuse
  burst.payload_bits = payload_bits.size();
  burst.null_samples = 0;

  const Datapath& dp = s.dp;
  const bitvec coded = encode_payload(payload_bits);
  burst.coded_bits = coded.size();
  burst.data_symbols = coded.size() / dp.cbps;

  s.modulator.reset();
  s.pilots.reset();

  cvec& out = burst.samples;
  out.reserve(p.frame.null_samples +
              (burst.data_symbols + 2) * p.symbol_len());

  // 1. Null symbol (DAB-style leading silence).
  if (p.frame.null_samples > 0) {
    s.modulator.emit_silence(p.frame.null_samples, out);
    burst.null_samples = p.frame.null_samples;
  }

  // 2. Preamble / phase reference, from the datapath's cached section.
  // The reference symbol goes through the modulator so its window tail
  // overlaps the first payload symbol.
  switch (p.frame.preamble) {
    case PreambleKind::kNone:
      break;
    case PreambleKind::kWlan:
      s.modulator.emit_raw(dp.wlan_preamble, out);
      break;
    case PreambleKind::kPhaseReference:
      s.modulator.modulate_symbol(dp.ref_values, p.pilots.base_values, out);
      if (s.diff) s.diff->reset(dp.ref_values);
      break;
  }
  burst.preamble_samples = dp.preamble_len;

  // 3. Payload symbols, in order: differential mapping, the pilot PRBS
  // and the window overlap-add carry state from symbol to symbol.
  cvec& mapped = s.data_scratch;
  for (std::size_t sym = 0; sym < burst.data_symbols; ++sym) {
    const auto sym_bits = std::span<const std::uint8_t>(coded).subspan(
        sym * dp.cbps, dp.cbps);

    // Per-symbol bit interleaving.
    bitvec permuted;
    std::span<const std::uint8_t> mapped_bits = sym_bits;
    if (dp.bit_interleaver) {
      permuted = dp.bit_interleaver->interleave(sym_bits);
      mapped_bits = permuted;
    }

    // Bits -> tone values.
    switch (p.mapping) {
      case MappingKind::kFixed:
        dp.constellation->map_into(mapped_bits, mapped);
        break;
      case MappingKind::kDifferential:
        mapped = s.diff->map_symbol(mapped_bits);
        break;
      case MappingKind::kBitTable:
        mapped = dp.dmt->map_symbol(mapped_bits);
        break;
    }

    // Cell interleaving permutes mapped values across the data tones.
    if (dp.cell_interleaver) {
      mapped = dp.cell_interleaver->interleave(std::span<const cplx>(mapped));
    }
    s.modulator.modulate_symbol(mapped, s.pilots.next_symbol(), out);
  }

  s.modulator.flush(out);
}

}  // namespace ofdm::core
