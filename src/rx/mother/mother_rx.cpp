#include "rx/mother/mother_rx.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "coding/lfsr.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/pilots.hpp"

namespace ofdm::rx {

using core::MappingKind;
using core::OfdmParams;
using core::PreambleKind;

std::string rx_mode_name(RxMode m) {
  switch (m) {
    case RxMode::kCoded: return "coded";
    case RxMode::kUncoded: return "uncoded";
  }
  return "?";
}

std::optional<RxMode> rx_mode_from_name(std::string_view name) {
  if (name == "coded") return RxMode::kCoded;
  if (name == "uncoded") return RxMode::kUncoded;
  return std::nullopt;
}

MotherReceiver::MotherReceiver(core::OfdmParams params, RxOptions options)
    : params_(std::move(params)),
      options_(options),
      dp_(params_),
      fft_(params_.fft_size) {
  if (params_.fec.conv_enabled) viterbi_.emplace(params_.fec.conv);
  if (params_.frame.preamble == PreambleKind::kWlan) {
    // Fine-timing template: the LTF time symbol, conjugated for the
    // cross-correlation in synchronize(). Its scale does not move the
    // correlation peak.
    ltf_ref_ = fft_.inverse(dp_.ltf_bins);
    for (cplx& v : ltf_ref_) v = std::conj(v);
  }
}

void MotherReceiver::set_equalizer(cvec per_bin) {
  OFDM_REQUIRE_DIM(per_bin.size() == params_.fft_size,
                   "MotherReceiver::set_equalizer: one coefficient per bin");
  equalizer_ = std::move(per_bin);
}

void MotherReceiver::set_noise_floor(double tone_noise_var) {
  OFDM_REQUIRE(tone_noise_var > 0.0,
               "MotherReceiver::set_noise_floor: variance must be positive");
  noise_floor_ = tone_noise_var;
}

void MotherReceiver::set_noise_from_sample_variance(double sigma2) {
  OFDM_REQUIRE(sigma2 >= 0.0,
               "MotherReceiver::set_noise_from_sample_variance: "
               "variance must be non-negative");
  // An unnormalized N-point forward FFT of white noise with per-sample
  // variance sigma2 has per-bin variance N*sigma2; the demodulator then
  // divides by the tone scale s, so the tone-domain floor is N*sigma2/s^2.
  const double n = static_cast<double>(params_.fft_size);
  const double floor = n * sigma2 / (dp_.tone_scale * dp_.tone_scale);
  noise_floor_ = std::max(floor, 1e-12);
}

bool MotherReceiver::soft_path_active() const {
  return options_.demap == mapping::DemapMode::kSoft &&
         options_.mode == RxMode::kCoded &&
         core::Datapath::soft_capable(params_);
}

std::size_t MotherReceiver::payload_offset() const {
  return params_.frame.null_samples + dp_.preamble_len;
}

// FFT window of the symbol starting at `offset`, descaled and (when
// `equalized`) multiplied by the installed one-tap equalizer.
cvec MotherReceiver::demod_bins(std::span<const cplx> burst,
                                std::size_t offset, bool equalized) const {
  const OfdmParams& p = params_;
  const std::size_t n = p.fft_size;
  const std::size_t cp = p.cp_len;
  OFDM_REQUIRE_DIM(offset + cp + n <= burst.size(),
                   "MotherReceiver: burst shorter than expected");
  const std::span<const cplx> window = burst.subspan(offset + cp, n);
  cvec bins(n);
  if (p.hermitian) {
    // Real-baseband standards (DMT/powerline) keep the imaginary lanes
    // bitwise 0.0 through loopback and real-only channels, where the
    // half-size real-input plan kind does the same transform at ~N/2
    // cost. The check must be exact — forward_real discards imaginary
    // parts — so any complex impairment (CFO, fading) falls back to the
    // full complex FFT.
    bool exactly_real = true;
    for (const cplx& v : window) {
      if (v.imag() != 0.0) {
        exactly_real = false;
        break;
      }
    }
    if (exactly_real) {
      fft_.forward_real(window, bins);
    } else {
      fft_.forward(window, bins);
    }
  } else {
    fft_.forward(window, bins);
  }
  const double inv = 1.0 / dp_.tone_scale;
  for (cplx& v : bins) v *= inv;
  if (equalized && !equalizer_.empty()) {
    for (std::size_t i = 0; i < bins.size(); ++i) bins[i] *= equalizer_[i];
  }
  return bins;
}

// Common phase error from the pilots of one demodulated symbol:
// returns the unit rotor that re-aligns the data tones.
cplx MotherReceiver::pilot_rotor(const cvec& bins,
                                 const cvec& expected) const {
  cplx acc{0.0, 0.0};
  const std::vector<std::size_t>& pilot_bins = dp_.layout.pilot_bins;
  for (std::size_t i = 0; i < pilot_bins.size(); ++i) {
    acc += bins[pilot_bins[i]] * std::conj(expected[i]);
  }
  const double mag = std::abs(acc);
  if (mag < 1e-12) return cplx{1.0, 0.0};
  return std::conj(acc / mag);
}

// Data cells of one symbol: pilot derotation, data-bin gather, cell
// deinterleave.
void MotherReceiver::extract_symbol(const cvec& bins,
                                    const cvec& expected_pilots,
                                    cvec& data) const {
  const cplx rotor = options_.pilot_tracking
                         ? pilot_rotor(bins, expected_pilots)
                         : cplx{1.0, 0.0};
  data.resize(dp_.layout.data_bins.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = bins[dp_.layout.data_bins[i]] * rotor;
  }
  if (dp_.cell_interleaver) {
    data = dp_.cell_interleaver->deinterleave(std::span<const cplx>(data));
  }
}

// Max-log LLRs for one symbol's data cells, weighted by the per-tone
// noise after equalization: a one-tap equalizer multiplies tone k's
// noise variance by |eq_k|^2, so confident-looking bins on
// enhanced-noise tones must be de-weighted. The whole symbol goes
// through the SIMD demap_soft kernel in one batch.
void MotherReceiver::soft_demap_symbol(const cvec& data,
                                       rvec& noise_scratch,
                                       rvec& llr_out) const {
  noise_scratch.resize(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    double noise_var = noise_floor_;
    if (!equalizer_.empty()) {
      // Cell interleaving permutes tones; index the equalizer through
      // the same permutation the data went through.
      const std::size_t tone =
          dp_.cell_interleaver ? dp_.cell_interleaver->mapping()[i] : i;
      noise_var *= std::norm(equalizer_[dp_.layout.data_bins[tone]]);
    }
    noise_scratch[i] = std::max(noise_var, 1e-12);
  }
  dp_.constellation->demap_soft_into(data, noise_scratch, llr_out);
}

cvec MotherReceiver::estimate_equalizer(std::span<const cplx> burst) const {
  const OfdmParams& p = params_;
  cvec eq(p.fft_size, cplx{1.0, 0.0});

  switch (p.frame.preamble) {
    case PreambleKind::kNone:
      return eq;
    case PreambleKind::kWlan: {
      // Average both long training symbols (T1 at 192, T2 at 256 into
      // the burst) for a 3 dB better estimate. No CP handling: the LTF
      // symbols are plain 64-sample repetitions.
      const std::size_t t1 = p.frame.null_samples + 160 + 32;
      OFDM_REQUIRE_DIM(t1 + 128 <= burst.size(),
                       "estimate_equalizer: burst too short for LTF");
      // core::validate guarantees the 64-point geometry, so fft_ fits.
      const cvec r1 = fft_.forward(burst.subspan(t1, 64));
      const cvec r2 = fft_.forward(burst.subspan(t1 + 64, 64));
      const cvec& known = dp_.ltf_bins;
      for (std::size_t bin = 0; bin < 64; ++bin) {
        const cplx avg = (r1[bin] + r2[bin]) / (2.0 * dp_.tone_scale);
        if (std::abs(known[bin]) > 0.0 && std::abs(avg) > 1e-12) {
          eq[bin] = known[bin] / avg;
        }
      }
      return eq;
    }
    case PreambleKind::kPhaseReference: {
      const std::size_t off = p.frame.null_samples;
      const cvec rx = demod_bins(burst, off, /*equalized=*/false);
      const core::ToneLayout& layout = dp_.layout;
      for (std::size_t i = 0; i < layout.data_bins.size(); ++i) {
        const std::size_t bin = layout.data_bins[i];
        if (std::abs(rx[bin]) > 1e-12) eq[bin] = dp_.ref_values[i] / rx[bin];
      }
      for (std::size_t i = 0; i < layout.pilot_bins.size(); ++i) {
        const std::size_t bin = layout.pilot_bins[i];
        if (std::abs(rx[bin]) > 1e-12) {
          eq[bin] = p.pilots.base_values[i] / rx[bin];
        }
      }
      return eq;
    }
  }
  return eq;
}

SyncReport MotherReceiver::synchronize(std::span<const cplx> stream,
                                       double sample_rate) const {
  const OfdmParams& p = params_;
  SyncReport report;
  if (p.frame.preamble == PreambleKind::kWlan) {
    // Schmidl&Cox plateau on the STF's 16-sample periodicity, then the
    // coarse CFO from its phase (+-625 kHz range).
    const auto plateau = detect_stf_plateau(stream);
    if (!plateau) return report;  // no plateau: metric stays 0
    const std::size_t stf = plateau->start;
    // T1 nominally starts 192 samples after the STF start; search +-24
    // around it. The window covers every candidate T1 plus T2.
    constexpr std::size_t kT1 = 192;
    constexpr std::size_t kSearch = 24;
    constexpr std::size_t kLtf = 64;
    constexpr std::size_t kWindow = 2 * kSearch + 2 * kLtf;
    const std::size_t lo = stf + kT1 - kSearch;
    if (lo + kWindow > stream.size()) return report;  // LTF cut off
    const double coarse = estimate_cfo(stream, stf + 16, 16, 96, sample_rate);

    // Coarse-correct only the window, then fine timing by LTF
    // cross-correlation. Under multipath the strongest peak can be a
    // delayed path, which would push the FFT window past the CP, so
    // lock on the first candidate within 10 dB of the peak: 4 dB above
    // the LTF's cyclic-autocorrelation sidelobes (~-14 dB), and wide
    // enough that sui_3's 0.9 us echo, 18 samples late (2 past the CP),
    // does not win when fading leaves the direct path 6-10 dB below it.
    std::array<cplx, kWindow> win;
    derotate(stream.subspan(lo, kWindow), coarse, sample_rate, win);
    // Spelled out in real arithmetic: std::complex's multiply adds a
    // NaN-recovery branch that made this loop the larger part of the
    // WLAN sync time.
    std::array<double, 2 * kSearch + 1> power;
    for (std::size_t d = 0; d < power.size(); ++d) {
      double re = 0.0;
      double im = 0.0;
      for (std::size_t i = 0; i < kLtf; ++i) {
        const cplx a = win[d + i];
        const cplx b = ltf_ref_[i];
        re += a.real() * b.real() - a.imag() * b.imag();
        im += a.real() * b.imag() + a.imag() * b.real();
      }
      power[d] = re * re + im * im;
    }
    const double peak = *std::max_element(power.begin(), power.end());
    std::size_t best = 0;
    while (power[best] < 0.1 * peak) ++best;
    // A stream that starts inside the STF puts the burst start before
    // sample 0: no lock rather than a wrapped offset.
    const std::size_t t1 = lo + best;
    if (t1 < kT1 + p.frame.null_samples) return report;
    // T1/T2 repetition check. A stream that starts 36-50 samples into
    // the STF misplaces the plateau, and the search lands on T2 or on
    // an LTF sidelobe; only a true T1 repeats 64 samples later. Lock
    // only if the normalized correlation of the two blocks is within
    // 6 dB of a perfect repeat (multipath keeps both blocks periodic).
    cplx rep{0.0, 0.0};
    double e1 = 0.0;
    double e2 = 0.0;
    for (std::size_t i = 0; i < kLtf; ++i) {
      const cplx a = win[best + i];
      const cplx b = win[best + kLtf + i];
      rep += a * std::conj(b);
      e1 += std::norm(a);
      e2 += std::norm(b);
    }
    if (std::norm(rep) < 0.25 * e1 * e2) return report;

    // Fine CFO from the two repeated long symbols (+-156 kHz range).
    const double fine =
        estimate_cfo(std::span<const cplx>(win), best, kLtf, kLtf,
                     sample_rate);
    report.used_preamble = true;
    report.metric = plateau->metric;
    report.offset = t1 - kT1 - p.frame.null_samples;
    report.cfo_hz = coarse + fine;
    return report;
  }
  // Everywhere else: cyclic-prefix correlation, which locks the global
  // maximum of the CP metric. On a clean burst every symbol boundary
  // scores 1.0 and rounding-level ties keep the earliest, so it locks the
  // first (preamble or payload) OFDM symbol; null guard samples carry no
  // CP energy, so they never win. Under noise the maximum falls on an
  // arbitrary symbol boundary, so the offset is symbol timing, not frame
  // timing.
  if (p.cp_len == 0 ||
      stream.size() < p.fft_size + p.cp_len) {
    return report;
  }
  const TimingEstimate t =
      cp_timing(stream, p.fft_size, p.cp_len, sample_rate);
  report.metric = t.metric;
  report.cfo_hz = t.cfo_hz;
  report.offset = t.offset >= p.frame.null_samples
                      ? t.offset - p.frame.null_samples
                      : 0;
  return report;
}

std::vector<cvec> MotherReceiver::extract_data_tones(
    std::span<const cplx> burst, std::size_t n_symbols) const {
  std::vector<cvec> out;
  out.reserve(n_symbols);
  core::PilotGenerator pilots(params_.pilots, dp_.layout.pilot_bins.size());
  std::size_t offset = payload_offset();
  for (std::size_t sym = 0; sym < n_symbols; ++sym) {
    const cvec bins = demod_bins(burst, offset, /*equalized=*/true);
    cvec data;
    extract_symbol(bins, pilots.next_symbol(), data);
    out.push_back(std::move(data));
    offset += params_.symbol_len();
  }
  return out;
}

MotherReceiver::Result MotherReceiver::demodulate(
    std::span<const cplx> burst, std::size_t payload_bits) const {
  const OfdmParams& p = params_;
  const core::ChainLengths len = core::chain_lengths(p, payload_bits);
  const std::size_t min_syms = p.frame.symbols_per_frame;
  const std::size_t cbps = dp_.cbps;
  const std::size_t n_symbols =
      std::max(min_syms, (len.punctured_bits + cbps - 1) / cbps);

  Result result;
  result.symbols = n_symbols;

  // Differential demapper seeded from the *received* phase reference so
  // a static channel phase cancels out.
  const core::ToneLayout& layout = dp_.layout;
  std::optional<mapping::DifferentialMapper> diff;
  if (p.mapping == MappingKind::kDifferential) {
    diff.emplace(p.diff_kind, layout.data_bins.size());
    const std::size_t ref_off = p.frame.null_samples;
    const cvec bins = demod_bins(burst, ref_off, /*equalized=*/true);
    cvec ref(layout.data_bins.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ref[i] = bins[layout.data_bins[i]];
    }
    diff->reset(ref);
  }

  // 1. Tones -> coded bits (or LLRs on the soft path).
  const bool soft = soft_path_active();
  bitvec coded;
  rvec soft_coded;
  coded.reserve(soft ? 0 : n_symbols * cbps);
  if (soft) soft_coded.reserve(n_symbols * cbps);
  core::PilotGenerator pilots(p.pilots, layout.pilot_bins.size());
  std::size_t offset = payload_offset();
  cvec data;
  rvec noise_scratch;
  rvec sym_llr;
  for (std::size_t sym = 0; sym < n_symbols; ++sym) {
    const cvec bins = demod_bins(burst, offset, /*equalized=*/true);
    extract_symbol(bins, pilots.next_symbol(), data);

    if (soft) {
      soft_demap_symbol(data, noise_scratch, sym_llr);
      if (dp_.bit_interleaver) {
        sym_llr = dp_.bit_interleaver->deinterleave(
            std::span<const double>(sym_llr));
      }
      soft_coded.insert(soft_coded.end(), sym_llr.begin(),
                        sym_llr.end());
      offset += p.symbol_len();
      continue;
    }

    bitvec sym_bits;
    switch (p.mapping) {
      case MappingKind::kFixed:
        sym_bits = dp_.constellation->demap_all(data);
        break;
      case MappingKind::kDifferential:
        sym_bits = diff->demap_symbol(data);
        break;
      case MappingKind::kBitTable:
        sym_bits = dp_.dmt->demap_symbol(data);
        break;
    }
    if (dp_.bit_interleaver) {
      sym_bits = dp_.bit_interleaver->deinterleave(
          std::span<const std::uint8_t>(sym_bits));
    }
    coded.insert(coded.end(), sym_bits.begin(), sym_bits.end());
    offset += p.symbol_len();
  }

  // Uncoded mode measures the raw channel: the pre-FEC coded stream
  // (symbol padding included) against Transmitter::encode_payload.
  if (options_.mode == RxMode::kUncoded) {
    result.raw_bits = std::move(coded);
    return result;
  }

  // 2. Inner code.
  bitvec bits;
  if (soft) {
    soft_coded.resize(len.punctured_bits);  // drop symbol padding
    const rvec mother = coding::depuncture_soft(
        soft_coded, p.fec.puncture, len.mother_bits);
    bits = viterbi_->decode_soft_terminated(mother);
  } else if (p.fec.conv_enabled) {
    coded.resize(len.punctured_bits);
    const bitvec mother =
        coding::depuncture(coded, p.fec.puncture, len.mother_bits);
    bits = viterbi_->decode_terminated(mother);
  } else {
    coded.resize(len.punctured_bits);
    bits = std::move(coded);
  }
  bits.resize(len.rs_out_bits);

  // 3. Outer code.
  if (const auto& rs = dp_.rs) {
    const bytevec rx_bytes = bits_to_bytes_msb(bits);
    bytevec message;
    message.reserve(rx_bytes.size() / rs->n() * rs->k());
    for (std::size_t off = 0; off < rx_bytes.size(); off += rs->n()) {
      const auto block = std::span<const std::uint8_t>(rx_bytes)
                             .subspan(off, rs->n());
      auto decoded = rs->decode(block);
      if (!decoded.success) {
        ++result.rs_blocks_failed;
        // Fall back to the systematic part.
        decoded.message.assign(block.begin(),
                               block.begin() + static_cast<std::ptrdiff_t>(
                                                   rs->k()));
      }
      message.insert(message.end(), decoded.message.begin(),
                     decoded.message.end());
    }
    bits = bytes_to_bits_msb(message);
  }
  bits.resize(payload_bits);

  // 4. Descramble.
  if (p.scrambler.enabled) {
    coding::Scrambler scr(p.scrambler.degree, p.scrambler.taps,
                          p.scrambler.seed);
    bits = scr.process(bits);
  }
  result.payload = std::move(bits);
  return result;
}

}  // namespace ofdm::rx
