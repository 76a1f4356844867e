// Burst synchronization utilities: cyclic-prefix correlation for symbol
// timing and fractional carrier-frequency-offset estimation, the
// Schmidl&Cox-style plateau metric for the 802.11a short training field,
// and CFO derotation.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "common/types.hpp"

namespace ofdm::rx {

struct TimingEstimate {
  std::size_t offset = 0;  ///< estimated start of the OFDM symbol
  double metric = 0.0;     ///< normalized correlation peak in [0, 1]
  double cfo_hz = 0.0;     ///< fractional CFO estimate
};

/// Slide a CP correlator over `samples` and return the best symbol-start
/// hypothesis: the window of `cp_len` samples whose normalized
/// correlation with the one `fft_size` later is largest. O(1) per lag
/// (running sums). Ties up to a relative 1e-12 keep the earliest lag, so
/// a clean stream locks its first symbol boundary. `sample_rate` only
/// scales the CFO estimate; `cp_len` 0 returns the zero estimate.
TimingEstimate cp_timing(std::span<const cplx> samples,
                         std::size_t fft_size, std::size_t cp_len,
                         double sample_rate);

/// Schmidl&Cox metric using the 16-sample periodicity of the 802.11a STF:
/// returns the normalized metric sequence M[d], one value per full
/// 32-sample window (length samples-31), from the same running-sum
/// correlator detect_stf_plateau streams.
rvec stf_metric(std::span<const cplx> samples);

/// A detected 802.11a STF plateau.
struct StfPlateau {
  std::size_t start = 0;  ///< first sample of the plateau (STF start)
  double metric = 0.0;    ///< stf_metric where the plateau was confirmed
};

/// Packet detection: the first run of stf_metric above 0.7 that lasts 80
/// samples (half the STF, so noise spikes are rejected), or nullopt.
/// Streams the metric and stops at the plateau; allocates nothing.
std::optional<StfPlateau> detect_stf_plateau(std::span<const cplx> samples);

/// Estimate a fractional CFO from the phase of the delayed
/// autocorrelation with lag `period` over `span_len` samples at `offset`.
double estimate_cfo(std::span<const cplx> samples, std::size_t offset,
                    std::size_t period, std::size_t span_len,
                    double sample_rate);

/// Undo a carrier frequency offset: out[i] = in[i] * exp(-j*2*pi*cfo*i/fs),
/// phase zero at in[0]. `out` must be as long as `in`; in place allowed.
void derotate(std::span<const cplx> in, double cfo_hz, double sample_rate,
              std::span<cplx> out);

}  // namespace ofdm::rx
