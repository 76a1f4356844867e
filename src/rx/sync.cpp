#include "rx/sync.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ofdm::rx {

TimingEstimate cp_timing(std::span<const cplx> samples,
                         std::size_t fft_size, std::size_t cp_len,
                         double sample_rate) {
  OFDM_REQUIRE_DIM(samples.size() >= fft_size + cp_len,
                   "cp_timing: need at least one full symbol");
  TimingEstimate best;
  const std::size_t last = samples.size() - fft_size - cp_len;
  for (std::size_t d = 0; d <= last; ++d) {
    cplx corr{0.0, 0.0};
    double e1 = 0.0;
    double e2 = 0.0;
    for (std::size_t i = 0; i < cp_len; ++i) {
      const cplx a = samples[d + i];
      const cplx b = samples[d + i + fft_size];
      // conj(early) * late: a CFO of +f rotates this by +2*pi*f*N/fs,
      // so the estimate below is signed correctly.
      corr += std::conj(a) * b;
      e1 += std::norm(a);
      e2 += std::norm(b);
    }
    const double denom = std::sqrt(e1 * e2);
    const double metric = denom > 0.0 ? std::abs(corr) / denom : 0.0;
    if (metric > best.metric) {
      best.metric = metric;
      best.offset = d;
      // Phase of the correlation encodes the CFO over one FFT length.
      best.cfo_hz = std::arg(corr) * sample_rate /
                    (kTwoPi * static_cast<double>(fft_size));
    }
  }
  return best;
}

rvec stf_metric(std::span<const cplx> samples) {
  constexpr std::size_t kLag = 16;
  if (samples.size() < 2 * kLag) return {};
  rvec m(samples.size() - 2 * kLag, 0.0);
  for (std::size_t d = 0; d < m.size(); ++d) {
    cplx corr{0.0, 0.0};
    double energy = 0.0;
    for (std::size_t i = 0; i < kLag; ++i) {
      corr += samples[d + i] * std::conj(samples[d + i + kLag]);
      energy += std::norm(samples[d + i + kLag]);
    }
    m[d] = energy > 0.0 ? std::norm(corr) / (energy * energy) : 0.0;
  }
  return m;
}

std::optional<StfPlateau> detect_stf_plateau(std::span<const cplx> samples) {
  constexpr double kThreshold = 0.7;
  constexpr std::size_t kPlateau = 80;
  const rvec metric = stf_metric(samples);
  std::size_t run = 0;
  for (std::size_t i = 0; i < metric.size(); ++i) {
    if (metric[i] > kThreshold) {
      if (++run >= kPlateau) return StfPlateau{i + 1 - run, metric[i]};
    } else {
      run = 0;
    }
  }
  return std::nullopt;
}

double estimate_cfo(std::span<const cplx> samples, std::size_t offset,
                    std::size_t period, std::size_t span_len,
                    double sample_rate) {
  OFDM_REQUIRE_DIM(offset + span_len + period <= samples.size(),
                   "estimate_cfo: window out of range");
  cplx corr{0.0, 0.0};
  for (std::size_t i = 0; i < span_len; ++i) {
    // conj(early) * late rotates by +2*pi*f*period/fs for CFO +f.
    corr += std::conj(samples[offset + i]) * samples[offset + i + period];
  }
  return std::arg(corr) * sample_rate /
         (kTwoPi * static_cast<double>(period));
}

void derotate(std::span<const cplx> in, double cfo_hz, double sample_rate,
              std::span<cplx> out) {
  OFDM_REQUIRE_DIM(out.size() == in.size(),
                   "derotate: output length must match input");
  const double step = -kTwoPi * cfo_hz / sample_rate;
  double phase = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = in[i] * cplx{std::cos(phase), std::sin(phase)};
    phase += step;
    if (phase > kPi) phase -= kTwoPi;
    if (phase < -kPi) phase += kTwoPi;
  }
}

}  // namespace ofdm::rx
