#include "rx/sync.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ofdm::rx {
namespace {

/// Sliding lag correlator. For every window position d in
/// [0, x.size() - lag - window] calls visit(d, c, e1, e2) with
///   c  = sum_{i<window} conj(x[d+i]) * x[d+i+lag]
///   e1 = sum_{i<window} |x[d+i]|^2,  e2 = sum_{i<window} |x[d+i+lag]|^2
/// and stops early when visit returns false.
///
/// The sums are running sums, O(1) per position: each step adds the
/// product entering the window and subtracts the one leaving it. They
/// are re-accumulated from scratch every `window` steps, which bounds
/// the rounding drift to ~2*window ulps of the largest sum since the
/// last re-accumulation. A window whose energy is below 1e-12 per term
/// of that largest sum, thousands of times the bound, is silence that
/// the subtraction left as a residue; it is reported as c = e1 = e2 = 0,
/// as an exactly silent window would be, so no residue ratio can pose
/// as a correlation peak.
/// Spelled out in real arithmetic: std::complex's multiply adds a
/// NaN-recovery branch to every step.
template <typename Visit>
void slide_lag_correlator(std::span<const cplx> x, std::size_t lag,
                          std::size_t window, Visit&& visit) {
  constexpr double kDriftFloor = 1e-12;
  const std::size_t last = x.size() - lag - window;
  const double floor_per_peak = kDriftFloor * static_cast<double>(window);
  double cr = 0.0;
  double ci = 0.0;
  double e1 = 0.0;
  double e2 = 0.0;
  double peak = 0.0;
  for (std::size_t d = 0; d <= last; ++d) {
    if (d % window == 0) {
      cr = ci = e1 = e2 = 0.0;
      for (std::size_t i = d; i < d + window; ++i) {
        const cplx a = x[i];
        const cplx b = x[i + lag];
        cr += a.real() * b.real() + a.imag() * b.imag();
        ci += a.real() * b.imag() - a.imag() * b.real();
        e1 += a.real() * a.real() + a.imag() * a.imag();
        e2 += b.real() * b.real() + b.imag() * b.imag();
      }
      peak = std::max(e1, e2);
    } else {
      const cplx a0 = x[d - 1];
      const cplx b0 = x[d - 1 + lag];
      const cplx a = x[d + window - 1];
      const cplx b = x[d + window - 1 + lag];
      cr += (a.real() * b.real() + a.imag() * b.imag()) -
            (a0.real() * b0.real() + a0.imag() * b0.imag());
      ci += (a.real() * b.imag() - a.imag() * b.real()) -
            (a0.real() * b0.imag() - a0.imag() * b0.real());
      e1 += (a.real() * a.real() + a.imag() * a.imag()) -
            (a0.real() * a0.real() + a0.imag() * a0.imag());
      e2 += (b.real() * b.real() + b.imag() * b.imag()) -
            (b0.real() * b0.real() + b0.imag() * b0.imag());
      peak = std::max(peak, std::max(e1, e2));
    }
    const double floor = floor_per_peak * peak;
    const bool live = e1 > floor && e2 > floor;
    if (!visit(d, live ? cplx{cr, ci} : cplx{}, live ? e1 : 0.0,
               live ? e2 : 0.0)) {
      return;
    }
  }
}

// Relative margin a new best must clear. Rounding-level ties keep the
// earliest candidate: on a clean stream every CP window of every symbol
// scores 1.0 up to the running sums' rounding, and the first symbol
// boundary must win.
constexpr double kTieMargin = 1e-12;

constexpr std::size_t kStfLag = 16;

}  // namespace

TimingEstimate cp_timing(std::span<const cplx> samples,
                         std::size_t fft_size, std::size_t cp_len,
                         double sample_rate) {
  OFDM_REQUIRE_DIM(samples.size() >= fft_size + cp_len,
                   "cp_timing: need at least one full symbol");
  TimingEstimate best;
  if (cp_len == 0) return best;  // no prefix, nothing correlates
  double best_sq = 0.0;  // best.metric squared
  slide_lag_correlator(
      samples, fft_size, cp_len,
      [&](std::size_t d, cplx corr, double e1, double e2) {
        // Squared metric |c|^2 / (e1*e2) against the best, so the
        // sqrt and atan2 run only on a new best.
        const double c2 = std::norm(corr);
        if (c2 > best_sq * (1.0 + kTieMargin) * (e1 * e2)) {
          best.metric = std::abs(corr) / std::sqrt(e1 * e2);
          best_sq = best.metric * best.metric;
          best.offset = d;
          // conj(early) * late: a CFO of +f rotates the correlation by
          // +2*pi*f*N/fs, so its phase is the signed CFO over one FFT
          // length.
          best.cfo_hz = std::arg(corr) * sample_rate /
                        (kTwoPi * static_cast<double>(fft_size));
        }
        return true;
      });
  return best;
}

rvec stf_metric(std::span<const cplx> samples) {
  if (samples.size() < 2 * kStfLag) return {};
  rvec m(samples.size() - 2 * kStfLag + 1);
  slide_lag_correlator(samples, kStfLag, kStfLag,
                       [&](std::size_t d, cplx corr, double, double e2) {
                         m[d] = e2 > 0.0 ? std::norm(corr) / (e2 * e2) : 0.0;
                         return true;
                       });
  return m;
}

std::optional<StfPlateau> detect_stf_plateau(std::span<const cplx> samples) {
  constexpr double kThreshold = 0.7;
  constexpr std::size_t kPlateau = 80;
  if (samples.size() < 2 * kStfLag) return std::nullopt;
  std::optional<StfPlateau> found;
  std::size_t run = 0;
  slide_lag_correlator(
      samples, kStfLag, kStfLag,
      [&](std::size_t d, cplx corr, double, double e2) {
        const double c2 = std::norm(corr);
        if (c2 <= kThreshold * e2 * e2) {
          run = 0;
          return true;
        }
        if (++run < kPlateau) return true;
        found = StfPlateau{d + 1 - run, c2 / (e2 * e2)};
        return false;
      });
  return found;
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
