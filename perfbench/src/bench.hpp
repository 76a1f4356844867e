// Shared pieces of the link benchmark: the run context each workload
// receives, the result it hands back, timing/statistics helpers, and the
// benchmark's own span recorder.
//
// Every layer is timed from outside, by wrapping the public calls into
// it; the program under test carries no benchmark hooks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64: derives every input of a workload from its one seed.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// FNV-1a over 64-bit words: the simulated-statistics digests.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 21;

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
/// The 99th percentile of each consecutive window of at least
/// `min_window` samples (so each window has >= min_window/100 samples
/// beyond it), and the median over the windows: a rare stall moves one
/// window, not the figure.
double windowed_p99(const std::vector<double>& v, std::size_t min_window);
double peak_rss_mb();

/// The benchmark's own spans: name, start, end, parent and the burst id
/// every span of one burst shares. Spans nest through Scope objects on
/// one thread. Self time (duration minus the time covered by direct
/// children) is aggregated per name as spans close; the first
/// `kMaxKept` spans are also kept for the Chrome-trace file.
class Tracer {
 public:
  class Scope {
   public:
    /// A null tracer makes the scope a no-op (the untraced path).
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  void set_burst(std::uint64_t id) { burst_ = id; }
  double self_s(const std::string& name) const;
  double total_s(const std::string& name) const;

  /// Chrome-trace JSON ("traceEvents", complete events in microseconds).
  void write_chrome_trace(const std::string& path) const;
  /// Per-name self-time table, one row per span name.
  std::string self_time_table(std::size_t bursts) const;

 private:
  static constexpr std::size_t kMaxKept = 50000;
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
    std::uint64_t burst = 0;
  };
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< summed self times
  };
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_s = 0.0;
    std::int64_t kept = -1;
  };
  void open(const char* name);
  void close();

  Clock::time_point epoch_ = Clock::now();
  std::uint64_t burst_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::map<std::string, Totals> totals_;
};

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< checkpoints, Chrome traces, tables
};

/// What a workload hands back. End-to-end figures are measured with
/// tracing off; `layers` holds the per-layer metrics of a traced run.
struct Outcome {
  std::vector<double> setup_s;   ///< one entry per set-up repetition
  double sim_msps = 0.0;
  std::vector<double> burst_ms;  ///< host time per burst
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::map<std::string, double> layers;
  std::vector<std::string> notes;  ///< digests and tables for stdout

  void check(bool ok, const std::string& what);
};

Outcome run_coded_link(const RunContext& ctx);
Outcome run_acquire_fading(const RunContext& ctx);
Outcome run_rf_cosim(const RunContext& ctx);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
