// acquire_fading: closed loop on one thread. Each burst sits at a
// seeded random lead inside a longer stream, goes through a fading
// preset plus AWGN, is acquired by MotherReceiver::synchronize, and is
// then equalized and demodulated uncoded at its true start. Sync and the
// channel library do the work here; Viterbi does none. One thread leaves
// the other cores to the rest of the host, so that a burst of tens of
// milliseconds is rarely preempted.
//
// Demodulating at the true start keeps decode cost and error counts
// independent of where synchronize() locks; rx.sync.lock_ratio records
// how often it lands within one cyclic prefix of the true start.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "metrics/ber.hpp"
#include "rf/channel.hpp"
#include "rf/channels/registry.hpp"
#include "rx/mother/mother_rx.hpp"
#include "sim/deck.hpp"

namespace perfbench {
namespace {

using namespace ofdm;

constexpr double kSnrDb = 25.0;
constexpr std::size_t kMinBursts = 1000;  // >= 10 bursts beyond p99
constexpr std::size_t kDigestCycles = 64;

struct PairSpec {
  const char* standard;
  const char* channel;
  std::size_t per_cycle;  ///< bursts of this pair in one cycle
};

// 802.11a bursts carry ~1/15-1/40 the samples of the broadcast bursts,
// so a cycle holds eight of them to one of each other pair.
constexpr PairSpec kPairs[] = {
    {"wlan_80211a@36", "sui_3", 8},
    {"dvbt@2k", "itu_veh_a", 1},
    {"drm@B", "ccir_poor", 1},
    {"dab@2", "itu_veh_a", 1},
};

struct Pair {
  const PairSpec* spec;
  core::OfdmParams params;
  core::Transmitter tx;
  rx::MotherReceiver rx;
  std::size_t payload_bits;

  explicit Pair(const PairSpec& s)
      : spec(&s),
        params(sim::parse_standard_token(s.standard).params),
        tx(params),
        rx(params),
        payload_bits(tx.recommended_payload_bits()) {
    rx.set_mode(rx::RxMode::kUncoded);
    // Builds the preset once so its tables are part of set-up.
    rf::channels::MakeOptions opts;
    opts.sample_rate = params.sample_rate;
    (void)rf::channels::make_preset(s.channel, opts);
  }
};

struct BurstResult {
  std::size_t pair = 0;
  std::size_t samples = 0;
  std::size_t bits = 0;
  std::size_t errors = 0;
  double seconds = 0.0;
  bool locked = false;
};

class Link {
 public:
  explicit Link(std::uint64_t seed) : seed_(seed) {
    for (const PairSpec& s : kPairs) {
      pairs_.push_back(std::make_unique<Pair>(s));
      for (std::size_t i = 0; i < s.per_cycle; ++i) {
        cycle_.push_back(pairs_.size() - 1);
      }
    }
  }

  std::size_t cycle_len() const { return cycle_.size(); }
  std::size_t pairs() const { return pairs_.size(); }
  std::size_t per_cycle(std::size_t i) const { return kPairs[i].per_cycle; }
  std::string pair_name(std::size_t i) const {
    return std::string(kPairs[i].standard) + "x" + kPairs[i].channel;
  }

  /// Burst k of the seeded sequence; `tr` null runs untraced.
  BurstResult run(std::size_t k, Tracer* tr) {
    BurstResult res;
    res.pair = cycle_[k % cycle_.size()];
    Pair& p = *pairs_[res.pair];
    const core::OfdmParams& prm = p.params;
    const auto t0 = Clock::now();
    std::size_t lead = 0;
    bitvec raw;
    bitvec payload;
    {
      if (tr != nullptr) tr->set_burst(k);
      Tracer::Scope root(tr, "burst");
      Rng rng = Rng::substream(seed_, res.pair, k);
      std::uint64_t channel_seed = 0;
      std::uint64_t awgn_seed = 0;
      {
        Tracer::Scope s(tr, "core.tx");
        payload = rng.bits(p.payload_bits);
        lead = static_cast<std::size_t>(rng.uniform_int(2 * prm.symbol_len()));
        channel_seed = rng.next_u64();
        awgn_seed = rng.next_u64();
        p.tx.modulate_into(payload, burst_);
        stream_.assign(lead + burst_.samples.size() + prm.symbol_len(),
                       cplx{0.0, 0.0});
        std::copy(burst_.samples.begin(), burst_.samples.end(),
                  stream_.begin() + static_cast<std::ptrdiff_t>(lead));
      }
      {
        Tracer::Scope s(tr, "rf.channel");
        rf::channels::MakeOptions opts;
        opts.sample_rate = prm.sample_rate;
        opts.seed = channel_seed;
        rf::channels::make_preset(p.spec->channel, opts)
            ->process(stream_, faded_);
      }
      {
        Tracer::Scope s(tr, "rf.awgn");
        double sig_power = 0.0;
        for (const cplx& x : burst_.samples) sig_power += std::norm(x);
        sig_power /= static_cast<double>(burst_.samples.size());
        rf::AwgnChannel awgn(rf::snr_to_noise_power(sig_power, kSnrDb),
                             awgn_seed);
        awgn.process(faded_, noisy_);
      }
      {
        Tracer::Scope s(tr, "rx.sync");
        const rx::SyncReport sync = p.rx.synchronize(noisy_, prm.sample_rate);
        const std::size_t off = sync.offset;
        res.locked = (off > lead ? off - lead : lead - off) <= prm.cp_len;
      }
      const std::span<const cplx> at_start =
          std::span<const cplx>(noisy_).subspan(lead, burst_.samples.size());
      {
        Tracer::Scope s(tr, "rx.equalize");
        p.rx.set_equalizer(p.rx.estimate_equalizer(at_start));
      }
      {
        Tracer::Scope s(tr, "rx.demod.uncoded");
        raw = p.rx.demodulate(at_start, payload.size()).raw_bits;
      }
      {
        Tracer::Scope s(tr, "metrics.ber");
        const metrics::BerResult b =
            metrics::ber(p.tx.encode_payload(payload), raw);
        res.bits = b.bits;
        res.errors = b.errors;
      }
    }
    res.seconds = seconds_since(t0);
    res.samples = stream_.size();
    if (tr != nullptr) {
      // Not part of the burst: the frontend alone, to split demodulate.
      Tracer::Scope probe(tr, "probe");
      Tracer::Scope s(tr, "rx.frontend");
      (void)p.rx.extract_data_tones(
          std::span<const cplx>(noisy_).subspan(lead, burst_.samples.size()),
          burst_.data_symbols);
    }
    return res;
  }

  /// Noiseless loopback of each pair at lead 0: uncoded errors must be 0.
  void check_loopback(Outcome& out) {
    for (auto& pp : pairs_) {
      Pair& p = *pp;
      const bitvec payload = Rng(seed_).bits(p.payload_bits);
      const auto burst = p.tx.modulate(payload);
      p.rx.clear_equalizer();
      const bitvec raw = p.rx.demodulate(burst.samples, payload.size()).raw_bits;
      out.check(metrics::ber(p.tx.encode_payload(payload), raw).errors == 0,
                std::string(p.spec->standard) + " loopback has bit errors");
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::vector<std::size_t> cycle_;  ///< pair index per burst of a cycle
  core::Transmitter::Burst burst_;
  cvec stream_, faded_, noisy_;
};

struct PairStats {
  std::vector<double> ms;  ///< host time per burst
  double samples = 0.0;
  std::size_t locks = 0;
  std::size_t errors = 0;
  std::size_t bits = 0;
};

// What the closed loop saw over the cycles it ran.
struct Phase {
  std::vector<double> burst_ms;
  std::vector<PairStats> pairs;
  std::size_t locks = 0;
  std::vector<std::string> failures;

  /// Closed-loop rate at each pair's median burst time: cycle samples /
  /// cycle time, in Msps.
  double msps(const Link& link) const {
    double cycle_samples = 0.0;
    double cycle_s = 0.0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const PairStats& p = pairs[i];
      if (p.ms.empty()) continue;
      const double per_cycle = static_cast<double>(link.per_cycle(i));
      cycle_samples += per_cycle * p.samples / static_cast<double>(p.ms.size());
      cycle_s += per_cycle * median(p.ms) / 1e3;
    }
    return cycle_samples / cycle_s / 1e6;
  }

  std::string pair_table(const Link& link) const {
    std::string s;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const PairStats& p = pairs[i];
      const double n = static_cast<double>(p.ms.size());
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "acquire_fading %-26s bursts %5zu median_ms %8.3f "
                    "lock_ratio %.3f uncoded_ber %.4g\n",
                    link.pair_name(i).c_str(), p.ms.size(), median(p.ms),
                    n > 0 ? static_cast<double>(p.locks) / n : 0.0,
                    p.bits ? static_cast<double>(p.errors) / p.bits : 0.0);
      s += buf;
    }
    return s;
  }
};

// Closed loop: runs whole cycles first, first + 1, ..., at least one,
// until `seconds` have passed and `min_bursts` bursts are done (capped
// at three times `seconds`), and adds them to `ph`. errors[k - first *
// cycle_len] receives burst k's error count for the bursts it covers.
void run_cycles(Link& link, std::size_t first, double seconds,
                std::size_t min_bursts, Tracer* tr, Phase& ph,
                std::vector<std::int64_t>& errors) {
  const std::size_t cycle_len = link.cycle_len();
  ph.pairs.resize(link.pairs());
  std::size_t done = 0;
  const auto t0 = Clock::now();
  for (std::size_t j = first;
       j == first || (seconds_since(t0) < 3.0 * seconds &&
                      (seconds_since(t0) < seconds || done < min_bursts));
       ++j) {
    for (std::size_t k = j * cycle_len; k < (j + 1) * cycle_len; ++k) {
      try {
        const BurstResult r = link.run(k, tr);
        ph.burst_ms.push_back(r.seconds * 1e3);
        ph.locks += r.locked ? 1 : 0;
        PairStats& p = ph.pairs[r.pair];
        p.ms.push_back(r.seconds * 1e3);
        p.samples += static_cast<double>(r.samples);
        p.locks += r.locked ? 1 : 0;
        p.errors += r.errors;
        p.bits += r.bits;
        const std::size_t slot = k - first * cycle_len;
        if (slot < errors.size()) {
          errors[slot] = static_cast<std::int64_t>(r.errors);
        }
      } catch (const std::exception& e) {
        ph.failures.push_back(std::string("burst threw: ") + e.what());
      }
      ++done;
    }
  }
}

}  // namespace

Outcome run_acquire_fading(const RunContext& ctx) {
  Outcome out;
  SeedStream seeds(ctx.seed);
  const std::uint64_t link_seed = seeds.next();

  std::unique_ptr<Link> link;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dsp::fft_plan_cache_clear();
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Link>(link_seed);
    out.setup_s.push_back(seconds_since(t0));
    if (rep == 0) link = std::move(fresh);
  }

  // Determinism: the first cycle, run again after the timed phase, must
  // reproduce its error counts burst for burst.
  std::vector<std::size_t> first_cycle;
  for (std::size_t k = 0; k < link->cycle_len(); ++k) {
    first_cycle.push_back(link->run(k, nullptr).errors);
  }

  auto take_failures = [&out](const Phase& ph) {
    out.attempted += ph.burst_ms.size();
    for (const std::string& f : ph.failures) out.check(false, f);
  };

  if (!ctx.trace) {
    std::vector<std::int64_t> errors(kDigestCycles * link->cycle_len(), -1);
    Phase ph;
    run_cycles(*link, 1, ctx.seconds, kMinBursts, nullptr, ph, errors);
    take_failures(ph);
    // Cycles the timed phase did not reach are run here, untimed, so the
    // digest always covers the same bursts.
    Digest digest;
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (errors[i] < 0) {
        errors[i] = static_cast<std::int64_t>(
            link->run(link->cycle_len() + i, nullptr).errors);
      }
      digest.add(static_cast<std::uint64_t>(errors[i]));
    }
    out.burst_ms = ph.burst_ms;
    out.sim_msps = ph.msps(*link);
    out.notes.push_back(
        "acquire_fading bursts " + std::to_string(ph.burst_ms.size()) +
        ", error digest over cycles 1.." + std::to_string(kDigestCycles) +
        " " + hex64(digest.value()));
    out.notes.push_back(ph.pair_table(*link));
  } else {
    // Untraced and traced cycles alternate, so the tracing overhead
    // compares the same stretch of host time.
    std::vector<std::int64_t> unused;
    Tracer tr;
    Phase plain;
    Phase traced;
    const auto t0 = Clock::now();
    for (std::size_t j = 1; j == 1 || seconds_since(t0) < ctx.seconds;
         j += 2) {
      run_cycles(*link, j, 0.0, 0, nullptr, plain, unused);
      run_cycles(*link, j + 1, 0.0, 0, &tr, traced, unused);
    }
    take_failures(plain);
    take_failures(traced);
    const double n = static_cast<double>(traced.burst_ms.size());
    const double span = tr.total_s("burst");
    const double uncoded = tr.total_s("rx.demod.uncoded");
    out.layers["core.tx.ms_per_burst"] = tr.self_s("core.tx") * 1e3 / n;
    out.layers["core.tx.share"] = tr.self_s("core.tx") / span;
    out.layers["rf.channel.ms_per_burst"] = tr.self_s("rf.channel") * 1e3 / n;
    out.layers["rf.awgn.ms_per_burst"] = tr.self_s("rf.awgn") * 1e3 / n;
    out.layers["rx.sync.ms_per_burst"] = tr.self_s("rx.sync") * 1e3 / n;
    out.layers["rx.sync.share"] = tr.self_s("rx.sync") / span;
    out.layers["rx.sync.lock_ratio"] =
        static_cast<double>(traced.locks) / n;
    out.layers["rx.frontend.ms_per_burst"] =
        tr.self_s("rx.frontend") * 1e3 / n;
    out.layers["rx.equalize.ms_per_burst"] =
        tr.self_s("rx.equalize") * 1e3 / n;
    out.layers["rx.demap.ms_per_burst"] =
        (uncoded - tr.total_s("rx.frontend")) * 1e3 / n;
    out.layers["trace.coverage"] = (span - tr.self_s("burst")) / span;
    out.layers["trace.overhead"] =
        1.0 - traced.msps(*link) / plain.msps(*link);
    const dsp::FftCacheStats fft = dsp::fft_plan_cache_stats();
    out.layers["dsp.fft.plan_cache_hits"] = static_cast<double>(fft.hits);
    out.layers["dsp.fft.plan_cache_misses"] = static_cast<double>(fft.misses);
    out.layers["dsp.fft.plan_cache_hit_ratio"] =
        static_cast<double>(fft.hits) /
        static_cast<double>(fft.hits + fft.misses);
    const std::string tag = "acquire_fading_seed" + std::to_string(ctx.seed);
    tr.write_chrome_trace(ctx.out_dir + "/trace_" + tag + ".json");
    out.notes.push_back("acquire_fading traced bursts " +
                        std::to_string(traced.burst_ms.size()));
    out.notes.push_back(traced.pair_table(*link));
    out.notes.push_back(tr.self_time_table(traced.burst_ms.size()));
  }

  for (std::size_t k = 0; k < first_cycle.size(); ++k) {
    out.check(link->run(k, nullptr).errors == first_cycle[k],
              "burst " + std::to_string(k) + " error count not reproducible");
  }
  link->check_loopback(out);
  return out;
}

}  // namespace perfbench
