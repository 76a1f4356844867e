// coded_link: soft-decision coded, AWGN-only Monte-Carlo campaigns
// through sim::Campaign::run on three worker threads with checkpointing
// on (one core of four is left to the rest of the host). The receiver's FEC dominates here; channel and sync do almost no
// work, and the campaign scheduler and checkpoint writes are exercised.
//
// End-to-end: sim_msps from repeated campaigns over one seeded deck,
// alternating with slices that time LinkRunner::run_trial on one thread
// for the burst latency (one thread, so that the rest of the host does
// not preempt the trials it times). Traced: one
// campaign for the scheduler counters, then a replay of LinkRunner
// trials through public calls with a span around each layer, checked
// trial by trial against LinkRunner::run_trial on the same indices.
#include <filesystem>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "metrics/ber.hpp"
#include "rf/channel.hpp"
#include "rx/mother/mother_rx.hpp"
#include "sim/campaign.hpp"
#include "sim/trial.hpp"

namespace perfbench {
namespace {

using namespace ofdm;

constexpr std::size_t kThreads = 3;
constexpr std::size_t kMinBursts = 1000;  // >= 10 bursts beyond p99
constexpr double kSliceSeconds = 3.0;      // trial-latency slice

// The SNR grid spans every waterfall: DRM B and 802.11a@36 fall between
// 4 and 16 dB, DVB-T between 8 and 20 dB and the ADSL RS cliff sits near
// 28 dB, so the top point decodes error-free on all four.
std::string make_deck(SeedStream& seeds) {
  return "name=perfbench_coded_link\n"
         "standard=wlan_80211a@36,dvbt+fec,drm@B+fec,adsl+fec\n"
         "snr_db=0:4:32\n"
         "channel=awgn\n"
         "rx=coded\n"
         "rx.soft=1\n"
         "trials.min=8\n"
         "trials.max=16\n"
         "trials.batch=8\n"
         "seed=" +
         std::to_string(seeds.next() >> 1) + "\n";
}

struct Setup {
  sim::ScenarioDeck deck;
  std::vector<sim::PointSpec> grid;
  std::vector<std::size_t> burst_samples;  ///< per standard
};

// Everything the first timed trial needs: deck parse, grid expansion,
// transmitter/receiver construction and their FFT plans (which stay in
// the process-wide plan cache after the runners built here are gone).
Setup build(const std::string& deck_text) {
  Setup s;
  std::vector<sim::LinkRunner> warm;
  s.deck = sim::parse_deck(deck_text);
  s.grid = sim::expand_grid(s.deck);
  for (std::size_t i = 0; i < s.deck.standards.size(); ++i) {
    core::Transmitter tx(s.deck.standards[i].params);
    const bitvec zeros(tx.recommended_payload_bits(), 0);
    s.burst_samples.push_back(tx.modulate(zeros).samples.size());
    for (const sim::PointSpec& p : s.grid) {
      if (p.standard_index == i) {
        warm.emplace_back(s.deck, p);
        break;
      }
    }
  }
  return s;
}

std::uint64_t digest_points(const sim::CampaignResult& r) {
  Digest d;
  for (const sim::PointResult& p : r.points) {
    d.add(p.state.trials);
    d.add(p.state.bits);
    d.add(p.state.errors);
  }
  return d.value();
}

// The replay: LinkRunner's trial, step for step, through public calls.
struct Replay {
  const sim::ScenarioDeck& deck;
  sim::PointSpec point;
  core::Transmitter tx;
  rx::MotherReceiver rx;
  rx::MotherReceiver ref_rx;
  std::size_t payload_bits;

  Replay(const sim::ScenarioDeck& d, const sim::PointSpec& p)
      : deck(d),
        point(p),
        tx(d.standards.at(p.standard_index).params),
        rx(d.standards.at(p.standard_index).params),
        ref_rx(d.standards.at(p.standard_index).params),
        payload_bits(d.payload_bits > 0 ? d.payload_bits
                                        : tx.recommended_payload_bits()) {
    rx.set_mode(d.rx_modes.at(p.rx_index).mode);
    rx.set_pilot_tracking(d.rx_pilot_tracking);
    rx.set_demap(d.rx_soft ? mapping::DemapMode::kSoft
                           : mapping::DemapMode::kHard);
    OFDM_REQUIRE(d.channels.at(p.channel_index).kind ==
                         sim::ChannelPreset::Kind::kAwgn &&
                     !d.pa_enabled && d.phase_noise_hz == 0.0 &&
                     d.rx_equalize && d.measure_evm,
                 "coded_link replay covers AWGN-only equalized decks");
  }

  sim::TrialResult run(std::size_t trial, Tracer& tr) {
    core::Transmitter::Burst burst;
    cvec rx_samples;
    sim::TrialResult r;
    rx::MotherReceiver::Result decoded;
    bitvec payload;
    {
      Tracer::Scope root(&tr, "burst");
      double noise_power = 0.0;
      std::uint64_t awgn_seed = 0;
      {
        Tracer::Scope s(&tr, "core.tx");
        Rng rng = Rng::substream(deck.seed, point.index, trial);
        payload = rng.bits(payload_bits);
        (void)rng.next_u64();  // phase-noise seed, unused on this deck
        awgn_seed = rng.next_u64();
        tx.modulate_into(payload, burst);
      }
      {
        Tracer::Scope s(&tr, "rf.awgn");
        double sig_power = 0.0;
        for (const cplx& x : burst.samples) sig_power += std::norm(x);
        sig_power /= static_cast<double>(burst.samples.size());
        noise_power = rf::snr_to_noise_power(sig_power, point.snr_db);
        rf::AwgnChannel awgn(noise_power, awgn_seed);
        awgn.process(burst.samples, rx_samples);
      }
      {
        Tracer::Scope s(&tr, "rx.equalize");
        rx.set_equalizer(rx.estimate_equalizer(rx_samples));
        if (rx.soft_path_active()) {
          rx.set_noise_from_sample_variance(noise_power);
        }
      }
      {
        Tracer::Scope s(&tr, "rx.demod.coded");
        decoded = rx.demodulate(rx_samples, payload.size());
      }
      {
        Tracer::Scope s(&tr, "metrics.ber");
        const metrics::BerResult b = metrics::ber(payload, decoded.payload);
        r.bits = b.bits;
        r.errors = b.errors;
      }
      {
        Tracer::Scope s(&tr, "metrics.evm");
        std::vector<cvec> ref_tones;
        {
          Tracer::Scope f(&tr, "rx.frontend.ref");
          ref_tones =
              ref_rx.extract_data_tones(burst.samples, burst.data_symbols);
        }
        std::vector<cvec> tones;
        {
          Tracer::Scope f(&tr, "rx.frontend");
          tones = rx.extract_data_tones(rx_samples, burst.data_symbols);
        }
        for (std::size_t sym = 0; sym < tones.size(); ++sym) {
          const std::size_t n =
              std::min(tones[sym].size(), ref_tones[sym].size());
          for (std::size_t i = 0; i < n; ++i) {
            r.evm_err2 += std::norm(tones[sym][i] - ref_tones[sym][i]);
            r.evm_ref2 += std::norm(ref_tones[sym][i]);
          }
        }
      }
    }
    // Not part of the trial: the uncoded demodulate on the same samples
    // splits the receiver into demap and FEC.
    Tracer::Scope probe(&tr, "probe");
    Tracer::Scope s(&tr, "rx.demod.uncoded");
    rx.set_mode(rx::RxMode::kUncoded);
    (void)rx.demodulate(rx_samples, payload.size());
    rx.set_mode(rx::RxMode::kCoded);
    return r;
  }
};

double campaign_samples(const Setup& s, const sim::CampaignResult& r) {
  double samples = 0.0;
  for (const sim::PointResult& p : r.points) {
    samples += static_cast<double>(p.state.trials) *
               static_cast<double>(s.burst_samples[p.spec.standard_index]);
  }
  return samples;
}

// Host time per trial, TX to decided bits. A slice runs for a fixed
// time on one thread, taking the next (point, trial) of one round-robin
// sequence that continues from slice to slice; the runners are kept
// across slices.
class TrialLatency {
 public:
  explicit TrialLatency(const Setup& s)
      : setup_(s), runners_(s.grid.size()) {}

  /// Appends the slice's trial times to `ms`.
  void run_slice(double seconds, std::vector<double>& ms, Outcome& out) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      const std::size_t k = next_++;
      const sim::PointSpec& p = setup_.grid[k % setup_.grid.size()];
      try {
        auto& r = runners_[p.index];
        if (!r) r = std::make_unique<sim::LinkRunner>(setup_.deck, p);
        ms.push_back(r->run_trial(k / setup_.grid.size()).seconds * 1e3);
        ++out.attempted;
      } catch (const std::exception&) {
        out.check(false, "coded trial threw");
      }
    }
  }

 private:
  const Setup& setup_;
  std::size_t next_ = 0;
  /// One runner per grid point, built on first use.
  std::vector<std::unique_ptr<sim::LinkRunner>> runners_;
};

}  // namespace

Outcome run_coded_link(const RunContext& ctx) {
  Outcome out;
  SeedStream seeds(ctx.seed);
  const std::string deck_text = make_deck(seeds);

  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dsp::fft_plan_cache_clear();
    const auto t0 = Clock::now();
    Setup s = build(deck_text);
    out.setup_s.push_back(seconds_since(t0));
    if (rep == 0) setup = std::move(s);
  }

  const std::string ckpt = ctx.out_dir + "/coded_link.ckpt";
  sim::RunOptions opts;
  opts.threads = kThreads;
  opts.checkpoint_path = ckpt;

  auto run_campaign = [&](sim::CampaignResult& result) {
    std::filesystem::remove(ckpt);
    sim::Campaign campaign(setup.deck);
    const auto t0 = Clock::now();
    try {
      result = campaign.run(opts);
    } catch (const ofdm::Error& e) {
      out.check(false, std::string("campaign threw: ") + e.what());
      return 0.0;
    }
    const double dt = seconds_since(t0);
    return campaign_samples(setup, result) / dt / 1e6;
  };

  // Output checks on one campaign: every point finished with bits, and
  // the top SNR of each standard decodes error-free.
  auto check_result = [&](const sim::CampaignResult& r) {
    out.check(!r.halted && r.points.size() == setup.grid.size(),
              "campaign halted or lost points");
    const double top = setup.deck.snr_db.back();
    for (const sim::PointResult& p : r.points) {
      out.check(p.state.done && p.state.bits > 0,
                "point " + std::to_string(p.spec.index) + " unfinished");
      if (p.spec.snr_db == top) {
        out.check(p.state.errors == 0,
                  p.standard + " has bit errors at the top SNR");
      }
    }
  };

  const auto start = Clock::now();
  if (!ctx.trace) {
    // Campaigns alternate with trial-latency slices, so that both sample
    // the whole run, until `seconds` have passed and kMinBursts trials
    // are timed (capped at three times `seconds`).
    TrialLatency latency(setup);
    std::vector<double> msps;
    std::uint64_t first_digest = 0;
    while (msps.empty() ||
           (seconds_since(start) < 3.0 * ctx.seconds &&
            (seconds_since(start) < ctx.seconds ||
             out.burst_ms.size() < kMinBursts))) {
      sim::CampaignResult r;
      msps.push_back(run_campaign(r));
      const std::uint64_t d = digest_points(r);
      if (msps.size() == 1) {
        first_digest = d;
        check_result(r);
        std::size_t trials = 0;
        for (const auto& p : r.points) trials += p.state.trials;
        out.notes.push_back("coded_link digest " + hex64(d) + " trials " +
                            std::to_string(trials));
      } else {
        out.check(d == first_digest,
                  "campaign digest differs between repetitions");
      }
      latency.run_slice(kSliceSeconds, out.burst_ms, out);
    }
    out.sim_msps = median(msps);
    out.notes.push_back("coded_link campaigns " +
                        std::to_string(msps.size()) + ", trial latencies " +
                        std::to_string(out.burst_ms.size()));
    return out;
  }

  // Traced run. Scheduler counters come from one campaign.
  sim::CampaignResult r;
  (void)run_campaign(r);
  check_result(r);
  double busy = 0.0;
  double trials = 0.0;
  for (const auto& p : r.points) {
    busy += p.state.seconds;
    trials += static_cast<double>(p.state.trials);
  }
  out.layers["sim.busy_share"] =
      busy / (static_cast<double>(kThreads) * r.elapsed_seconds);
  out.layers["sim.rounds"] = static_cast<double>(r.rounds_completed);
  out.layers["sim.trials"] = trials;
  out.layers["sim.checkpoint.bytes"] =
      static_cast<double>(std::filesystem::file_size(ckpt));

  Tracer tr;
  std::vector<std::unique_ptr<sim::LinkRunner>> runners(setup.grid.size());
  std::vector<std::unique_ptr<Replay>> replays(setup.grid.size());
  double runner_s = 0.0;
  std::size_t bursts = 0;
  while (bursts < setup.grid.size() || seconds_since(start) < ctx.seconds) {
    const sim::PointSpec& p = setup.grid[bursts % setup.grid.size()];
    const std::size_t trial = bursts / setup.grid.size();
    if (!runners[p.index]) {
      runners[p.index] = std::make_unique<sim::LinkRunner>(setup.deck, p);
      replays[p.index] = std::make_unique<Replay>(setup.deck, p);
    }
    const sim::TrialResult a = runners[p.index]->run_trial(trial);
    tr.set_burst(bursts);
    const sim::TrialResult b = replays[p.index]->run(trial, tr);
    out.check(a.bits == b.bits && a.errors == b.errors,
              "replay differs from LinkRunner at point " +
                  std::to_string(p.index) + " trial " +
                  std::to_string(trial));
    runner_s += a.seconds;
    ++bursts;
  }

  const double n = static_cast<double>(bursts);
  const double span = tr.total_s("burst");
  const double uncoded = tr.total_s("rx.demod.uncoded");
  const double fec = tr.total_s("rx.demod.coded") - uncoded;
  out.layers["core.tx.ms_per_burst"] = tr.self_s("core.tx") * 1e3 / n;
  out.layers["core.tx.share"] = tr.self_s("core.tx") / span;
  out.layers["rf.awgn.ms_per_burst"] = tr.self_s("rf.awgn") * 1e3 / n;
  out.layers["rx.frontend.ms_per_burst"] = tr.self_s("rx.frontend") * 1e3 / n;
  out.layers["rx.equalize.ms_per_burst"] = tr.self_s("rx.equalize") * 1e3 / n;
  out.layers["rx.demap.ms_per_burst"] =
      (uncoded - tr.total_s("rx.frontend")) * 1e3 / n;
  out.layers["rx.fec.ms_per_burst"] = fec * 1e3 / n;
  out.layers["rx.fec.share"] = fec / span;
  // The replay's layer spans against LinkRunner's own trial time.
  out.layers["trace.coverage"] = (span - tr.self_s("burst")) / runner_s;
  out.layers["trace.overhead"] = 1.0 - runner_s / span;

  const dsp::FftCacheStats fft = dsp::fft_plan_cache_stats();
  out.layers["dsp.fft.plan_cache_hits"] = static_cast<double>(fft.hits);
  out.layers["dsp.fft.plan_cache_misses"] = static_cast<double>(fft.misses);
  out.layers["dsp.fft.plan_cache_hit_ratio"] =
      static_cast<double>(fft.hits) /
      static_cast<double>(fft.hits + fft.misses);

  const std::string tag = "coded_link_seed" + std::to_string(ctx.seed);
  tr.write_chrome_trace(ctx.out_dir + "/trace_" + tag + ".json");
  out.notes.push_back("coded_link replayed trials " + std::to_string(bursts));
  out.notes.push_back(tr.self_time_table(bursts));
  return out;
}

}  // namespace perfbench
