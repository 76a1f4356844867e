// rf_cosim: the paper's use case. An 802.11a Submodel drives a long run
// through the impairment chain (IQ imbalance, phase noise, Rapp PA
// between back-off and make-up gain, a TDL preset, AWGN, a spectrum
// analyzer) via Netlist::run on three pipeline stages, which leaves one
// core of four to the rest of the host. The executor, the RF blocks and
// the TX as a streaming source do all the work; rx and sim do none.
//
// Throughput is timed on the threaded run. A burst here is one
// 4096-sample chunk pushed through the whole graph by a sequential
// Netlist::run call on one thread: the chain's own latency, without the
// time a chunk waits in the executor's queues. The sink hashes the
// stream (obs::StreamHash), and the threaded run must hash the same
// prefix as the sequential one.
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/profiles.hpp"
#include "dsp/fft.hpp"
#include "obs/stream_hash.hpp"
#include "rf/channel.hpp"
#include "rf/channels/registry.hpp"
#include "rf/impairments.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"

namespace perfbench {
namespace {

using namespace ofdm;

constexpr std::size_t kThreads = 3;
constexpr std::size_t kChunk = 4096;
constexpr std::size_t kSegmentChunks = 256;  // one Netlist::run call
constexpr std::size_t kSegment = kChunk * kSegmentChunks;
constexpr std::size_t kMinBursts = 1000;  // >= 10 bursts beyond p99
constexpr std::size_t kSliceChunks = 64;  // per latency slice
constexpr double kBackoffDb = 6.0;
// Spectrum-analyzer capture: enough for a Welch PSD, small enough that
// five graphs' captures stay a minor part of peak memory.
constexpr std::size_t kSpectrumSamples = std::size_t{1} << 16;

// Leaf sink: hashes the stream and keeps the digest of the first
// `prefix` samples.
class HashSink : public rf::Block {
 public:
  explicit HashSink(std::size_t prefix) : prefix_(prefix) {}

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override {
    hash_.update(in);
    if (hash_.count() == 2 * prefix_) prefix_digest_ = hash_.digest();
    if (out.data() != in.data()) out.assign(in.begin(), in.end());
  }
  std::string name() const override { return "hash-sink"; }

  std::uint64_t prefix_digest() const { return prefix_digest_; }

 private:
  std::size_t prefix_;
  obs::StreamHash hash_;
  std::uint64_t prefix_digest_ = 0;
};

struct Seeds {
  std::size_t gap;
  std::uint64_t payload, phase_noise, channel, awgn;
  double iq_gain_db, iq_phase_deg;
};

Seeds derive(std::uint64_t seed) {
  SeedStream s(seed);
  Seeds d{};
  d.gap = 64 + s.below(256);
  d.payload = s.next();
  d.phase_noise = s.next();
  d.channel = s.next();
  d.awgn = s.next();
  d.iq_gain_db = 0.2 + 0.6 * static_cast<double>(s.below(1000)) / 1000.0;
  d.iq_phase_deg = 1.0 + 3.0 * static_cast<double>(s.below(1000)) / 1000.0;
  return d;
}

// The netlist plus raw handles on every node, in topological order, for
// the traced per-block replay.
struct Graph {
  rf::Netlist net;
  rf::Source* source = nullptr;
  std::vector<std::pair<const char*, rf::Block*>> blocks;
  rf::SpectrumAnalyzer* spectrum = nullptr;
  HashSink* sink = nullptr;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  explicit Graph(const Seeds& s) {
    const core::OfdmParams params =
        core::profile_wlan_80211a(core::WlanRate::k36);
    auto src = std::make_unique<rf::Submodel>(params, s.gap, s.payload);
    source = src.get();
    rf::Netlist::NodeId prev = net.add_source_ptr(std::move(src));
    auto add = [&](const char* label, std::unique_ptr<rf::Block> b) {
      rf::Block* raw = b.get();
      const rf::Netlist::NodeId id = net.add_block_ptr(std::move(b));
      net.connect(prev, id);
      prev = id;
      blocks.emplace_back(label, raw);
      return raw;
    };
    add("iq_imbalance",
        std::make_unique<rf::IqImbalance>(s.iq_gain_db, s.iq_phase_deg));
    add("phase_noise", std::make_unique<rf::PhaseNoise>(
                           100.0, params.sample_rate, s.phase_noise));
    add("backoff", std::make_unique<rf::Gain>(-kBackoffDb));
    add("rapp_pa", std::make_unique<rf::RappPa>(2.0, 1.0));
    add("makeup_gain", std::make_unique<rf::Gain>(kBackoffDb));
    rf::channels::MakeOptions opts;
    opts.sample_rate = params.sample_rate;
    opts.seed = s.channel;
    add("tdl", rf::channels::make_preset("itu_veh_a", opts));
    add("awgn", std::make_unique<rf::AwgnChannel>(1e-3, s.awgn));
    dsp::WelchConfig welch;
    welch.sample_rate = params.sample_rate;
    spectrum = static_cast<rf::SpectrumAnalyzer*>(
        add("spectrum",
            std::make_unique<rf::SpectrumAnalyzer>(welch, kSpectrumSamples)));
    sink = static_cast<HashSink*>(
        add("hash_sink", std::make_unique<HashSink>(kSegment)));
  }
};

void check_spectrum(Graph& g, Outcome& out) {
  const dsp::Psd psd = g.spectrum->psd();
  const double p = psd.total_power();
  out.check(std::isfinite(p) && p > 0.0, "spectrum analyzer power invalid");
}

struct Replayed {
  std::size_t chunks = 0;
  double seconds = 0.0;
};

// Sequential replay of the graph, every node called one by one with a
// span around each (`tr` null runs it untraced), for at least one
// segment and `seconds`.
Replayed replay(Graph& g, Tracer* tr, double seconds) {
  Replayed r;
  cvec a, b;
  const auto t0 = Clock::now();
  while (r.chunks < kSegmentChunks || seconds_since(t0) < seconds) {
    if (tr != nullptr) tr->set_burst(r.chunks);
    Tracer::Scope root(tr, "chunk");
    {
      Tracer::Scope s(tr, "core.tx");
      g.source->pull(kChunk, a);
    }
    for (const auto& [label, block] : g.blocks) {
      Tracer::Scope s(tr, label);
      block->process(a, b);
      std::swap(a, b);
    }
    ++r.chunks;
  }
  r.seconds = seconds_since(t0);
  return r;
}

}  // namespace

Outcome run_rf_cosim(const RunContext& ctx) {
  Outcome out;
  const Seeds seeds = derive(ctx.seed);

  // Set-up: a fresh graph up to its first chunk out of the sink, so that
  // the plans and tables the blocks build on first use count as set-up.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dsp::fft_plan_cache_clear();
    const auto t0 = Clock::now();
    Graph fresh(seeds);
    fresh.net.run(kChunk, kChunk);
    out.setup_s.push_back(seconds_since(t0));
  }
  const auto g = std::make_unique<Graph>(seeds);

  rf::RunOptions threaded;
  threaded.threads = kThreads;
  std::vector<std::vector<double>> busy_ms(kThreads), stall_ms(kThreads);
  // One threaded segment; returns its Msps.
  auto run_threaded_segment = [&] {
    const rf::RunStats st = g->net.run(kSegment, kChunk, threaded);
    ++out.attempted;
    for (std::size_t i = 0; i < st.stages.size() && i < kThreads; ++i) {
      busy_ms[i].push_back(st.stages[i].busy_seconds * 1e3);
      stall_ms[i].push_back(st.stages[i].stall_seconds * 1e3);
    }
    return static_cast<double>(kSegment) / st.elapsed_seconds / 1e6;
  };

  // The executor's bit-identity contract: a sequential run of a freshly
  // built graph hashes the same first segment.
  auto check_prefix = [&](HashSink& other) {
    out.check(g->sink->prefix_digest() != 0 &&
                  g->sink->prefix_digest() == other.prefix_digest(),
              "threaded stream hash differs from the sequential run");
  };

  if (!ctx.trace) {
    // Threaded segments for throughput, interleaved with latency slices
    // so that both sample the whole run: in a slice a freshly built graph
    // pushes kSliceChunks chunks on this thread, one chunk per sequential
    // Netlist::run call. The run goes on until that graph has passed one
    // segment (the prefix the hash check needs) and kMinBursts chunks are
    // timed.
    Graph seq(seeds);
    std::vector<double> msps;
    const auto t0 = Clock::now();
    std::size_t slices = 0;
    while (slices * kSliceChunks < kSegmentChunks ||
           out.burst_ms.size() < kMinBursts ||
           seconds_since(t0) < ctx.seconds) {
      msps.push_back(run_threaded_segment());
      for (std::size_t i = 0; i < kSliceChunks; ++i) {
        const auto c0 = Clock::now();
        seq.net.run(kChunk, kChunk);
        out.burst_ms.push_back(seconds_since(c0) * 1e3);
      }
      ++slices;
    }
    out.sim_msps = median(msps);
    out.attempted += out.burst_ms.size();
    check_prefix(*seq.sink);
    check_spectrum(*g, out);
    out.notes.push_back("rf_cosim segments " + std::to_string(msps.size()) +
                        ", chunks " + std::to_string(out.burst_ms.size()) +
                        ", prefix hash " + hex64(g->sink->prefix_digest()));
    return out;
  }

  std::vector<double> msps;
  const auto t_threaded = Clock::now();
  while (msps.empty() || seconds_since(t_threaded) < ctx.seconds / 3) {
    msps.push_back(run_threaded_segment());
  }
  for (std::size_t i = 0; i < kThreads; ++i) {
    const std::string stage = "rf.executor.stage" + std::to_string(i);
    out.layers[stage + ".busy_ms"] = median(busy_ms[i]);
    out.layers[stage + ".stall_ms"] = median(stall_ms[i]);
  }
  check_spectrum(*g, out);

  // The per-node replay, untraced and then traced: the difference is
  // the tracing overhead. Each replay starts a fresh graph at sample 0,
  // so both also check the threaded run's prefix hash.
  Graph plain(seeds);
  const Replayed base = replay(plain, nullptr, ctx.seconds / 3);
  check_prefix(*plain.sink);
  Graph rep(seeds);
  Tracer tr;
  const Replayed traced = replay(rep, &tr, ctx.seconds / 3);
  check_prefix(*rep.sink);
  const std::size_t chunks = traced.chunks;
  out.attempted += base.chunks + chunks;

  const double n = static_cast<double>(chunks);
  const double samples = n * static_cast<double>(kChunk);
  const double span = tr.total_s("chunk");
  for (const auto& [label, block] : rep.blocks) {
    out.layers[std::string("rf.block.") + label + ".ns_per_sample"] =
        tr.self_s(label) * 1e9 / samples;
  }
  out.layers["core.tx.ms_per_burst"] = tr.self_s("core.tx") * 1e3 / n;
  out.layers["core.tx.share"] = tr.self_s("core.tx") / span;
  out.layers["rf.channel.ms_per_burst"] = tr.self_s("tdl") * 1e3 / n;
  out.layers["rf.awgn.ms_per_burst"] = tr.self_s("awgn") * 1e3 / n;
  out.layers["trace.coverage"] = (span - tr.self_s("chunk")) / span;
  out.layers["trace.overhead"] =
      1.0 - (samples / traced.seconds) /
                (static_cast<double>(base.chunks * kChunk) / base.seconds);
  const dsp::FftCacheStats fft = dsp::fft_plan_cache_stats();
  out.layers["dsp.fft.plan_cache_hits"] = static_cast<double>(fft.hits);
  out.layers["dsp.fft.plan_cache_misses"] = static_cast<double>(fft.misses);
  out.layers["dsp.fft.plan_cache_hit_ratio"] =
      static_cast<double>(fft.hits) /
      static_cast<double>(fft.hits + fft.misses);

  const std::string tag = "rf_cosim_seed" + std::to_string(ctx.seed);
  tr.write_chrome_trace(ctx.out_dir + "/trace_" + tag + ".json");
  out.notes.push_back("rf_cosim threaded Msps " +
                      std::to_string(median(msps)) + ", traced chunks " +
                      std::to_string(chunks));
  out.notes.push_back(tr.self_time_table(chunks));
  return out;
}

}  // namespace perfbench
