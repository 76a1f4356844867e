// linkbench: host-time benchmark of the closed OFDM link.
//
//   linkbench --workload coded_link|acquire_fading|rf_cosim --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Prints the host fingerprint, the output-check digests and, as the last
// line, one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end figures (measured untraced);
// with --trace 1 they are the per-layer figures of a traced replay.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd/dispatch.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Outcome;
using perfbench::RunContext;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the traced run. Every workload reports every
// name; a layer a workload does not exercise reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"core.tx.ms_per_burst", "ms"},
    {"core.tx.share", "fraction"},
    {"rf.channel.ms_per_burst", "ms"},
    {"rf.awgn.ms_per_burst", "ms"},
    {"rx.sync.ms_per_burst", "ms"},
    {"rx.sync.share", "fraction"},
    {"rx.sync.lock_ratio", "fraction"},
    {"rx.frontend.ms_per_burst", "ms"},
    {"rx.equalize.ms_per_burst", "ms"},
    {"rx.demap.ms_per_burst", "ms"},
    {"rx.fec.ms_per_burst", "ms"},
    {"rx.fec.share", "fraction"},
    {"sim.busy_share", "fraction"},
    {"sim.rounds", "count"},
    {"sim.trials", "count"},
    {"sim.checkpoint.bytes", "bytes"},
    {"rf.executor.stage0.busy_ms", "ms"},
    {"rf.executor.stage0.stall_ms", "ms"},
    {"rf.executor.stage1.busy_ms", "ms"},
    {"rf.executor.stage1.stall_ms", "ms"},
    {"rf.executor.stage2.busy_ms", "ms"},
    {"rf.executor.stage2.stall_ms", "ms"},
    {"rf.block.iq_imbalance.ns_per_sample", "ns"},
    {"rf.block.phase_noise.ns_per_sample", "ns"},
    {"rf.block.backoff.ns_per_sample", "ns"},
    {"rf.block.rapp_pa.ns_per_sample", "ns"},
    {"rf.block.makeup_gain.ns_per_sample", "ns"},
    {"rf.block.tdl.ns_per_sample", "ns"},
    {"rf.block.awgn.ns_per_sample", "ns"},
    {"rf.block.spectrum.ns_per_sample", "ns"},
    {"rf.block.hash_sink.ns_per_sample", "ns"},
    {"dsp.fft.plan_cache_hits", "count"},
    {"dsp.fft.plan_cache_misses", "count"},
    {"dsp.fft.plan_cache_hit_ratio", "fraction"},
    {"trace.coverage", "fraction"},
    {"trace.overhead", "fraction"},
};

// Bursts per p99 window: ten samples lie beyond each window's p99.
constexpr std::size_t kP99Window = 1000;

int usage(const char* msg) {
  std::fprintf(stderr,
               "linkbench: %s\nusage: linkbench --workload "
               "coded_link|acquire_fading|rf_cosim --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n",
               msg);
  return 2;
}

void append_metric(std::string& json, bool& first, const char* name,
                   double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name, value, unit);
  json += buf;
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunContext ctx;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && ctx.seconds > 0.0;
    } else if (key == "--trace") {
      ctx.trace = std::string(val) == "1";
      have_trace = ctx.trace || std::string(val) == "0";
    } else if (key == "--out-dir") {
      ctx.out_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!have_seed || !have_seconds || !have_trace || ctx.out_dir.empty()) {
    return usage("--seed, --seconds, --trace and --out-dir are required");
  }

  Outcome (*run)(const RunContext&) = nullptr;
  if (workload == "coded_link") run = perfbench::run_coded_link;
  if (workload == "acquire_fading") run = perfbench::run_acquire_fading;
  if (workload == "rf_cosim") run = perfbench::run_rf_cosim;
  if (run == nullptr) return usage("unknown workload");

  // Results from different fingerprints are never compared.
  std::printf(
      "host: nproc=%u simd=%s fft=%s compiler=%s build=%s\n",
      std::thread::hardware_concurrency(),
      ofdm::simd::tier_name(ofdm::simd::active_tier()).c_str(),
      ofdm::dsp::fft_engine_name(ofdm::dsp::fft_engine()),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);

  Outcome out;
  try {
    std::filesystem::create_directories(ctx.out_dir);
    out = run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "linkbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());
  for (const std::string& f : out.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }

  std::string metrics;
  bool first = true;
  if (ctx.trace) {
    for (const MetricDef& m : kLayerMetrics) {
      const auto it = out.layers.find(m.name);
      append_metric(metrics, first, m.name,
                    it == out.layers.end() ? 0.0 : it->second, m.unit);
    }
    for (const auto& [name, value] : out.layers) {
      bool known = false;
      for (const MetricDef& m : kLayerMetrics) known |= name == m.name;
      if (!known) {
        std::fprintf(stderr, "linkbench: unlisted layer metric %s\n",
                     name.c_str());
        return 1;
      }
    }
  } else {
    append_metric(metrics, first, "setup_s", perfbench::median(out.setup_s),
                  "s");
    append_metric(metrics, first, "sim_msps", out.sim_msps, "Msps");
    append_metric(metrics, first, "burst_p50_ms",
                  perfbench::percentile(out.burst_ms, 50.0), "ms");
    append_metric(metrics, first, "burst_p99_ms",
                  perfbench::windowed_p99(out.burst_ms, kP99Window), "ms");
    append_metric(metrics, first, "peak_rss_mb", perfbench::peak_rss_mb(),
                  "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed,
              metrics.c_str());
  return 0;
}
