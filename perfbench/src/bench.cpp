#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double windowed_p99(const std::vector<double>& v, std::size_t min_window) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / min_window);
  std::vector<double> p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(
                                       w * v.size() / windows);
    const auto last = v.begin() + static_cast<std::ptrdiff_t>(
                                      (w + 1) * v.size() / windows);
    p99.push_back(percentile(std::vector<double>(first, last), 99.0));
  }
  return median(p99);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close();
}

void Tracer::open(const char* name) {
  Open o{name, Clock::now()};
  if (kept_.size() < kMaxKept) {
    Span s;
    s.name = name;
    s.start_us = std::chrono::duration<double, std::micro>(o.start - epoch_)
                     .count();
    s.parent = stack_.empty() ? -1 : stack_.back().kept;
    s.burst = burst_;
    o.kept = static_cast<std::int64_t>(kept_.size());
    kept_.push_back(std::move(s));
  }
  stack_.push_back(o);
}

void Tracer::close() {
  const Clock::time_point end = Clock::now();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = std::chrono::duration<double>(end - o.start).count();
  Totals& t = totals_[o.name];
  ++t.count;
  t.total_s += dur;
  t.self_s += dur - o.child_s;
  if (!stack_.empty()) stack_.back().child_s += dur;
  if (o.kept >= 0) {
    kept_[static_cast<std::size_t>(o.kept)].end_us =
        std::chrono::duration<double, std::micro>(end - epoch_).count();
  }
}

double Tracer::self_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self_s;
}

double Tracer::total_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.total_s;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"burst\":%llu}}%s\n",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.burst),
                  i + 1 < kept_.size() ? "," : "");
    f << buf;
  }
  f << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string Tracer::self_time_table(std::size_t bursts) const {
  std::string out = "span                     count     self_ms   total_ms"
                    "  self_ms/burst\n";
  for (const auto& [name, t] : totals_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-22s %7zu %11.3f %10.3f %14.4f\n",
                  name.c_str(), t.count, t.self_s * 1e3, t.total_s * 1e3,
                  bursts > 0 ? t.self_s * 1e3 / static_cast<double>(bursts)
                             : 0.0);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
