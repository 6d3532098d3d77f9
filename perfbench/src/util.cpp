#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t min_samples_for_tail(double q, std::size_t beyond) {
  if (!(q > 0.0 && q < 100.0)) {
    throw std::invalid_argument("tail percentile must be in (0, 100)");
  }
  // n * (100 - q) / 100 >= beyond, in integer arithmetic on hundredths so
  // that p90/p99 give exactly 100/1000 for ten beyond.
  const auto tail = static_cast<std::size_t>(std::llround((100.0 - q) * 100.0));
  const std::size_t need = beyond * 10000;
  return (need + tail - 1) / tail;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 100.0)) {
    throw std::invalid_argument("percentile must be in (0, 100]");
  }
  if (q != 50.0 && q < 100.0 &&
      samples.size() < min_samples_for_tail(q, 10)) {
    throw std::invalid_argument("too few samples for a tail percentile");
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::int64_t SpanRecorder::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count();
}

int SpanRecorder::open(const std::string& name, std::int64_t op) {
  Span s;
  s.name = name;
  s.start_ns = ns(Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  stack_.pop_back();
}

void SpanRecorder::record(const std::string& name, Clock::time_point start,
                          Clock::time_point end, std::int64_t op) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(std::move(s));
}

std::vector<double> SpanRecorder::self_ms() const {
  // Children may overlap (concurrent service requests under one loop
  // span), so the covered part is the union of the children's intervals,
  // each clipped to its parent's interval.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t end = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, end);
      if (hi > from) covered += hi - from;
      end = std::max(end, hi);
    }
    const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    out[i] = static_cast<double>(std::max<std::int64_t>(d - covered, 0)) / 1e6;
  }
  return out;
}

double SpanRecorder::total_ms(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return t;
}

void SpanRecorder::write_json(std::ostream& out) const {
  const std::vector<double> self = self_ms();
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << s.parent << ",\"op\":" << s.op << ",\"self_ms\":" << self[i]
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string to_json(const RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (!in || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return {};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

std::vector<double> undisturbed_or_all(const std::vector<Tagged>& samples,
                                       std::size_t min_kept) {
  std::vector<double> kept;
  std::vector<double> all;
  for (const Tagged& t : samples) {
    all.push_back(t.value);
    if (!t.disturbed) kept.push_back(t.value);
  }
  return kept.size() >= min_kept ? kept : all;
}

}  // namespace perfbench
