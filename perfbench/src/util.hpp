#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

/// Measurement plumbing of the benchmark: clocks, order statistics, the
/// span recorder of the traced mode, and the metric set printed as the
/// final JSON line. Nothing here depends on the library under test.
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Milliseconds between two instants.
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of a non-empty sample (mean of the two middle values when even).
/// Throws `std::invalid_argument` on an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// Smallest sample count at which percentile `q` (0 < q < 100) leaves at
/// least `beyond` samples strictly above its rank: ceil(beyond * 100 /
/// (100 - q)). A tail percentile is only reported when the run has this
/// many samples, so p90 needs 100 and p99 needs 1000 for ten beyond.
[[nodiscard]] std::size_t min_samples_for_tail(double q, std::size_t beyond);

/// Nearest-rank percentile q (0 < q <= 100) of the sample: the value at
/// 1-based rank ceil(q/100 * n). Throws `std::invalid_argument` when the
/// sample is empty, or — for q < 100 — when fewer than
/// `min_samples_for_tail(q, 10)` samples support it (q == 50 is exempt:
/// the median of any non-empty sample is reported).
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// One recorded span: a timed public call, its parent span (-1 at the
/// root) and the operation it belongs to (-1 outside operations).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = -1;
};

/// In-memory span recorder for the traced mode. Disabled recorders make
/// `ScopedSpan` a no-op, so the untraced end-to-end runs pay one branch
/// per span site. Single-threaded: spans are opened, closed and recorded
/// by the benchmark's driving thread only (intervals timed on another
/// thread are handed over and recorded afterwards).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span under the currently open one; returns its index.
  int open(const std::string& name, std::int64_t op);
  /// Close span `index` (must be the innermost open span).
  void close(int index);

  /// Record an already-timed interval as a closed child of the currently
  /// open span (used for work timed by a decorator around a virtual call).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::int64_t op);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Per span: duration minus the part of it covered by its children
  /// (the union of their intervals, so overlapping children count once).
  [[nodiscard]] std::vector<double> self_ms() const;

  /// Sum of the durations (ms) of every span named `name`.
  [[nodiscard]] double total_ms(const std::string& name) const;

  /// All spans as one JSON document.
  void write_json(std::ostream& out) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, std::int64_t op = -1)
      : rec_(rec), index_(rec.enabled() ? rec.open(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) rec_.close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

/// A named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: operations attempted/failed, the run-level verdict,
/// and the metrics, printed as one JSON object.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// One-line JSON: {"correct":..,"attempted":..,"failed":..,"metrics":
/// {"name":{"value":..,"unit":".."},..}}. Values keep 17 significant
/// digits; a non-finite value is written as null (which the Python
/// wrapper rejects).
[[nodiscard]] std::string to_json(const RunResult& r);

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// Host-wide CPU ticks from /proc/stat: time stolen by the hypervisor and
/// all time. Both 0 where the file cannot be read.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of host CPU time stolen between two readings (0 when unknown).
[[nodiscard]] double steal_share(const CpuTicks& a, const CpuTicks& b);

/// Share of host CPU time the hypervisor may steal during a measured
/// interval before the interval counts as disturbed. On a shared virtual
/// host, steal stalls spin-waiting team members, and a few percent of it
/// slows a 4-thread solve by tens of percent.
inline constexpr double kStealLimit = 0.01;

/// A measured value and whether more than kStealLimit of host CPU time
/// was stolen while it was measured.
struct Tagged {
  double value = 0.0;
  bool disturbed = false;
};

/// Whether the interval between two readings counts as disturbed.
[[nodiscard]] inline bool disturbed(const CpuTicks& a, const CpuTicks& b) {
  return steal_share(a, b) > kStealLimit;
}

/// The undisturbed values when there are at least `min_kept` of them,
/// else every value: a run spent entirely under steal still reports, and
/// shows as the outlier it is.
[[nodiscard]] std::vector<double> undisturbed_or_all(
    const std::vector<Tagged>& samples, std::size_t min_kept = 3);

/// Per-operation samples of a run: every attempted operation, and those
/// of the operations that passed their checks. Failed operations are
/// timed too, so a run whose every operation fails still reports.
struct OpSamples {
  std::vector<Tagged> attempted;
  std::vector<Tagged> passed;

  void add(Tagged t, bool ok) {
    attempted.push_back(t);
    if (ok) passed.push_back(t);
  }

  [[nodiscard]] bool failed_none() const {
    return passed.size() == attempted.size();
  }

  /// The samples a run's metrics come from: the passed operations', or
  /// every attempted one's when none passed.
  [[nodiscard]] const std::vector<Tagged>& basis() const {
    return passed.empty() ? attempted : passed;
  }

  /// Adds the counts to the result line: attempted, failed, and
  /// correct = false when no operation passed.
  void count_into(RunResult& res) const {
    res.attempted += attempted.size();
    res.failed += attempted.size() - passed.size();
    if (passed.empty()) res.correct = false;
  }
};

}  // namespace perfbench
