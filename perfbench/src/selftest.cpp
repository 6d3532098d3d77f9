// Self-tests of the benchmark's own arithmetic: order statistics and the
// ten-beyond tail rule, span self time, the result-line format, and the
// line of a run whose every operation failed.
// Exit 0 when every check passes.

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "reference.hpp"
#include "util.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median() {
  using perfbench::median;
  check(median({3.0}) == 3.0, "median of one");
  check(median({4.0, 1.0, 3.0}) == 3.0, "median of odd count");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  check(throws([] { (void)median({}); }), "median of nothing throws");
}

void test_tail_rule() {
  using perfbench::min_samples_for_tail;
  using perfbench::percentile;
  check(min_samples_for_tail(90, 10) == 100, "p90 needs 100 samples");
  check(min_samples_for_tail(99, 10) == 1000, "p99 needs 1000 samples");
  check(min_samples_for_tail(75, 10) == 40, "p75 needs 40 samples");
  check(percentile(ramp(100), 90) == 90.0, "p90 of 1..100 is 90");
  check(percentile(ramp(1000), 99) == 990.0, "p99 of 1..1000 is 990");
  check(percentile(ramp(101), 90) == 91.0, "p90 of 1..101 is rank 91");
  check(throws([] { (void)percentile(ramp(99), 90); }),
        "p90 of 99 samples is refused (nine beyond)");
  check(throws([] { (void)percentile(ramp(999), 99); }),
        "p99 of 999 samples is refused");
  // Ten samples lie strictly above the reported value at the minimum n.
  const std::vector<double> v = ramp(100);
  const double p90 = percentile(v, 90);
  int above = 0;
  for (double x : v) above += x > p90 ? 1 : 0;
  check(above == 10, "ten samples beyond p90 at n=100");
  check(percentile(ramp(7), 50) == 4.0, "p50 of any sample is allowed");
  check(percentile(ramp(7), 100) == 7.0, "p100 is the maximum");
  check(throws([] { (void)percentile({}, 50); }), "empty percentile throws");
}

void test_spans() {
  perfbench::SpanRecorder rec(true);
  {
    perfbench::ScopedSpan outer(rec, "outer", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      perfbench::ScopedSpan inner(rec, "inner", 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  const auto& s = rec.spans();
  check(s.size() == 2, "two spans recorded");
  check(s[1].parent == 0 && s[0].parent == -1, "inner span's parent is outer");
  check(s[0].op == 7 && s[1].op == 7, "operation id kept");
  const std::vector<double> self = rec.self_ms();
  const double outer_ms = rec.total_ms("outer");
  const double inner_ms = rec.total_ms("inner");
  check(std::abs(self[0] - (outer_ms - inner_ms)) < 1e-6,
        "self time = duration - children");
  check(self[1] == inner_ms, "leaf self time = duration");
  check(self[0] >= 4.0 && self[0] < outer_ms, "outer self time plausible");

  // Overlapping children (concurrent requests) are covered once.
  perfbench::SpanRecorder conc(true);
  const auto base = perfbench::Clock::now();
  const auto at = [&](int ms) { return base + std::chrono::milliseconds(ms); };
  {
    perfbench::ScopedSpan loop(conc, "loop");
    conc.record("req", at(-5), at(4), 0);  // starts before its parent
    conc.record("req", at(2), at(6), 1);
    conc.record("req", at(3), at(5), 2);
    conc.record("req", at(10), at(12), 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double loop_ms = conc.total_ms("loop");
  const double loop_self = conc.self_ms()[0];
  const double covered = loop_ms - loop_self;
  // Covered: [loop start, 6 ms] by the three overlapping ones, plus 2 ms.
  check(covered > 7.0 && covered < 8.5,
        "overlapping children counted once (covered " +
            std::to_string(covered) + " ms)");

  perfbench::SpanRecorder off(false);
  { perfbench::ScopedSpan sp(off, "x"); }
  off.record("y", perfbench::Clock::now(), perfbench::Clock::now(), 0);
  check(off.spans().empty(), "disabled recorder records nothing");
}

void test_json() {
  perfbench::RunResult r;
  r.attempted = 12;
  r.failed = 1;
  r.add("solve_ms_p50", 1.25, "ms");
  r.add("rhs_per_s", 1.0 / 3.0, "1/s");
  const std::string j = perfbench::to_json(r);
  check(j == "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
             "\"metrics\": {\"solve_ms_p50\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"rhs_per_s\": {\"value\": 0.33333333333333331, "
             "\"unit\": \"1/s\"}}}",
        "result line format: " + j);
  perfbench::RunResult bad;
  bad.add("x", std::nan(""), "ms");
  check(perfbench::to_json(bad).find("\"value\": null") != std::string::npos,
        "non-finite value is written as null");
}

void test_reference() {
  // 2x2 system [[4, 1], [2, 3]]: residual of the exact solution is 0.
  rtl::CsrMatrix a(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {4, 1, 2, 3});
  const std::vector<double> x = {0.1, 0.2};
  std::vector<double> b(2);
  a.spmv(x, b);
  check(perfbench::true_relative_residual(a, b, x) < 1e-15,
        "exact solution has zero residual");
  const std::vector<double> y = {0.1, 0.3};
  check(perfbench::true_relative_residual(a, b, y) > 0.1,
        "wrong solution has a residual");
  check(perfbench::relative_difference(x, x) == 0.0, "no difference");
  check(perfbench::seeded_vector(5, 3) == perfbench::seeded_vector(5, 3),
        "same seed, same vector");
  check(perfbench::seeded_vector(5, 3) != perfbench::seeded_vector(5, 4),
        "another seed, another vector");
  const std::vector<double> b0 = {1.0, -2.0, 0.0, 4.0};
  const std::vector<double> pb = perfbench::perturbed_rhs(b0, 9);
  bool within = pb[2] == 0.0;
  for (std::size_t i = 0; i < b0.size(); ++i) {
    within = within && std::abs(pb[i] - b0[i]) <= 0.1 * std::abs(b0[i]);
  }
  check(within && pb != b0, "perturbation stays within 10% of each entry");
  check(pb == perfbench::perturbed_rhs(b0, 9), "same seed, same rhs");
}

void test_steal_filter() {
  using perfbench::Tagged;
  const std::vector<Tagged> mostly_clean = {
      {1.0, false}, {9.0, true}, {2.0, false}, {3.0, false}};
  check(perfbench::undisturbed_or_all(mostly_clean) ==
            std::vector<double>({1.0, 2.0, 3.0}),
        "disturbed samples are dropped when three stay");
  const std::vector<Tagged> mostly_stolen = {
      {1.0, false}, {9.0, true}, {8.0, true}, {2.0, false}};
  check(perfbench::undisturbed_or_all(mostly_stolen) ==
            std::vector<double>({1.0, 9.0, 8.0, 2.0}),
        "every sample is kept when fewer than three are undisturbed");
  const perfbench::CpuTicks a{10, 1000};
  const perfbench::CpuTicks b{12, 1400};
  check(std::abs(perfbench::steal_share(a, b) - 0.005) < 1e-12,
        "steal share of the interval");
  check(!perfbench::disturbed(a, b), "0.5% stolen is not disturbed");
  check(perfbench::disturbed(a, {30, 1400}), "5% stolen is disturbed");
  check(perfbench::steal_share(a, a) == 0.0, "empty interval");
}

void test_all_failed() {
  // Every operation failed its checks: the metrics come from the attempted
  // operations' times and the line says so.
  perfbench::OpSamples ops;
  for (int i = 0; i < 4; ++i) ops.add({10.0 + i, false}, false);
  perfbench::RunResult r;
  ops.count_into(r);
  check(r.attempted == 4 && r.failed == 4 && !r.correct,
        "all failed: attempted = failed = 4, correct false");
  r.add("solve_ms_p50", perfbench::median(perfbench::undisturbed_or_all(
                            ops.basis())),
        "ms");
  const std::string j = perfbench::to_json(r);
  check(j == "{\"correct\": false, \"attempted\": 4, \"failed\": 4, "
             "\"metrics\": {\"solve_ms_p50\": {\"value\": 11.5, "
             "\"unit\": \"ms\"}}}",
        "all-failed result line: " + j);

  perfbench::OpSamples some;
  some.add({5.0, false}, true);
  some.add({7.0, false}, false);
  perfbench::RunResult r2;
  some.count_into(r2);
  check(r2.attempted == 2 && r2.failed == 1 && r2.correct,
        "one of two failed: counted, correct stays true");
  check(some.basis().size() == 1 && some.basis()[0].value == 5.0,
        "metrics come from the passed operations when any passed");
}

}  // namespace

int main() {
  test_median();
  test_tail_rule();
  test_spans();
  test_json();
  test_reference();
  test_steal_filter();
  test_all_failed();
  if (failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
