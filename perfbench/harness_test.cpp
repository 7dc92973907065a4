// Checks of the benchmark harness logic in harness.hpp: percentiles with
// refused requests, the tail-percentile rule, zipf sampling, the
// open-loop schedule and its lateness/latency ledger, and the result
// JSON.  Exits nonzero on the first failed check.
//
//   cmake --build <build dir> --target perfbench_harness_test
//   <build dir>/perfbench_harness_test
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using perfbench::percentile;

void test_percentile() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  CHECK(percentile(v, 0.5) == 3.0);
  CHECK(percentile(v, 0.0) == 1.0);
  CHECK(percentile(v, 1.0) == 5.0);
  CHECK(percentile(v, 0.2) == 1.0);   // rank 1 of 5
  CHECK(percentile(v, 0.21) == 2.0);  // rank 2 of 5

  // 100 samples 1..100: p99 is the 99th value.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  CHECK(percentile(hundred, 0.99) == 99.0);
  CHECK(percentile(hundred, 0.5) == 50.0);

  // Refused requests rank above every sample: with 2 of 100 refused the
  // p99 is a miss, while p50 moves up by one rank.
  std::vector<double> served;
  for (int i = 1; i <= 98; ++i) served.push_back(i);
  CHECK(std::isinf(percentile(served, 0.99, 2)));
  CHECK(percentile(served, 0.98, 2) == 98.0);
  CHECK(percentile(served, 0.5, 2) == 50.0);
  std::vector<double> none;
  CHECK(std::isnan(percentile(none, 0.5)));
  CHECK(std::isinf(percentile(none, 0.5, 3)));
}

void test_tail_quantile() {
  // At least ten samples beyond the chosen percentile, capped at p99;
  // below 20 samples the median stands in.
  CHECK(perfbench::tail_quantile(10) == 0.5);
  CHECK(perfbench::tail_quantile(19) == 0.5);
  CHECK(perfbench::tail_quantile(20) == 0.5);
  CHECK(perfbench::tail_quantile(100) == 0.9);
  CHECK(perfbench::tail_quantile(1000) == 0.99);
  CHECK(perfbench::tail_quantile(100000) == 0.99);
  for (std::size_t n : {20u, 37u, 200u, 999u, 5000u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    const double q = perfbench::tail_quantile(n);
    const double at = percentile(v, q);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > at; }));
    CHECK(beyond >= 10);
  }
}

void test_interquartile_mean() {
  CHECK(std::isnan(perfbench::interquartile_mean({})));
  CHECK(perfbench::interquartile_mean({3, 1, 2}) == 2.0);  // nothing dropped
  // 1..8: drop 1, 2 and 7, 8; mean of 3..6.
  CHECK(perfbench::interquartile_mean({8, 1, 7, 2, 6, 3, 5, 4}) == 4.5);
  // A tail of misses or stalls does not move it, while a plain mean would.
  std::vector<double> v(1000, 2.0);
  for (int i = 0; i < 200; ++i) v[i] = 2000.0;
  CHECK(perfbench::interquartile_mean(v) == 2.0);
  // Two speed modes: the estimate moves in proportion to the share of the
  // fast mode inside the middle half, where a median would jump.
  std::vector<double> modes;
  for (int i = 0; i < 1000; ++i) modes.push_back(i < 400 ? 1.0 : 3.0);
  CHECK(std::fabs(perfbench::interquartile_mean(modes) - 2.4) < 1e-12);
}

void test_zipf() {
  const perfbench::ZipfSampler zipf(128, 1.1);
  double total = 0.0;
  for (std::size_t r = 0; r < 128; ++r) total += zipf.probability(r);
  CHECK(std::fabs(total - 1.0) < 1e-12);
  for (std::size_t r = 1; r < 128; ++r) {
    CHECK(zipf.probability(r) < zipf.probability(r - 1));
  }
  // p(rank) / p(0) = (rank + 1)^-s.
  CHECK(std::fabs(zipf.probability(9) / zipf.probability(0) -
                  std::pow(10.0, -1.1)) < 1e-12);
  CHECK(zipf.draw(0.0) == 0);
  CHECK(zipf.draw(0.999999999999) == 127);

  // The same uniform stream gives the same names; the empirical head
  // share matches its probability.
  std::mt19937_64 a(42), b(42), c(43);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::size_t> sa, sb, sc;
  for (int i = 0; i < 20000; ++i) {
    sa.push_back(zipf.draw(u(a)));
    sb.push_back(zipf.draw(u(b)));
    sc.push_back(zipf.draw(u(c)));
  }
  CHECK(sa == sb);
  CHECK(sa != sc);
  const double head = static_cast<double>(std::count(sa.begin(), sa.end(), 0)) /
                      static_cast<double>(sa.size());
  CHECK(std::fabs(head - zipf.probability(0)) < 0.01);
}

void test_schedule() {
  std::mt19937_64 g(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::vector<double> due =
      perfbench::poisson_due_times(20000, 150.0, [&] { return u(g); });
  CHECK(due.size() == 20000);
  bool increasing = true;
  for (std::size_t i = 1; i < due.size(); ++i) increasing &= due[i] > due[i - 1];
  CHECK(increasing);
  // Mean rate within 3% of the requested one.
  CHECK(std::fabs(static_cast<double>(due.size()) / due.back() - 150.0) < 4.5);
  std::mt19937_64 g2(7);
  const std::vector<double> again =
      perfbench::poisson_due_times(20000, 150.0, [&] { return u(g2); });
  CHECK(again == due);

  // Ledger: latency runs from the due time, so a late send is charged to
  // the request; lateness never goes negative; refused requests count as
  // misses in every percentile and not as throughput.
  perfbench::OpenLoopLedger ledger;
  ledger.sent(0.0, 0.0);
  ledger.completed(0.0, 1000.0);
  ledger.sent(1000.0, 4000.0);  // generator 3 ms late
  ledger.completed(1000.0, 5000.0);
  ledger.sent(2000.0, 1990.0);  // early wake-up is not negative lateness
  ledger.refuse(2000.0);
  CHECK(ledger.lateness_us.size() == 3);
  CHECK(ledger.lateness_us[1] == 3000.0);
  CHECK(ledger.lateness_us[2] == 0.0);
  CHECK(ledger.latency_us.size() == 2);
  CHECK(ledger.latency_us[1] == 4000.0);
  CHECK(ledger.latency_percentile(0.5) == 4000.0);
  CHECK(std::isinf(ledger.latency_percentile(0.99)));
  CHECK(ledger.lateness_percentile(0.99) == 3000.0);
  CHECK(std::fabs(ledger.throughput_per_s() - 2.0 / 0.005) < 1e-9);
}

void test_result_json() {
  perfbench::ResultWriter w;
  w.metric("latency_p50_us", 1234.5678901234567, "us");
  w.metric("setup_s", 0.8127, "s");
  w.metric("bad", std::nan(""), "us");
  w.info("cpu_model", "Xeon \"x\"\n");
  const std::string json = w.render(true, 1000, 0);
  CHECK(json.rfind("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
                   "\"metrics\": {",
                   0) == 0);
  CHECK(json.find("\"latency_p50_us\": {\"value\": 1234.5678901234567, "
                  "\"unit\": \"us\"}") != std::string::npos);
  CHECK(json.find("\"bad\": {\"value\": null") != std::string::npos);
  CHECK(json.find("\"cpu_model\": \"Xeon \\\"x\\\"\\n\"") != std::string::npos);
  CHECK(json.find('\n') == std::string::npos);
}

}  // namespace

int main() {
  test_percentile();
  test_tail_quantile();
  test_interquartile_mean();
  test_zipf();
  test_schedule();
  test_result_json();
  if (g_failures == 0) std::printf("perfbench harness: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
