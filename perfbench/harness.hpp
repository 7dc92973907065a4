// Workload-independent pieces of the benchmark driver: percentiles,
// the zipf name sampler, the open-loop arrival schedule with lateness
// accounting, and the JSON result writer.  Standard library only, so
// harness_test.cpp can check them without the P2Auth libraries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

// Nearest-rank percentile of `samples` (sorted in place): the smallest
// sample with at least q of the samples at or below it.  A refused or
// failed operation has no latency but misses every latency limit, so
// `misses` such operations are ranked above every measured sample; a
// percentile that lands on one of them is +inf.  NaN when there is
// nothing to rank.
inline double percentile(std::vector<double>& samples, double q,
                         std::size_t misses = 0) {
  const std::size_t n = samples.size() + misses;
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (rank > samples.size()) return std::numeric_limits<double>::infinity();
  return samples[rank - 1];
}

// The highest percentile, capped at p99, that still has at least
// `beyond` samples ranked above it.  With fewer than 2 * beyond samples
// no percentile above the median qualifies, and the median stands in.
inline double tail_quantile(std::size_t n, std::size_t beyond = 10) {
  if (n < 2 * beyond) return 0.5;
  const double q = 1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::min(0.99, q);
}

// Interquartile mean: the mean of the samples ranked between the 25th and
// 75th percentile (floor(n/4) dropped from each end).  Operation times on
// a shared host switch between a fast and a slow mode and carry a tail of
// misses and queueing; a median jumps from one mode to the other as the
// share of fast spells drifts between runs, and a plain mean follows the
// tail.  The interquartile mean moves in proportion to the share and
// ignores the tail.  NaN when empty.
inline double interquartile_mean(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t cut = samples.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

// ---------------------------------------------------------------------------
// Zipf(s) over ranks [0, n): rank 0 is the most popular.  Draws are a
// pure function of the uniform variate, so a seeded uniform stream gives
// a reproducible name sequence.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    if (n == 0) throw std::invalid_argument("ZipfSampler: empty support");
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;
  }

  // `u` in [0, 1).
  std::size_t draw(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

  double probability(std::size_t rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Open-loop schedule.  Arrivals are fixed before the run: a Poisson
// process at `rate_hz` with exactly `count` arrivals, whose due times are
// offsets in seconds from the start of the timed phase.  `uniform`
// yields variates in [0, 1).
template <typename Uniform>
std::vector<double> poisson_due_times(std::size_t count, double rate_hz,
                                      Uniform&& uniform) {
  if (!(rate_hz > 0.0)) throw std::invalid_argument("rate must be > 0");
  std::vector<double> due;
  due.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - uniform()) / rate_hz;
    due.push_back(t);
  }
  return due;
}

// Per-request accounting of one open-loop run.  Every time is in
// microseconds from the start of the timed phase.  Latency runs from
// the request's due time, not from when the generator got to send it,
// so a stalled generator or a full queue is charged to every request
// that waited behind it.
struct OpenLoopLedger {
  std::vector<double> latency_us;  // completed requests only
  std::vector<double> lateness_us; // send - due, every request
  std::size_t refused = 0;         // answered without a decision
  double last_done_us = 0.0;

  void sent(double due_us, double send_us) {
    lateness_us.push_back(std::max(0.0, send_us - due_us));
  }
  void completed(double due_us, double done_us) {
    latency_us.push_back(done_us - due_us);
    last_done_us = std::max(last_done_us, done_us);
  }
  void refuse(double done_us) {
    ++refused;
    last_done_us = std::max(last_done_us, done_us);
  }

  // Completed requests per second over [0, last completion].
  double throughput_per_s() const {
    return last_done_us > 0.0
               ? static_cast<double>(latency_us.size()) / (last_done_us / 1e6)
               : 0.0;
  }
  double latency_percentile(double q) const {
    std::vector<double> copy = latency_us;
    return percentile(copy, q, refused);
  }
  double lateness_percentile(double q) const {
    std::vector<double> copy = lateness_us;
    return percentile(copy, q);
  }
};

// ---------------------------------------------------------------------------
// Result JSON: {"correct": .., "attempted": .., "failed": .., "metrics":
// {name: {"value": .., "unit": ..}}, "info": {..}}.  Values keep every
// digit (%.17g); non-finite values are written as null so the consumer
// refuses them instead of parsing garbage.

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class ResultWriter {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void info(const std::string& key, const std::string& value) {
    info_[key] = json_string(value);
  }
  void info(const std::string& key, double value) {
    info_[key] = json_number(value);
  }
  std::string render(bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      out += first ? "" : ", ";
      first = false;
      out += json_string(name) + ": {\"value\": " + json_number(m.first) +
             ", \"unit\": " + json_string(m.second) + "}";
    }
    out += "}, \"info\": {";
    first = true;
    for (const auto& [key, value] : info_) {
      out += first ? "" : ", ";
      first = false;
      out += json_string(key) + ": " + value;
    }
    return out + "}}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> info_;
};

}  // namespace perfbench
