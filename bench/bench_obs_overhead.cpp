// Observability overhead bench: proves the decision flight recorder and
// metrics instrumentation stay within the <5% hot-path latency budget.
//
// Measures the same authenticate() workload in two configurations —
// telemetry fully off (runtime switch disabled, no recorder installed)
// and fully on (metrics enabled + audit recorder draining to disk) — as
// many off/on pairs: each pair decides one observation once per mode,
// back to back, and which mode goes first alternates from pair to pair.
// The estimate is the median of the per-pair on/off latency ratios, so a
// burst of neighbour load spoils a few pairs instead of a whole block.
// Exits nonzero when the measured overhead exceeds the budget, and emits
// a gated throughput ratio for the CI baseline
// (bench/baselines/obs_overhead_baseline.json).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "obs/audit.hpp"
#include "obs/obs.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace p2auth;

namespace {

constexpr double kOverheadBudget = 0.05;  // 5% of baseline latency

// Switches the whole telemetry stack off, or on with `recorder` as the
// audit sink.
void set_telemetry(bool on, obs::AuditRecorder& recorder) {
  obs::set_enabled(on);
  obs::install_audit_recorder(on ? &recorder : nullptr);
}

// One timed authenticate() (microseconds).
double attempt_us(const core::EnrolledUser& user,
                  const core::Observation& observation, bool& accepted) {
  const util::Stopwatch clock;
  accepted = core::authenticate(user, observation).accepted;
  return 1e6 * clock.seconds();
}

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  bench::BenchReport report("obs_overhead");
  const int trials = quick ? 12 : 48;
  // Passes over the observation set; every pass times one off/on pair
  // per observation.
  const int rounds = quick ? 40 : 20;

  // One enrolled user and a fixed observation set reused by both modes.
  sim::PopulationConfig population_cfg;
  population_cfg.num_users = 1;
  population_cfg.seed = 1723;
  const sim::Population population = sim::make_population(population_cfg);
  const keystroke::Pin pin("1470");
  util::Rng rng(20250808);

  core::EnrolledUser user;
  {
    sim::TrialOptions options;
    std::vector<core::Observation> pos, neg;
    util::Rng er = rng.fork("enroll");
    for (sim::Trial& t :
         sim::make_trials(population.users[0], pin, 6, options, er)) {
      pos.push_back({std::move(t.entry), std::move(t.trace)});
    }
    util::Rng pr = rng.fork("pool");
    for (sim::Trial& t :
         sim::make_third_party_pool(population, 30, options, pr)) {
      neg.push_back({std::move(t.entry), std::move(t.trace)});
    }
    core::EnrollmentConfig config;
    config.rocket.num_features = 2000;
    user = core::enroll_user(pin, pos, neg, config);
    user.user_id = 1;
  }

  std::vector<core::Observation> observations;
  for (int i = 0; i < trials; ++i) {
    util::Rng lr = rng.fork("legit").fork(i);
    sim::Trial t =
        sim::make_trial(population.users[0], pin, sim::TrialOptions{}, lr);
    observations.push_back({std::move(t.entry), std::move(t.trace)});
  }

  // Warm the thread-local MiniRocket scratch outside the timed region.
  (void)core::authenticate(user, observations.front());

  // Time off/on pairs; the mode that goes first alternates across
  // observations within a pass and across passes for one observation,
  // so warm-up and clock drift favour neither mode.
  const std::string log_path = "bench_obs_overhead_audit.bin";
  std::vector<double> off_us, on_us, ratios;
  std::uint64_t accepted_off = 0, accepted_on = 0, mismatched_pairs = 0;
  obs::AuditStats audit_stats;
  {
    obs::AuditRecorder recorder(log_path);
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < trials; ++i) {
        const core::Observation& observation =
            observations[static_cast<std::size_t>(i)];
        const bool on_first = (r + i) % 2 == 1;
        double pair_us[2] = {0.0, 0.0};  // [off, on]
        bool pair_accepted[2] = {false, false};
        for (const bool on : {on_first, !on_first}) {
          set_telemetry(on, recorder);
          pair_us[on] = attempt_us(user, observation, pair_accepted[on]);
        }
        off_us.push_back(pair_us[0]);
        on_us.push_back(pair_us[1]);
        ratios.push_back(pair_us[1] / pair_us[0]);
        accepted_off += pair_accepted[0] ? 1 : 0;
        accepted_on += pair_accepted[1] ? 1 : 0;
        if (pair_accepted[0] != pair_accepted[1]) ++mismatched_pairs;
      }
    }
    obs::install_audit_recorder(nullptr);
    recorder.flush();
    audit_stats = recorder.stats();
  }
  obs::set_enabled(true);
  std::remove(log_path.c_str());

  const std::size_t pairs = ratios.size();
  const double per_auth_off_us = median(off_us);
  const double per_auth_on_us = median(on_us);
  const double median_ratio = median(ratios);
  const double overhead = median_ratio - 1.0;
  const double throughput_ratio = 1.0 / median_ratio;

  util::Table table({"mode", "per-auth", "accepted"});
  table.begin_row()
      .cell("telemetry off")
      .cell(util::format_double(per_auth_off_us, 1) + " us")
      .cell(std::to_string(accepted_off) + "/" + std::to_string(pairs));
  table.begin_row()
      .cell("metrics + flight recorder")
      .cell(util::format_double(per_auth_on_us, 1) + " us")
      .cell(std::to_string(accepted_on) + "/" + std::to_string(pairs));
  report.table(table, "overhead",
               "Observability overhead - median authenticate() latency and "
               "median on/off ratio over " +
                   std::to_string(pairs) + " off/on pairs (" +
                   std::to_string(rounds) + " passes x " +
                   std::to_string(trials) + " attempts)");

  std::printf("overhead: %.2f%% (budget %.0f%%), ring drops: %llu\n",
              100.0 * overhead, 100.0 * kOverheadBudget,
              static_cast<unsigned long long>(audit_stats.dropped));

  report.value("per_auth_off_us", per_auth_off_us);
  report.value("per_auth_on_us", per_auth_on_us);
  report.value("overhead_fraction", overhead);
  report.value("pairs", static_cast<std::uint64_t>(pairs));
  // Gated (higher is better): the inverse of the median per-pair on/off
  // latency ratio; 1.0 = free telemetry, 0.95 = 5.3% overhead.  CI gates
  // with --tolerance 0.95.
  report.value("instrumented_throughput_ratio", throughput_ratio);
  report.value("audit_records_written",
               static_cast<std::uint64_t>(audit_stats.written));
  report.value("audit_records_dropped",
               static_cast<std::uint64_t>(audit_stats.dropped));
  report.value("quick", quick);
  report.write();

  bool ok = true;
  if (overhead > kOverheadBudget) {
    std::fprintf(stderr,
                 "error: observability overhead %.2f%% exceeds the %.0f%% "
                 "budget\n",
                 100.0 * overhead, 100.0 * kOverheadBudget);
    ok = false;
  }
  if (mismatched_pairs != 0) {
    std::fprintf(stderr,
                 "error: decisions changed under instrumentation in %llu of "
                 "%zu pairs (%llu vs %llu accepts)\n",
                 static_cast<unsigned long long>(mismatched_pairs), pairs,
                 static_cast<unsigned long long>(accepted_on),
                 static_cast<unsigned long long>(accepted_off));
    ok = false;
  }
  // The recorder is gated only on installation (not on the obs compile
  // switch), so records must have landed in every build flavour.
  if (audit_stats.written == 0) {
    std::fprintf(stderr, "error: flight recorder wrote no records\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("observability stayed within the %.0f%% overhead budget\n",
              100.0 * kOverheadBudget);
  return 0;
}
