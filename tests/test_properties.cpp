// Randomized cross-module invariant tests: sweep random (but seeded)
// configurations through the full pipeline and assert properties that
// must hold for EVERY input — no crashes, deterministic decisions,
// shape consistency, and factor ordering.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "core/preprocess.hpp"
#include "ml/minirocket.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "sim/faults.hpp"

namespace p2auth::core {
namespace {

// One shared enrolled user (enrollment is the expensive part).
struct Enrolled {
  sim::Population population;
  keystroke::Pin pin{"5094"};
  EnrolledUser user;

  Enrolled() {
    sim::PopulationConfig cfg;
    cfg.num_users = 2;
    cfg.seed = 2024;
    population = sim::make_population(cfg);
    util::Rng rng(2025);
    sim::TrialOptions options;
    std::vector<Observation> pos, neg;
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
    EnrollmentConfig config;
    config.rocket.num_features = 2000;
    config.privacy_boost = true;
    user = enroll_user(pin, pos, neg, config);
  }
};

const Enrolled& fixture() {
  static const Enrolled instance;
  return instance;
}

// Draws a random-but-seeded observation: random subject (user/attacker/
// third party), random input case, random PIN (sometimes the right one),
// random channel count and rate.
Observation random_observation(std::uint64_t seed) {
  const Enrolled& f = fixture();
  util::Rng rng(seed);
  sim::TrialOptions options;
  const std::uint32_t case_pick = rng.uniform_int(3);
  options.input_case =
      case_pick == 0   ? keystroke::InputCase::kOneHanded
      : case_pick == 1 ? keystroke::InputCase::kTwoHandedThree
                       : keystroke::InputCase::kTwoHandedTwo;
  const double rates[] = {30.0, 50.0, 75.0, 100.0};
  options.sensors =
      ppg::SensorConfig::with_channels(1 + rng.uniform_int(4));
  options.sensors.rate_hz = rates[rng.uniform_int(4)];
  if (rng.uniform() < 0.2) {
    options.wearing = ppg::WearingPosition::kBackOfWrist;
  }
  if (rng.uniform() < 0.2) {
    options.activity = ppg::ActivityState::kWalking;
  }
  const ppg::UserProfile* subject = &f.population.users[0];
  const std::uint32_t who = rng.uniform_int(4);
  if (who == 1) subject = &f.population.users[1];
  if (who == 2) {
    subject = &f.population.attackers[rng.uniform_int(
        static_cast<std::uint32_t>(f.population.attackers.size()))];
  }
  if (who == 3) {
    subject = &f.population.third_parties[rng.uniform_int(
        static_cast<std::uint32_t>(f.population.third_parties.size()))];
  }
  keystroke::Pin pin = f.pin;
  if (rng.uniform() < 0.5) {
    util::Rng pr = rng.fork("pin");
    pin = sim::random_pin(pr);
  }
  util::Rng tr = rng.fork("trial");
  sim::Trial t = sim::make_trial(*subject, pin, options, tr);
  return {std::move(t.entry), std::move(t.trace)};
}

class PipelineInvariantSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineInvariantSweep, PreprocessShapesAlwaysConsistent) {
  const Observation obs = random_observation(GetParam());
  // The enrolled user's models expect 4 channels; preprocessing itself
  // must handle any channel count without crashing.
  const PreprocessedEntry pre = preprocess_entry(obs);
  EXPECT_EQ(pre.filtered.size(), obs.trace.num_channels());
  EXPECT_EQ(pre.recorded_indices.size(), obs.entry.events.size());
  EXPECT_EQ(pre.calibrated_indices.size(), obs.entry.events.size());
  EXPECT_EQ(pre.keystroke_present.size(), obs.entry.events.size());
  for (const std::size_t idx : pre.calibrated_indices) {
    EXPECT_LT(idx, obs.trace.length());
  }
  for (const double v : pre.detrended_reference) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // Case classification agrees with the flag count.
  EXPECT_EQ(pre.detected_case,
            classify_case(signal::count_detected(pre.keystroke_present)));
}

TEST_P(PipelineInvariantSweep, AuthenticationIsDeterministicAndSane) {
  const Observation obs = random_observation(GetParam());
  // The enrolled models fix channel count and sampling rate (segment
  // lengths are rate-dependent); mismatches are contract violations
  // covered by test_robustness.
  if (obs.trace.num_channels() != 4 || obs.trace.rate_hz != 100.0) return;
  const AuthResult a = authenticate(fixture().user, obs);
  const AuthResult b = authenticate(fixture().user, obs);
  // Determinism: same observation, same decision and score.
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.detected_case, b.detected_case);
  EXPECT_EQ(a.votes, b.votes);
  EXPECT_DOUBLE_EQ(a.waveform_score, b.waveform_score);
  // Sanity: acceptance requires a correct PIN (this user has one) and a
  // non-rejected case.
  if (a.accepted) {
    EXPECT_TRUE(a.pin_ok);
    EXPECT_NE(a.detected_case, DetectedCase::kRejected);
  }
  // Votes only exist for vote-based paths, and each is +-1.
  for (const int v : a.votes) {
    EXPECT_TRUE(v == 1 || v == -1);
  }
  // A rejection always carries a concrete typed reason; acceptance never
  // does.
  if (a.accepted) {
    EXPECT_EQ(a.reason, RejectReason::kNone);
  } else {
    EXPECT_NE(a.reason, RejectReason::kNone);
  }
  EXPECT_FALSE(a.reason_text().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariantSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(PipelineInvariants, WrongPinNeverAuthenticates) {
  // Sweep many wrong PINs: factor 1 must hold unconditionally.
  const Enrolled& f = fixture();
  util::Rng rng(777);
  sim::TrialOptions options;
  for (int i = 0; i < 10; ++i) {
    util::Rng pr = rng.fork(1000 + i);
    keystroke::Pin wrong = sim::random_pin(pr);
    if (wrong == f.pin) continue;
    util::Rng tr = rng.fork(2000 + i);
    sim::Trial t = sim::make_trial(f.population.users[0], wrong, options, tr);
    const AuthResult r =
        authenticate(f.user, {std::move(t.entry), std::move(t.trace)});
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.reason, RejectReason::kWrongPin);
  }
}

// ---------------------------------------------------------------------------
// MiniRocket transform invariants (randomized, seeded).
// ---------------------------------------------------------------------------

ml::Series random_series(std::size_t n, util::Rng& rng) {
  ml::Series x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

// Naive dilated convolution straight from the weight definition (six -1
// and three +2 taps, zero padding) — independent of both shipped paths.
ml::Series naive_dilated_convolution(const ml::Series& x,
                                     const std::array<int, 3>& kernel,
                                     int dilation) {
  const auto n = static_cast<long long>(x.size());
  ml::Series out(x.size(), 0.0);
  for (long long i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < 9; ++j) {
      const long long idx = i + static_cast<long long>(j - 4) * dilation;
      if (idx < 0 || idx >= n) continue;
      const bool is_two = (j == kernel[0] || j == kernel[1] || j == kernel[2]);
      acc += (is_two ? 2.0 : -1.0) * x[static_cast<std::size_t>(idx)];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
  return out;
}

// PPV features are proportions: every one must lie in [0, 1] for any
// input, including inputs far outside the training distribution.
TEST(MiniRocketProperties, PpvFeaturesAlwaysInUnitInterval) {
  util::Rng rng(0x99f1ULL, 0x77ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t length = 9 + rng.uniform_int(200);
    ml::MiniRocketOptions options;
    options.num_features = 500;
    ml::MiniRocket model(options);
    std::vector<ml::Series> train = {random_series(length, rng),
                                     random_series(length, rng)};
    model.fit(train, rng);
    ml::Series probe = random_series(length, rng);
    // Stress with off-distribution magnitudes on odd trials.
    if (trial % 2 == 1) {
      for (double& v : probe) v *= 1e6;
    }
    for (const double f : model.transform(probe)) {
      ASSERT_GE(f, 0.0);
      ASSERT_LE(f, 1.0);
    }
  }
}

// Zero padding means out-of-range taps contribute exactly 0 — so
// appending literal zero samples must reproduce the original convolution
// values bit-for-bit over the shared prefix (the appended zeros are
// indistinguishable from the padding they replace).
TEST(MiniRocketProperties, AppendedZerosArePaddingNeutral) {
  util::Rng rng(0x2e20ULL, 0x88ULL);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 20 + rng.uniform_int(120);
    const ml::Series x = random_series(n, rng);
    ml::Series padded = x;
    padded.resize(n + 8 * (1 + rng.uniform_int(4)), 0.0);
    const auto& kernels = ml::minirocket_kernels();
    const auto& kernel = kernels[rng.uniform_int(
        static_cast<std::uint32_t>(kernels.size()))];
    const int dilation = 1 << rng.uniform_int(3);
    const ml::Series a = ml::dilated_convolution(x, kernel, dilation);
    const ml::Series b = ml::dilated_convolution(padded, kernel, dilation);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[i], b[i]) << "prefix index " << i;
    }
  }
}

// Degenerate receptive fields: when 8*dilation >= length, every output
// element is an edge case (no branch-free interior exists).  The shipped
// convolution must still match the naive definition (near-equality: the
// naive triple loop accumulates 2/-1 weights directly, a different FP
// operation order than the shipped -sum9 + 3*taps form), and a model
// carrying such a dilation must transform identically through the fast
// and reference paths (exact — see the load-based test below; fit()
// never produces one of these, 8*d < length is its loop condition).
TEST(MiniRocketProperties, DilationExceedingLengthMatchesNaive) {
  util::Rng rng(0xedd3ULL, 0x99ULL);
  for (const std::size_t length : {9u, 10u, 16u, 31u}) {
    const ml::Series x = random_series(length, rng);
    for (const int dilation : {2, 4, 8, 16}) {
      if (8 * dilation < static_cast<int>(length)) continue;
      for (const auto& kernel : ml::minirocket_kernels()) {
        const ml::Series got = ml::dilated_convolution(x, kernel, dilation);
        const ml::Series want = naive_dilated_convolution(x, kernel, dilation);
        for (std::size_t i = 0; i < length; ++i) {
          ASSERT_NEAR(got[i], want[i], 1e-10)
              << "len=" << length << " d=" << dilation << " i=" << i;
        }
      }
    }
  }
}

TEST(MiniRocketProperties, LoadedOversizedDilationTransformsBitExact) {
  // Hand-assemble a model whose second dilation's receptive field
  // (8*4=32) exceeds the input length (10): all-edge shift partitions in
  // the fast path must still match the reference oracle bit-for-bit.
  const std::size_t length = 10;
  const std::vector<int> dilations = {1, 4};
  const std::size_t combos = ml::minirocket_kernels().size() * dilations.size();
  util::Rng rng(0x10adULL, 0xaaULL);
  ml::MiniRocketOptions options;
  options.num_features = combos;
  options.max_dilations = 32;
  options.pooling = ml::Pooling::kPpv;
  std::vector<double> biases(combos);
  for (double& b : biases) b = rng.normal();
  const ml::MiniRocket model = ml::MiniRocket::from_parts(
      options, length, dilations, 1, std::move(biases));
  for (int trial = 0; trial < 20; ++trial) {
    const ml::Series x = random_series(length, rng);
    const linalg::Vector fast = model.transform(x);
    const linalg::Vector ref = ml::reference::transform(model, x);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], ref[i]) << "trial " << trial << " feature " << i;
    }
  }
}

// The batch engine and the per-sample decision path are the same
// computation: WaveformModel::decisions must reproduce decision() exactly
// for every waveform and thread count.
TEST(MiniRocketProperties, BatchDecisionsMatchSingleDecisions) {
  const Enrolled& f = fixture();
  ASSERT_TRUE(f.user.full_model.has_value());
  const WaveformModel& model = *f.user.full_model;
  util::Rng rng(0xba7cdecULL, 0xbbULL);
  sim::TrialOptions options;
  std::vector<std::vector<Series>> waveforms;
  for (int i = 0; i < 5; ++i) {
    util::Rng tr = rng.fork(i);
    sim::Trial t = sim::make_trial(f.population.users[0], f.pin, options, tr);
    const Observation obs{std::move(t.entry), std::move(t.trace)};
    const PreprocessedEntry pre = preprocess_entry(obs, {});
    std::size_t first = pre.calibrated_indices.empty()
                            ? 0
                            : pre.calibrated_indices.front();
    waveforms.push_back(
        extract_full_waveform(pre.filtered, first, pre.rate_hz, {}));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const linalg::Vector batch = model.decisions(waveforms, threads);
    ASSERT_EQ(batch.size(), waveforms.size());
    for (std::size_t i = 0; i < waveforms.size(); ++i) {
      EXPECT_EQ(batch[i], model.decision(waveforms[i])) << "waveform " << i;
    }
  }
}

TEST(PipelineInvariants, BoostScoreMatchesAcceptDecision) {
  const Enrolled& f = fixture();
  util::Rng rng(888);
  sim::TrialOptions options;
  for (int i = 0; i < 6; ++i) {
    util::Rng tr = rng.fork(i);
    sim::Trial t = sim::make_trial(f.population.users[0], f.pin, options, tr);
    const AuthResult r =
        authenticate(f.user, {std::move(t.entry), std::move(t.trace)});
    if (r.detected_case == DetectedCase::kOneHanded) {
      EXPECT_EQ(r.accepted, r.waveform_score >= 0.0);
    }
  }
}

// --- sim::FaultPlan invariants (the chaos bench's replay contract). ---

sim::Trial fault_subject_trial(std::uint64_t seed) {
  util::Rng r(seed);
  sim::TrialOptions options;
  return sim::make_trial(fixture().population.users[0], fixture().pin,
                         options, r);
}

TEST(FaultPlanProperties, ZeroSeverityIsByteIdenticalNoOp) {
  // Severity 0 must leave the trial untouched down to the bit — the
  // chaos bench's severity sweep treats the 0 column as the clean
  // baseline without regenerating trials.
  util::Rng rng(31007);
  for (int round = 0; round < 8; ++round) {
    sim::Trial trial = fault_subject_trial(7000 + round);
    const sim::Trial pristine = trial;
    sim::FaultConfig cfg;
    cfg.severity = 0.0;
    // Randomize the rest of the mix: none of it may matter at severity 0.
    cfg.dropout_prob = rng.uniform();
    cfg.clock_skew_s = rng.uniform(0.0, 2.0);
    cfg.spike_rate_hz = rng.uniform(0.0, 5.0);
    sim::FaultPlan plan(cfg, rng.fork(round));
    const sim::FaultLog log = plan.apply(trial.trace, trial.entry);
    EXPECT_EQ(log.total(), 0u);
    EXPECT_EQ(log.clock_skew_s, 0.0);
    ASSERT_EQ(trial.entry.events.size(), pristine.entry.events.size());
    for (std::size_t i = 0; i < trial.entry.events.size(); ++i) {
      EXPECT_EQ(trial.entry.events[i].recorded_time_s,
                pristine.entry.events[i].recorded_time_s);
    }
    ASSERT_EQ(trial.trace.channels.size(), pristine.trace.channels.size());
    for (std::size_t c = 0; c < trial.trace.channels.size(); ++c) {
      EXPECT_EQ(trial.trace.channels[c], pristine.trace.channels[c]);
    }
  }
}

TEST(FaultPlanProperties, SameConfigAndSeedCorruptIdentically) {
  util::Rng rng(31017);
  for (int round = 0; round < 6; ++round) {
    sim::FaultConfig cfg;
    cfg.severity = rng.uniform(0.2, 1.0);
    const std::uint64_t plan_seed = rng.next_u64();
    sim::Trial a = fault_subject_trial(7100 + round);
    sim::Trial b = a;
    sim::FaultPlan plan_a(cfg, util::Rng(plan_seed));
    sim::FaultPlan plan_b(cfg, util::Rng(plan_seed));
    const sim::FaultLog log_a = plan_a.apply(a.trace, a.entry);
    const sim::FaultLog log_b = plan_b.apply(b.trace, b.entry);
    EXPECT_EQ(log_a.total(), log_b.total());
    EXPECT_EQ(log_a.clock_skew_s, log_b.clock_skew_s);
    ASSERT_EQ(a.entry.events.size(), b.entry.events.size());
    for (std::size_t i = 0; i < a.entry.events.size(); ++i) {
      EXPECT_EQ(a.entry.events[i].recorded_time_s,
                b.entry.events[i].recorded_time_s);
    }
    for (std::size_t c = 0; c < a.trace.channels.size(); ++c) {
      const auto& ca = a.trace.channels[c];
      const auto& cb = b.trace.channels[c];
      ASSERT_EQ(ca.size(), cb.size());
      for (std::size_t i = 0; i < ca.size(); ++i) {
        // NaN bursts break operator== on the vectors; compare bitwise.
        EXPECT_EQ(std::isnan(ca[i]), std::isnan(cb[i]));
        if (!std::isnan(ca[i])) {
          EXPECT_EQ(ca[i], cb[i]);
        }
      }
    }
  }
}

TEST(FaultPlanProperties, ClockSkewLogMatchesAppliedOffset) {
  // Regression: the log must record the offset every event actually
  // received (the draw is bounded so no timestamp goes below t=0), and
  // the shift must stay a per-session constant.
  util::Rng rng(31027);
  int skews_seen = 0;
  for (int round = 0; round < 24; ++round) {
    sim::Trial trial = fault_subject_trial(7200 + round);
    const sim::Trial pristine = trial;
    sim::FaultConfig cfg;
    cfg.severity = rng.uniform(0.3, 1.0);
    // Isolate the skew fault; a huge range forces the lower bound to
    // engage on negative draws.
    cfg.dropout_prob = cfg.flatline_prob = cfg.saturation_prob = 0.0;
    cfg.nan_burst_prob = cfg.spike_rate_hz = 0.0;
    cfg.duplicate_event_prob = cfg.swap_event_prob = 0.0;
    cfg.clock_skew_s = 30.0;
    sim::FaultPlan plan(cfg, rng.fork(round));
    const sim::FaultLog log = plan.apply(trial.trace, trial.entry);
    EXPECT_LE(std::abs(log.clock_skew_s),
              cfg.severity * cfg.clock_skew_s + 1e-12);
    ASSERT_EQ(trial.entry.events.size(), pristine.entry.events.size());
    for (std::size_t i = 0; i < trial.entry.events.size(); ++i) {
      EXPECT_DOUBLE_EQ(trial.entry.events[i].recorded_time_s,
                       pristine.entry.events[i].recorded_time_s +
                           log.clock_skew_s)
          << "event " << i << " shifted by something other than the log";
      EXPECT_GE(trial.entry.events[i].recorded_time_s, 0.0);
    }
    skews_seen += log.clock_skew_s != 0.0;
  }
  EXPECT_GT(skews_seen, 0);  // the fault actually exercised
}

}  // namespace
}  // namespace p2auth::core
