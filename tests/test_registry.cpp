#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "io/binary.hpp"
#include "io_fixtures.hpp"
#include "sim/dataset.hpp"

namespace p2auth::core {
namespace {

// Two enrolled users sharing one device + probes from both.
struct TwoUsers {
  sim::Population population;
  UserRegistry registry;
  keystroke::Pin pin_a{"1628"};
  keystroke::Pin pin_b{"3570"};

  TwoUsers() {
    sim::PopulationConfig cfg;
    cfg.num_users = 2;
    cfg.seed = 1212;
    population = sim::make_population(cfg);
    util::Rng rng(3434);
    sim::TrialOptions options;
    std::vector<Observation> neg;
    util::Rng pr = rng.fork("pool");
    for (sim::Trial& t :
         sim::make_third_party_pool(population, 30, options, pr)) {
      neg.push_back({std::move(t.entry), std::move(t.trace)});
    }
    EnrollmentConfig config;
    config.rocket.num_features = 2000;
    const keystroke::Pin* pins[2] = {&pin_a, &pin_b};
    const char* names[2] = {"alice", "bob"};
    for (int u = 0; u < 2; ++u) {
      std::vector<Observation> pos;
      util::Rng er = rng.fork(std::string("enroll-") + names[u]);
      for (sim::Trial& t : sim::make_trials(population.users[u], *pins[u], 6,
                                            options, er)) {
        pos.push_back({std::move(t.entry), std::move(t.trace)});
      }
      registry.add(names[u], enroll_user(*pins[u], pos, neg, config));
    }
  }

  Observation entry_by(int user_index, const keystroke::Pin& pin,
                       std::uint64_t seed) const {
    util::Rng r(seed);
    sim::TrialOptions options;
    sim::Trial t =
        sim::make_trial(population.users[user_index], pin, options, r);
    return {std::move(t.entry), std::move(t.trace)};
  }
};

const TwoUsers& fixture() {
  static const TwoUsers instance;
  return instance;
}

TEST(Registry, AddFindRemove) {
  UserRegistry registry;
  EXPECT_TRUE(registry.empty());
  EnrolledUser user;
  user.pin = keystroke::Pin("1111");
  registry.add("carol", std::move(user));
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_NE(registry.find("carol"), nullptr);
  EXPECT_EQ(registry.find("carol")->pin.digits(), "1111");
  EXPECT_EQ(registry.find("nobody"), nullptr);
  EXPECT_TRUE(registry.remove("carol"));
  EXPECT_FALSE(registry.remove("carol"));
  EXPECT_TRUE(registry.empty());
}

TEST(Registry, DuplicateAndEmptyNamesThrow) {
  UserRegistry registry;
  registry.add("carol", EnrolledUser{});
  EXPECT_THROW(registry.add("carol", EnrolledUser{}),
               std::invalid_argument);
  EXPECT_THROW(registry.add("", EnrolledUser{}), std::invalid_argument);
}

TEST(Registry, NamesSorted) {
  UserRegistry registry;
  registry.add("zoe", EnrolledUser{});
  registry.add("amy", EnrolledUser{});
  const auto names = registry.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "amy");
  EXPECT_EQ(names[1], "zoe");
}

TEST(Registry, VerifyRoutesToTheRightUser) {
  const TwoUsers& f = fixture();
  // Alice's entry verifies as alice but not as bob (bob's PIN differs).
  const Observation alice_entry = f.entry_by(0, f.pin_a, 1);
  EXPECT_TRUE(f.registry.verify("alice", alice_entry).accepted);
  EXPECT_FALSE(f.registry.verify("bob", alice_entry).accepted);
  EXPECT_THROW(f.registry.verify("mallory", alice_entry),
               std::invalid_argument);
}

TEST(Registry, CrossUserWithStolenPinRejected) {
  const TwoUsers& f = fixture();
  // Bob types alice's PIN: factor 1 passes, the biometric must not.
  const Observation impostor = f.entry_by(1, f.pin_a, 2);
  const AuthResult r = f.registry.verify("alice", impostor);
  EXPECT_TRUE(r.pin_ok);
  EXPECT_FALSE(r.accepted);
}

TEST(Registry, IdentifiesUsersWithoutClaims) {
  const TwoUsers& f = fixture();
  int correct = 0, total = 0;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    for (int u = 0; u < 2; ++u) {
      const Observation obs =
          f.entry_by(u, u == 0 ? f.pin_a : f.pin_b, seed);
      const auto result = f.registry.identify(obs);
      if (result.detected_case != DetectedCase::kOneHanded) continue;
      ++total;
      EXPECT_EQ(result.scores.size(), 2u);
      if (result.identity.has_value() &&
          *result.identity == (u == 0 ? "alice" : "bob")) {
        ++correct;
      }
    }
  }
  ASSERT_GT(total, 3);
  EXPECT_GE(correct * 10, total * 7);  // rank-1 identification >= 70%
}

TEST(Registry, IdentifyRejectsStrangers) {
  const TwoUsers& f = fixture();
  // A third-party subject types a PIN: nobody should claim them (mostly).
  int claimed = 0, total = 0;
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    util::Rng r(seed);
    sim::TrialOptions options;
    sim::Trial t = sim::make_trial(f.population.third_parties[seed % 4],
                                   f.pin_a, options, r);
    const auto result =
        f.registry.identify({std::move(t.entry), std::move(t.trace)});
    if (result.detected_case != DetectedCase::kOneHanded) continue;
    ++total;
    claimed += result.identity.has_value() ? 1 : 0;
  }
  ASSERT_GT(total, 2);
  EXPECT_LE(claimed * 2, total);  // strangers claimed less than half
}

TEST(Registry, IdentifyOnEmptyRegistryThrows) {
  UserRegistry registry;
  const TwoUsers& f = fixture();
  EXPECT_THROW(registry.identify(f.entry_by(0, f.pin_a, 50)),
               std::logic_error);
}

TEST(Registry, SaveLoadRoundTrip) {
  const TwoUsers& f = fixture();
  const testing::TempStore tmp("registry_round_trip");
  io::save_user_registry_binary_file(f.registry, tmp.path);
  const UserRegistry restored = io::load_user_registry_binary_file(tmp.path);
  EXPECT_EQ(restored.size(), 2u);
  const Observation obs = f.entry_by(0, f.pin_a, 60);
  EXPECT_EQ(f.registry.verify("alice", obs).accepted,
            restored.verify("alice", obs).accepted);
  EXPECT_EQ(f.registry.verify("alice", obs).waveform_score,
            restored.verify("alice", obs).waveform_score);
}

TEST(Registry, LoadRejectsCorruptedHeader) {
  const testing::TempStore tmp("registry_corrupted_header");
  const std::string text = "not-a-registry 0";
  testing::write_file_bytes(tmp.path,
                            std::vector<std::uint8_t>(text.begin(), text.end()));
  EXPECT_THROW(io::load_user_registry_binary_file(tmp.path),
               std::runtime_error);
}

// Regression: an entry whose preprocessing found no calibrated keystroke
// indices used to dereference calibrated_indices.front() on an empty
// vector; it must instead come back rejected.
TEST(Registry, IdentifyRejectsEntryWithNoCalibratedKeystrokes) {
  const TwoUsers& f = fixture();
  PreprocessedEntry pre;
  pre.detected_case = DetectedCase::kOneHanded;
  // calibrated_indices / keystroke_present left empty.
  const UserRegistry::IdentifyResult result =
      f.registry.identify_preprocessed(pre);
  EXPECT_FALSE(result.identity.has_value());
  EXPECT_EQ(result.detected_case, DetectedCase::kRejected);
  EXPECT_TRUE(result.scores.empty());
}

// Regression: identify's score sort used a plain `a > b` comparator,
// which is not a strict weak ordering once a model emits a NaN decision
// value (NaN compares false against everything) — std::sort may then
// read out of bounds.  detail::score_order keeps real scores first,
// best-first, with NaNs equivalent among themselves at the tail.
TEST(Registry, ScoreOrderIsStrictWeakOrderingWithNaNs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<std::string, double>> scores;
  for (int i = 0; i < 64; ++i) {
    const int mode = i % 4;
    std::string name = "u";
    name += std::to_string(i);
    scores.emplace_back(std::move(name),
                        mode == 0 ? nan : (1.0 - 0.1 * (i % 7)));
  }
  std::sort(scores.begin(), scores.end(), detail::score_order);
  bool seen_nan = false;
  for (std::size_t i = 0; i + 1 < scores.size(); ++i) {
    if (std::isnan(scores[i].second)) {
      seen_nan = true;
    } else {
      ASSERT_FALSE(seen_nan) << "real score after a NaN at index " << i;
      if (!std::isnan(scores[i + 1].second)) {
        EXPECT_GE(scores[i].second, scores[i + 1].second);
      }
    }
  }
  // Pairwise strict-weak-ordering axioms on a mixed sample.
  const std::pair<std::string, double> a{"a", 1.0}, b{"b", nan}, c{"c", nan};
  EXPECT_FALSE(detail::score_order(b, b));           // irreflexive
  EXPECT_TRUE(detail::score_order(a, b));            // real before NaN
  EXPECT_FALSE(detail::score_order(b, a));
  EXPECT_FALSE(detail::score_order(b, c));           // NaNs equivalent
  EXPECT_FALSE(detail::score_order(c, b));
}

}  // namespace
}  // namespace p2auth::core
