#include "keystroke/timing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace p2auth::keystroke {
namespace {

TEST(TimingProfile, SampleWithinDocumentedRanges) {
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const TimingProfile p = TimingProfile::sample(rng);
    EXPECT_GE(p.mean_interval_s, 0.8);
    EXPECT_LE(p.mean_interval_s, 1.5);
    EXPECT_GT(p.cadence_jitter, 0.0);
    EXPECT_GT(p.keystroke_jitter_s, 0.0);
    EXPECT_GT(p.lead_in_s, 0.0);
  }
}

TEST(WatchHandCount, MatchesCase) {
  EXPECT_EQ(watch_hand_count(InputCase::kOneHanded), 4u);
  EXPECT_EQ(watch_hand_count(InputCase::kTwoHandedThree), 3u);
  EXPECT_EQ(watch_hand_count(InputCase::kTwoHandedTwo), 2u);
}

TEST(GenerateEntry, ProducesOneEventPerDigitInOrder) {
  util::Rng rng(2);
  const TimingProfile profile;
  const EntryRecord e =
      generate_entry(Pin("1628"), profile, InputCase::kOneHanded, rng);
  ASSERT_EQ(e.events.size(), 4u);
  EXPECT_EQ(e.events[0].digit, '1');
  EXPECT_EQ(e.events[3].digit, '8');
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(e.events[i].true_time_s, e.events[i - 1].true_time_s);
  }
}

TEST(GenerateEntry, EmptyPinThrows) {
  util::Rng rng(3);
  EXPECT_THROW(
      generate_entry(Pin(), TimingProfile{}, InputCase::kOneHanded, rng),
      std::invalid_argument);
}

TEST(GenerateEntry, RecordedTimesLagTrueTimesByDelayRange) {
  util::Rng rng(4);
  const TimingProfile profile;
  for (int trial = 0; trial < 20; ++trial) {
    const EntryRecord e =
        generate_entry(Pin("5094"), profile, InputCase::kOneHanded, rng);
    for (const auto& ev : e.events) {
      const double delay = ev.recorded_time_s - ev.true_time_s;
      EXPECT_GE(delay, profile.comm_delay_lo_s);
      EXPECT_LE(delay, profile.comm_delay_hi_s);
    }
  }
}

TEST(GenerateEntry, MeanIntervalNearProfile) {
  util::Rng rng(5);
  TimingProfile profile;
  profile.mean_interval_s = 1.1;
  double total = 0.0;
  int count = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const EntryRecord e =
        generate_entry(Pin("2580"), profile, InputCase::kOneHanded, rng);
    for (std::size_t i = 1; i < e.events.size(); ++i) {
      total += e.events[i].true_time_s - e.events[i - 1].true_time_s;
      ++count;
    }
  }
  // Paper: average inter-keystroke interval ~1.1 s (plus travel time).
  EXPECT_NEAR(total / count, 1.1, 0.25);
}

TEST(GenerateEntry, HandAssignmentMatchesCase) {
  util::Rng rng(6);
  const TimingProfile profile;
  for (const auto& [input_case, expected] :
       {std::pair{InputCase::kOneHanded, 4u},
        std::pair{InputCase::kTwoHandedThree, 3u},
        std::pair{InputCase::kTwoHandedTwo, 2u}}) {
    const EntryRecord e =
        generate_entry(Pin("7412"), profile, input_case, rng);
    EXPECT_EQ(e.watch_hand_events().size(), expected);
  }
}

TEST(GenerateEntry, WatchHandPositionsVary) {
  util::Rng rng(7);
  const TimingProfile profile;
  std::set<std::string> patterns;
  for (int trial = 0; trial < 40; ++trial) {
    const EntryRecord e =
        generate_entry(Pin("7412"), profile, InputCase::kTwoHandedTwo, rng);
    std::string pattern;
    for (const auto& ev : e.events) {
      pattern += ev.hand == Hand::kWatchHand ? 'W' : 'o';
    }
    patterns.insert(pattern);
  }
  // With C(4,2) = 6 possible assignments, 40 draws should find several.
  EXPECT_GE(patterns.size(), 3u);
}

TEST(GenerateEntry, TravelTimeLengthensDistantKeyIntervals) {
  util::Rng rng(9);
  TimingProfile profile;
  profile.keystroke_jitter_s = 0.0;
  profile.cadence_jitter = 1e-9;
  profile.travel_s_per_key = 0.1;
  double near_total = 0.0, far_total = 0.0;
  for (int i = 0; i < 40; ++i) {
    // "1111": zero travel.  "1919": max vertical travel each keystroke.
    const EntryRecord near_entry =
        generate_entry(Pin("1111"), profile, InputCase::kOneHanded, rng);
    const EntryRecord far_entry =
        generate_entry(Pin("1919"), profile, InputCase::kOneHanded, rng);
    near_total += near_entry.events.back().true_time_s -
                  near_entry.events.front().true_time_s;
    far_total += far_entry.events.back().true_time_s -
                 far_entry.events.front().true_time_s;
  }
  EXPECT_GT(far_total, near_total + 40 * 0.3);  // 3 hops x ~2.8 keys x 0.1s
}

TEST(WatchHandEvents, FiltersByHand) {
  EntryRecord e;
  e.pin = Pin("12");
  KeystrokeEvent a, b;
  a.hand = Hand::kWatchHand;
  b.hand = Hand::kOtherHand;
  e.events = {a, b};
  EXPECT_EQ(e.watch_hand_events().size(), 1u);
}

TEST(EntryDuration, CoversLastKeystrokePlusTail) {
  util::Rng rng(8);
  const EntryRecord e = generate_entry(Pin("1628"), TimingProfile{},
                                       InputCase::kOneHanded, rng);
  const double last = e.events.back().true_time_s;
  EXPECT_DOUBLE_EQ(entry_duration_s(e, 1.2), last + 1.2);
}

TEST(RecordedIndices, ConvertsAndClamps) {
  EntryRecord e;
  e.pin = Pin("12");
  KeystrokeEvent a, b;
  a.recorded_time_s = 0.5;
  b.recorded_time_s = 100.0;  // beyond trace
  e.events = {a, b};
  const auto idx = recorded_indices(e, 100.0, 200);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 50u);
  EXPECT_EQ(idx[1], 199u);  // clamped to last sample
  EXPECT_THROW(recorded_indices(e, 0.0, 100), std::invalid_argument);

  // Non-finite and huge times clamp into the trace instead of reaching an
  // undefined float-to-integer conversion (the UBSan CI leg checks this).
  const double kInf = std::numeric_limits<double>::infinity();
  const double times[] = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                          1e300, -1e300};
  const std::size_t want[] = {199, 0, 0, 199, 0};
  e.events.assign(std::size(times), KeystrokeEvent{});
  for (std::size_t i = 0; i < std::size(times); ++i) {
    e.events[i].recorded_time_s = times[i];
  }
  const auto wild = recorded_indices(e, 100.0, 200);
  ASSERT_EQ(wild.size(), std::size(times));
  for (std::size_t i = 0; i < wild.size(); ++i) {
    EXPECT_EQ(wild[i], want[i]) << "time " << times[i];
  }
  EXPECT_EQ(recorded_indices(e, 100.0, 0), std::vector<std::size_t>(5, 0));
}

}  // namespace
}  // namespace p2auth::keystroke
