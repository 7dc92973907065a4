#include "io/binary.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/authenticator.hpp"
#include "io/format.hpp"
#include "io/mmap_registry.hpp"
#include "io_fixtures.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "util/crc32.hpp"
#include "util/serialize.hpp"

namespace p2auth::io {
namespace {

using core::EnrolledUser;
using core::UserRegistry;
using testing::TempStore;
using util::SerializeErrc;
using util::SerializeError;

// The store encodes every persisted field, so equal encodings mean
// equal users / registries.
std::vector<std::uint8_t> bytes_of(const EnrolledUser& user) {
  return build_user_record(user);
}

std::vector<std::uint8_t> bytes_of(const UserRegistry& registry) {
  const TempStore tmp("io_bytes_of");
  save_user_registry_binary_file(registry, tmp.path);
  return testing::read_file_bytes(tmp.path);
}

UserRegistry materialize_all(const MappedRegistry& mapped) {
  UserRegistry out;
  for (const std::string_view name : mapped.names()) {
    out.add(std::string(name), mapped.materialize(name));
  }
  return out;
}

EnrolledUser fixture_user() {
  util::Rng rng(101);
  return testing::make_test_user(rng, 7, "1628");
}

// Re-stamps a record's CRC trailer after a deliberate patch, so the
// structural validators (not the CRC) see the mutation.
void restamp_crc(std::vector<std::uint8_t>& record) {
  const std::uint32_t crc = util::crc32(
      std::span<const std::uint8_t>(record).first(record.size() -
                                                  kRecordTrailerBytes));
  std::memcpy(record.data() + record.size() - 12, &crc, sizeof(crc));
}

TEST(Crc32, MatchesIeeeCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926u);
  EXPECT_EQ(util::crc32({}), 0u);
}

TEST(IoBinary, UserRoundTripIsLossless) {
  const EnrolledUser user = fixture_user();
  const std::vector<std::uint8_t> record = build_user_record(user);
  const EnrolledUser restored = materialize_user(parse_user_record(record));
  EXPECT_EQ(bytes_of(restored), record);
}

TEST(IoBinary, RegistryRoundTripIsLossless) {
  const UserRegistry registry = testing::make_test_registry();
  const TempStore tmp("io_registry_roundtrip");
  save_user_registry_binary_file(registry, tmp.path);
  const UserRegistry restored = load_user_registry_binary_file(tmp.path);
  ASSERT_EQ(restored.names(), registry.names());
  for (const std::string& name : registry.names()) {
    EXPECT_EQ(bytes_of(*restored.find(name)), bytes_of(*registry.find(name)))
        << name;
  }
}

TEST(IoBinary, ZeroCopyViewMatchesSource) {
  const EnrolledUser user = fixture_user();
  const std::vector<std::uint8_t> record = build_user_record(user);
  const MappedUser view = parse_user_record(record);

  EXPECT_EQ(view.pin, user.pin.digits());
  EXPECT_EQ(view.user_id, user.user_id);
  EXPECT_TRUE(view.privacy_boost);
  EXPECT_EQ(view.stats.full_positives, user.stats.full_positives);
  EXPECT_EQ(view.stats.key_models_trained, user.stats.key_models_trained);
  ASSERT_TRUE(view.full_model.has_value());
  ASSERT_TRUE(view.boost_model.has_value());
  ASSERT_TRUE(view.key_models[1].has_value());  // pin starts with '1'
  EXPECT_FALSE(view.key_models[0].has_value());

  const core::WaveformModel& model = *user.full_model;
  const MappedWaveformModel& mapped = *view.full_model;
  EXPECT_EQ(mapped.threshold, model.threshold());
  ASSERT_EQ(mapped.channels.size(), model.rocket().num_channels());
  const ml::MiniRocket& ch = model.rocket().channel(0);
  ASSERT_EQ(mapped.channels[0].dilations.size(), ch.dilations().size());
  for (std::size_t i = 0; i < ch.dilations().size(); ++i) {
    EXPECT_EQ(mapped.channels[0].dilations[i], ch.dilations()[i]);
  }
  ASSERT_EQ(mapped.channels[0].biases.size(), ch.biases().size());
  for (std::size_t i = 0; i < ch.biases().size(); ++i) {
    EXPECT_EQ(mapped.channels[0].biases[i], ch.biases()[i]);
  }
  EXPECT_EQ(mapped.ridge.bias, model.ridge().bias());
  EXPECT_EQ(mapped.ridge.lambda, model.ridge().chosen_lambda());
  ASSERT_EQ(mapped.ridge.weights.size(), model.ridge().weights().size());
  for (std::size_t i = 0; i < mapped.ridge.weights.size(); ++i) {
    EXPECT_EQ(mapped.ridge.weights[i], model.ridge().weights()[i]);
  }
  // The spans must point into the record, not at copies.
  const auto* lo = record.data();
  const auto* hi = record.data() + record.size();
  for (const void* p : {static_cast<const void*>(
                            mapped.channels[0].biases.data()),
                        static_cast<const void*>(mapped.ridge.weights.data())}) {
    const auto* ptr = static_cast<const std::uint8_t*>(p);
    EXPECT_GE(ptr, lo);
    EXPECT_LT(ptr, hi);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptr) % 8, 0u);
  }
}

TEST(IoBinary, MappedRegistryLookupAndMaterialize) {
  const UserRegistry registry = testing::make_test_registry();
  const TempStore tmp("io_mapped_registry");
  save_user_registry_binary_file(registry, tmp.path);

  const MappedRegistry mapped = MappedRegistry::open(tmp.path);
  EXPECT_EQ(mapped.size(), registry.size());
  EXPECT_TRUE(mapped.contains("alice"));
  EXPECT_TRUE(mapped.contains("carol"));
  EXPECT_FALSE(mapped.contains("mallory"));
  EXPECT_THROW(mapped.materialize("mallory"), std::invalid_argument);
  EXPECT_NO_THROW(mapped.verify_all());

  const auto names = mapped.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alice");  // file order is the registry's sorted order

  EXPECT_EQ(bytes_of(materialize_all(mapped)), bytes_of(registry));
}

// Regenerating a store while a reader has it mapped must not pull the
// file out from under the mapping: the writer replaces the file, so the
// open mapping keeps the old generation and a reopen sees the new one.
TEST(IoBinary, ReplacingAMappedStoreKeepsTheOldGenerationReadable) {
  const UserRegistry old_generation = testing::make_test_registry(1);
  // Fewer users: an in-place rewrite would shrink the file below the
  // old mapping's last pages.
  UserRegistry new_generation = testing::make_test_registry(2);
  new_generation.remove("carol");
  const TempStore tmp("io_replace_mapped");
  save_user_registry_binary_file(old_generation, tmp.path);

  const MappedRegistry before = MappedRegistry::open(tmp.path);
  save_user_registry_binary_file(new_generation, tmp.path);

  EXPECT_EQ(bytes_of(materialize_all(before)), bytes_of(old_generation));
  const MappedRegistry after = MappedRegistry::open(tmp.path);
  EXPECT_EQ(bytes_of(materialize_all(after)), bytes_of(new_generation));
}

TEST(IoBinary, EmptyRegistryRoundTrips) {
  const UserRegistry empty;
  const TempStore tmp("io_empty_registry");
  save_user_registry_binary_file(empty, tmp.path);
  const UserRegistry restored = load_user_registry_binary_file(tmp.path);
  EXPECT_EQ(restored.size(), 0u);
}

// ---- real enrolled models through the store ---------------------------

// One enrolled user + a few probe observations, built once (enrollment is
// the expensive part).
struct Enrolled {
  sim::Population population;
  keystroke::Pin pin{"1628"};
  EnrolledUser user;
  std::vector<core::Observation> probes;

  Enrolled() {
    sim::PopulationConfig cfg;
    cfg.num_users = 1;
    cfg.seed = 505;
    population = sim::make_population(cfg);
    util::Rng rng(606);
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
    config.privacy_boost = true;
    config.rocket.num_features = 2000;
    user = core::enroll_user(pin, pos, neg, config);
    util::Rng tr = rng.fork("probes");
    for (int i = 0; i < 4; ++i) {
      util::Rng r = tr.fork(i);
      sim::Trial t = sim::make_trial(population.users[0], pin, options, r);
      probes.push_back({std::move(t.entry), std::move(t.trace)});
    }
  }
};

const Enrolled& enrolled() {
  static const Enrolled instance;
  return instance;
}

// Writes `user` into a one-user store and reads it back through the
// mapping, the way the service loads a model.
EnrolledUser round_trip(const EnrolledUser& user) {
  UserRegistry registry;
  registry.add("user", user);
  const TempStore tmp("io_round_trip");
  save_user_registry_binary_file(registry, tmp.path);
  return MappedRegistry::open(tmp.path).materialize("user");
}

TEST(Serialization, WaveformModelRoundTripPreservesDecisions) {
  const Enrolled& f = enrolled();
  const EnrolledUser restored = round_trip(f.user);
  ASSERT_TRUE(restored.full_model.has_value());
  // The restored model must produce bit-identical decision values.
  for (const auto& obs : f.probes) {
    const auto pre = core::preprocess_entry(obs);
    const std::size_t first = pre.calibrated_indices.front();
    const auto full =
        core::extract_full_waveform(pre.filtered, first, pre.rate_hz);
    EXPECT_EQ(f.user.full_model->decision(full),
              restored.full_model->decision(full));
  }
  EXPECT_EQ(restored.full_model->threshold(), f.user.full_model->threshold());
}

TEST(Serialization, EnrolledUserRoundTripPreservesAuthDecisions) {
  const Enrolled& f = enrolled();
  const EnrolledUser restored = round_trip(f.user);
  EXPECT_EQ(restored.pin, f.user.pin);
  EXPECT_EQ(restored.privacy_boost, f.user.privacy_boost);
  EXPECT_EQ(restored.stats.key_models_trained,
            f.user.stats.key_models_trained);
  for (char d = '0'; d <= '9'; ++d) {
    EXPECT_EQ(restored.has_key_model(d), f.user.has_key_model(d));
  }
  core::AuthOptions auth;
  for (const auto& obs : f.probes) {
    const core::AuthResult a = core::authenticate(f.user, obs, auth);
    const core::AuthResult b = core::authenticate(restored, obs, auth);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.detected_case, b.detected_case);
    EXPECT_EQ(a.waveform_score, b.waveform_score);
  }
}

TEST(Serialization, FileRoundTrip) {
  const Enrolled& f = enrolled();
  UserRegistry registry;
  registry.add("enrolled", f.user);
  const TempStore tmp("io_enrolled_user");
  save_user_registry_binary_file(registry, tmp.path);
  const UserRegistry restored = load_user_registry_binary_file(tmp.path);
  ASSERT_NE(restored.find("enrolled"), nullptr);
  EXPECT_EQ(bytes_of(*restored.find("enrolled")), bytes_of(f.user));
}

TEST(Serialization, FileErrorsThrow) {
  const Enrolled& f = enrolled();
  const auto expect_io_error = [](auto&& call) {
    try {
      call();
      FAIL() << "expected SerializeError";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code(), SerializeErrc::kIoError) << e.what();
    }
  };
  UserRegistry registry;
  registry.add("enrolled", f.user);
  expect_io_error([&] {
    save_user_registry_binary_file(registry, "/no-such-dir/x.p2mdl");
  });
  expect_io_error(
      [] { (void)load_user_registry_binary_file("/no-such.p2mdl"); });
  expect_io_error([] { (void)MappedRegistry::open("/no-such.p2mdl"); });

  // A replacement that fails after its temp file was written (here the
  // rename, because the target is a directory) removes the temp file.
  const std::filesystem::path dir =
      "io_file_errors_dir." + std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "target.p2mdl");
  expect_io_error([&] {
    save_user_registry_binary_file(registry, (dir / "target.p2mdl").string());
  });
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "target.p2mdl");
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

// A store file cut in half, or one that does not start with the magic,
// is refused whole by the eager loader.
TEST(Serialization, CorruptedStreamThrows) {
  const Enrolled& f = enrolled();
  UserRegistry registry;
  registry.add("enrolled", f.user);
  const TempStore tmp("io_corrupted_store");
  save_user_registry_binary_file(registry, tmp.path);
  const std::vector<std::uint8_t> bytes = testing::read_file_bytes(tmp.path);

  testing::write_file_bytes(
      tmp.path, std::vector<std::uint8_t>(bytes.begin(),
                                          bytes.begin() + bytes.size() / 2));
  EXPECT_THROW(load_user_registry_binary_file(tmp.path), SerializeError);

  std::vector<std::uint8_t> bad = bytes;
  std::memcpy(bad.data(), "broken", 6);
  testing::write_file_bytes(tmp.path, bad);
  try {
    (void)load_user_registry_binary_file(tmp.path);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadMagic);
  }
}

TEST(Serialization, NonFiniteValuesInStoreRejectLoudly) {
  // Set the stored ridge bias to inf behind a valid CRC: the load must
  // throw instead of restoring a model whose decision scores are
  // non-finite.
  const Enrolled& f = enrolled();
  std::vector<std::uint8_t> record = build_user_record(f.user);
  const MappedUser view = parse_user_record(record);
  // RIDG payload: f64 bias, f64 lambda, u64 n, then the weights.
  const std::size_t bias_offset =
      static_cast<std::size_t>(
          reinterpret_cast<const std::uint8_t*>(
              view.full_model->ridge.weights.data()) -
          record.data()) -
      24;
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(record.data() + bias_offset, &inf, sizeof(inf));
  restamp_crc(record);
  try {
    (void)materialize_user(parse_user_record(record));
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code(), SerializeErrc::kBadValue);
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

TEST(Serialization, UntrainedModelRefusesToSave) {
  EnrolledUser user = fixture_user();
  user.full_model = core::WaveformModel{};
  EXPECT_THROW((void)build_user_record(user), std::logic_error);
}

TEST(Serialization, LoadedModelRefusesQualityEstimate) {
  // The LOO diagnostics are fit-time-only; a restored model must not
  // silently report a stale/absent quality estimate.
  const Enrolled& f = enrolled();
  EXPECT_NO_THROW((void)f.user.full_model->estimate_quality());
  const EnrolledUser restored = round_trip(f.user);
  EXPECT_THROW((void)restored.full_model->estimate_quality(),
               std::logic_error);
}

}  // namespace
}  // namespace p2auth::io
