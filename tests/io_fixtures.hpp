// Deterministic synthetic models and store-file helpers for the
// persistence tests.
//
// Models are built directly via the from_parts validators (no enrollment
// pipeline), so constructing a structurally complete EnrolledUser costs
// microseconds and the same seed always produces byte-identical stores.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/binary.hpp"
#include "util/rng.hpp"

namespace p2auth::testing {

inline core::WaveformModel make_test_model(util::Rng& rng,
                                           std::size_t n_channels) {
  std::vector<ml::MiniRocket> channels;
  std::size_t total_features = 0;
  for (std::size_t c = 0; c < n_channels; ++c) {
    ml::MiniRocketOptions options;
    options.num_features = 168;
    options.max_dilations = 2;
    std::vector<double> biases(84 * 2);
    for (double& b : biases) b = rng.normal(0.0, 1.0);
    channels.push_back(ml::MiniRocket::from_parts(
        options, /*input_length=*/64, {1, 3}, /*biases_per_combo=*/1,
        std::move(biases)));
    total_features += channels.back().num_features();
  }
  ml::MiniRocketOptions mc_options;
  mc_options.num_features = 168 * n_channels;
  mc_options.max_dilations = 2;
  auto rocket =
      ml::MultiChannelMiniRocket::from_parts(mc_options, std::move(channels));
  std::vector<double> weights(total_features);
  for (double& w : weights) w = rng.normal(0.0, 0.1);
  auto ridge = linalg::RidgeClassifier::from_parts(std::move(weights),
                                                   rng.normal(0.0, 0.5), 1.0);
  return core::WaveformModel::from_parts(std::move(rocket), std::move(ridge),
                                         rng.normal(0.0, 0.2));
}

inline core::EnrolledUser make_test_user(util::Rng& rng, std::uint32_t id,
                                         const std::string& pin) {
  core::EnrolledUser user;
  user.pin = keystroke::Pin(pin);
  user.privacy_boost = true;
  user.user_id = id;
  user.stats.full_positives = 9;
  user.stats.full_negatives = 30;
  user.stats.segment_positives = 36;
  user.stats.segment_negatives = 120;
  user.stats.key_models_trained = 1;
  user.full_model = make_test_model(rng, 1);
  user.boost_model = make_test_model(rng, 1);
  if (!pin.empty()) {
    user.key_models[static_cast<std::size_t>(pin[0] - '0')] =
        make_test_model(rng, 1);
  }
  return user;
}

inline core::UserRegistry make_test_registry(std::uint64_t seed = 20260808) {
  util::Rng rng(seed);
  core::UserRegistry registry;
  registry.add("alice", make_test_user(rng, 1, "1628"));
  registry.add("bob", make_test_user(rng, 2, "0413"));
  registry.add("carol", make_test_user(rng, 3, "77"));
  return registry;
}

// Round-trips fitted transforms through the P2MDL001 record codec: they
// ride as the channels of one user's full model, behind a zero ridge of
// matching width, and come back through the reader's from_parts
// validators.
inline ml::MultiChannelMiniRocket store_round_trip(
    const ml::MultiChannelMiniRocket& rocket) {
  core::EnrolledUser user;
  user.pin = keystroke::Pin("1628");
  user.full_model = core::WaveformModel::from_parts(
      rocket,
      linalg::RidgeClassifier::from_parts(
          linalg::Vector(rocket.num_features(), 0.0), 0.0, 1.0),
      0.0);
  const std::vector<std::uint8_t> record = io::build_user_record(user);
  return io::materialize_user(io::parse_user_record(record))
      .full_model->rocket();
}

inline ml::MiniRocket store_round_trip(const ml::MiniRocket& rocket) {
  return store_round_trip(
             ml::MultiChannelMiniRocket::from_parts(rocket.options(), {rocket}))
      .channel(0);
}

// A store path unique to this process, removed on destruction.  ctest
// runs the cases of one suite as parallel processes, so fixed names
// would collide under ctest -j.
struct TempStore {
  std::string path;
  explicit TempStore(const std::string& stem)
      : path(stem + "." + std::to_string(static_cast<long>(::getpid())) +
             ".p2mdl") {}
  ~TempStore() { std::remove(path.c_str()); }
  TempStore(const TempStore&) = delete;
  TempStore& operator=(const TempStore&) = delete;
};

inline std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline void write_file_bytes(const std::string& path,
                             const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace p2auth::testing
