// Binary (P2MDL001) persistence of enrolled users — the only format an
// enrolled model is stored in.
//
// One writer and one reader, sharing one record codec and the typed
// util::SerializeError surface:
//
//   * save_user_registry_binary_file writes a registry store by file
//     replacement; MappedRegistry (io/mmap_registry.hpp) is the reader;
//   * build_user_record / parse_user_record / materialize_user — the
//     record codec.  A record is a self-contained, CRC-trailed byte
//     string; parse_user_record views it in place and materialize_user
//     deep-copies the view into an owning EnrolledUser;
//   * the Mapped* view structs — dilations, biases and ridge weights are
//     spans pointing straight into the record bytes (the writer lays
//     them out 8-byte aligned), so a mapped model can be inspected
//     without copying the arrays.
//
// See io/format.hpp for the byte-level layout.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "io/format.hpp"

namespace p2auth::io {

// ---- zero-copy record views -------------------------------------------

// One channel's MiniRocket parameters viewed in place.
struct MappedMiniRocket {
  ml::MiniRocketOptions options;
  std::uint64_t input_length = 0;
  std::uint64_t biases_per_combo = 0;
  std::span<const std::int32_t> dilations;  // into the record bytes
  std::span<const double> biases;           // 8-aligned, usable in place
};

// Ridge parameters viewed in place.
struct MappedRidge {
  double bias = 0.0;
  double lambda = 0.0;
  std::span<const double> weights;
};

struct MappedWaveformModel {
  double threshold = 0.0;
  // The multi-channel wrapper's own options (each channel additionally
  // carries its per-channel split of the feature budget).
  ml::MiniRocketOptions mc_options;
  std::vector<MappedMiniRocket> channels;
  MappedRidge ridge;
};

// A CRC-checked, structurally validated view over one user record.
// Spans and string_views borrow the record bytes: they are valid only
// while the backing buffer / mapping is alive.
struct MappedUser {
  std::string_view pin;
  bool privacy_boost = false;
  std::uint32_t user_id = 0;
  core::EnrollmentStats stats;
  std::optional<MappedWaveformModel> full_model;
  std::optional<MappedWaveformModel> boost_model;
  std::array<std::optional<MappedWaveformModel>, 10> key_models;
};

// ---- record codec -----------------------------------------------------

// Serializes one user into a self-contained CRC-trailed record.  Throws
// std::logic_error when an engaged model is untrained.
std::vector<std::uint8_t> build_user_record(const core::EnrolledUser& user);

// Builds a zero-copy view.  Verifies the integrity trailer first (so
// flipped bits surface as kBadCrc before any structural decoding), then
// the structure.  Throws util::SerializeError.
MappedUser parse_user_record(std::span<const std::uint8_t> record);

// Deep-copies a view into an owning EnrolledUser, rebuilding the derived
// MiniRocket search index via the from_parts validators.
core::EnrolledUser materialize_user(const MappedUser& view);

// ---- registry store ---------------------------------------------------

// Writes the registry's records in name order plus the trailing name
// index.  The store is never rewritten in place: records stream one at a
// time into a sibling temp file, which is fsynced and renamed over
// `path`, so an open MappedRegistry keeps reading the old generation and
// a failed write leaves the old file intact.  Throws util::SerializeError.
void save_user_registry_binary_file(const core::UserRegistry& registry,
                                    const std::string& path);

// Eagerly loads a whole store into memory (UserRegistry::identify needs
// every user resident): MappedRegistry::open, then materialize each name.
// Throws util::SerializeError.
core::UserRegistry load_user_registry_binary_file(const std::string& path);

}  // namespace p2auth::io
