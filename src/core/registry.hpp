// Multi-user registry: one device, several enrolled users.
//
// The paper evaluates verification (a claimed identity is checked), but a
// deployed device needs user management around it: add/remove/look-up of
// enrolled users (persisted by io::save_user_registry_binary_file), and
// — as a natural extension of the per-user models — 1-of-N
// *identification*: given an unclaimed entry, score it against every
// enrolled user's full-waveform model and accept the best-scoring user if
// their model accepts.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/authenticator.hpp"
#include "core/enrollment.hpp"

namespace p2auth::core {

class UserRegistry {
 public:
  UserRegistry() = default;

  // Registers an enrolled user under a device-unique name; a duplicate
  // name throws std::invalid_argument.
  void add(const std::string& name, EnrolledUser user);

  // Removes a user; returns false if the name is unknown.
  bool remove(const std::string& name);

  // Looks a user up; nullptr if unknown.
  const EnrolledUser* find(const std::string& name) const;

  std::vector<std::string> names() const;
  std::size_t size() const noexcept { return users_.size(); }
  bool empty() const noexcept { return users_.empty(); }

  // Verification: two-factor authentication of a *claimed* identity.
  // Unknown names throw std::invalid_argument.
  AuthResult verify(const std::string& name, const Observation& observation,
                    const AuthOptions& options = {}) const;

  struct IdentifyResult {
    // Best-scoring user whose model accepted; nullopt when nobody did.
    std::optional<std::string> identity;
    // Decision value per enrolled user (only users with a full-waveform
    // model participate), sorted best-first.
    std::vector<std::pair<std::string, double>> scores;
    DetectedCase detected_case = DetectedCase::kRejected;
  };

  // Identification (1-of-N): no claimed identity and no PIN check; the
  // entry must be one-handed (full-waveform evidence).  An empty registry
  // throws std::logic_error.
  IdentifyResult identify(const Observation& observation,
                          const AuthOptions& options = {}) const;

  // Scoring core of identify, split out so callers that already ran
  // preprocessing (and the regression tests for the degenerate-entry
  // guards) can drive it directly.  Entries whose preprocessing produced
  // no calibrated keystroke indices are rejected instead of dereferencing
  // an empty vector.
  IdentifyResult identify_preprocessed(const PreprocessedEntry& pre,
                                       const AuthOptions& options = {}) const;

 private:
  std::map<std::string, EnrolledUser> users_;
};

namespace detail {

// Best-score-first ordering for IdentifyResult::scores.  A strict weak
// ordering even when decision values are NaN (a plain `a > b` comparator
// is not: NaN compares false against everything, which breaks
// transitivity-of-equivalence and lets std::sort scribble out of
// bounds).  NaN scores sort after every real score and compare
// equivalent to each other.  Exposed for the regression tests.
bool score_order(const std::pair<std::string, double>& a,
                 const std::pair<std::string, double>& b) noexcept;

}  // namespace detail

}  // namespace p2auth::core
