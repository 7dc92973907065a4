#include "core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2auth::core {

void UserRegistry::add(const std::string& name, EnrolledUser user) {
  if (name.empty()) {
    throw std::invalid_argument("UserRegistry::add: empty name");
  }
  const auto [it, inserted] = users_.emplace(name, std::move(user));
  (void)it;
  if (!inserted) {
    throw std::invalid_argument("UserRegistry::add: duplicate name '" +
                                name + "'");
  }
}

bool UserRegistry::remove(const std::string& name) {
  return users_.erase(name) > 0;
}

const EnrolledUser* UserRegistry::find(const std::string& name) const {
  const auto it = users_.find(name);
  return it == users_.end() ? nullptr : &it->second;
}

std::vector<std::string> UserRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(users_.size());
  for (const auto& [name, user] : users_) out.push_back(name);
  return out;
}

AuthResult UserRegistry::verify(const std::string& name,
                                const Observation& observation,
                                const AuthOptions& options) const {
  const EnrolledUser* user = find(name);
  if (user == nullptr) {
    throw std::invalid_argument("UserRegistry::verify: unknown user '" +
                                name + "'");
  }
  return authenticate(*user, observation, options);
}

bool detail::score_order(const std::pair<std::string, double>& a,
                         const std::pair<std::string, double>& b) noexcept {
  const bool a_nan = std::isnan(a.second);
  const bool b_nan = std::isnan(b.second);
  if (a_nan != b_nan) return b_nan;  // real scores before NaN
  if (a_nan) return false;           // all NaNs are equivalent
  return a.second > b.second;
}

UserRegistry::IdentifyResult UserRegistry::identify(
    const Observation& observation, const AuthOptions& options) const {
  if (users_.empty()) {
    throw std::logic_error("UserRegistry::identify: empty registry");
  }
  const PreprocessedEntry pre =
      preprocess_entry(observation, options.preprocess);
  return identify_preprocessed(pre, options);
}

UserRegistry::IdentifyResult UserRegistry::identify_preprocessed(
    const PreprocessedEntry& pre, const AuthOptions& options) const {
  if (users_.empty()) {
    throw std::logic_error("UserRegistry::identify: empty registry");
  }
  IdentifyResult result;
  result.detected_case = pre.detected_case;
  if (pre.detected_case != DetectedCase::kOneHanded) {
    return result;  // identification needs the full-waveform evidence
  }
  // A degenerate entry can carry the one-handed label with no calibrated
  // keystrokes; front() on the empty index vector is UB, so such entries
  // are rejected instead of scored.
  if (pre.calibrated_indices.empty()) {
    result.detected_case = DetectedCase::kRejected;
    return result;
  }
  std::size_t first = pre.calibrated_indices.front();
  const std::size_t n_keystrokes =
      std::min(pre.keystroke_present.size(), pre.calibrated_indices.size());
  for (std::size_t i = 0; i < n_keystrokes; ++i) {
    if (pre.keystroke_present[i]) {
      first = pre.calibrated_indices[i];
      break;
    }
  }
  const std::vector<Series> full = extract_full_waveform(
      pre.filtered, first, pre.rate_hz, options.segmentation);
  for (const auto& [name, user] : users_) {
    if (!user.full_model.has_value() || !user.full_model->trained()) {
      continue;
    }
    result.scores.emplace_back(name, user.full_model->decision(full));
  }
  std::sort(result.scores.begin(), result.scores.end(), detail::score_order);
  // NaN >= 0.0 is false, so an all-NaN score list never names an
  // identity.
  if (!result.scores.empty() && result.scores.front().second >= 0.0) {
    result.identity = result.scores.front().first;
  }
  return result;
}

}  // namespace p2auth::core
