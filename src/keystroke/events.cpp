#include "keystroke/events.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p2auth::keystroke {

std::vector<KeystrokeEvent> EntryRecord::watch_hand_events() const {
  std::vector<KeystrokeEvent> out;
  for (const auto& e : events) {
    if (e.hand == Hand::kWatchHand) out.push_back(e);
  }
  return out;
}

std::vector<std::size_t> recorded_indices(const EntryRecord& entry,
                                          double rate_hz,
                                          std::size_t trace_length) {
  if (rate_hz <= 0.0) {
    throw std::invalid_argument("recorded_indices: rate must be positive");
  }
  const double last =
      trace_length == 0 ? 0.0 : static_cast<double>(trace_length - 1);
  std::vector<std::size_t> out;
  out.reserve(entry.events.size());
  for (const auto& e : entry.events) {
    // Clamped in double before the cast: converting an out-of-range value
    // (+-inf, 1e300) to an integer is undefined.  NaN maps to 0, since
    // std::max(0.0, NaN) returns its first argument.
    const double idx = std::min(
        last, std::max(0.0, std::round(e.recorded_time_s * rate_hz)));
    out.push_back(static_cast<std::size_t>(idx));
  }
  return out;
}

}  // namespace p2auth::keystroke
