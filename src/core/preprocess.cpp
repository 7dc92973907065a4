#include "core/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "signal/detrend.hpp"
#include "signal/filters.hpp"

namespace p2auth::core {

namespace {

// Scales a 100 Hz-referenced sample count to `rate_hz`, keeping it odd
// when `keep_odd` (filter windows must stay odd).
std::size_t scaled(std::size_t count_100hz, double rate_hz, bool keep_odd) {
  const double f = rate_hz / 100.0;
  auto s = static_cast<std::size_t>(
      std::max(1.0, std::round(static_cast<double>(count_100hz) * f)));
  if (keep_odd && s % 2 == 0) ++s;
  return s;
}

}  // namespace

std::string to_string(DetectedCase c) {
  switch (c) {
    case DetectedCase::kOneHanded:
      return "one-handed";
    case DetectedCase::kTwoHandedThree:
      return "two-handed-3";
    case DetectedCase::kTwoHandedTwo:
      return "two-handed-2";
    case DetectedCase::kRejected:
      return "rejected";
  }
  return "?";
}

std::string to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kWrongPin:
      return "wrong PIN";
    case RejectReason::kMalformedEntry:
      return "malformed keystroke log";
    case RejectReason::kTooFewKeystrokes:
      return "too few keystrokes detected in PPG";
    case RejectReason::kNoUsableChannel:
      return "no usable PPG channel";
    case RejectReason::kDegradedEvidence:
      return "masked channel degraded biometric evidence";
    case RejectReason::kNoModel:
      return "required model not enrolled";
    case RejectReason::kModelRejected:
      return "waveform model rejected";
    case RejectReason::kVotesRejected:
      return "keystroke votes rejected";
    case RejectReason::kTimeout:
      return "attempt timed out";
    case RejectReason::kBufferOverflow:
      return "sample buffer overflowed";
    case RejectReason::kLockedOut:
      return "locked out (backoff)";
    case RejectReason::kIncomplete:
      return "entry incomplete";
    case RejectReason::kTemplateStale:
      return "enrolled templates stale";
  }
  return "?";
}

const char* reject_reason_slug(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kWrongPin:
      return "wrong_pin";
    case RejectReason::kMalformedEntry:
      return "malformed_entry";
    case RejectReason::kTooFewKeystrokes:
      return "too_few_keystrokes";
    case RejectReason::kNoUsableChannel:
      return "no_usable_channel";
    case RejectReason::kDegradedEvidence:
      return "degraded_evidence";
    case RejectReason::kNoModel:
      return "no_model";
    case RejectReason::kModelRejected:
      return "model";
    case RejectReason::kVotesRejected:
      return "votes";
    case RejectReason::kTimeout:
      return "timeout";
    case RejectReason::kBufferOverflow:
      return "buffer_overflow";
    case RejectReason::kLockedOut:
      return "locked_out";
    case RejectReason::kIncomplete:
      return "incomplete";
    case RejectReason::kTemplateStale:
      return "template_stale";
  }
  return "?";
}

std::string to_string(ModelPath p) {
  switch (p) {
    case ModelPath::kNone:
      return "none";
    case ModelPath::kFullWaveform:
      return "full-waveform";
    case ModelPath::kBoost:
      return "boost";
    case ModelPath::kPerKeyVotes:
      return "per-key-votes";
  }
  return "?";
}

const char* model_path_slug(ModelPath p) noexcept {
  switch (p) {
    case ModelPath::kNone:
      return "none";
    case ModelPath::kFullWaveform:
      return "full_waveform";
    case ModelPath::kBoost:
      return "boost";
    case ModelPath::kPerKeyVotes:
      return "per_key_votes";
  }
  return "?";
}

const char* detected_case_slug(DetectedCase c) noexcept {
  switch (c) {
    case DetectedCase::kOneHanded:
      return "one_handed";
    case DetectedCase::kTwoHandedThree:
      return "two_handed_3";
    case DetectedCase::kTwoHandedTwo:
      return "two_handed_2";
    case DetectedCase::kRejected:
      return "rejected";
  }
  return "?";
}

const char* reject_reason_slug_from_code(std::uint8_t code) noexcept {
  return code < kRejectReasonCodes
             ? reject_reason_slug(static_cast<RejectReason>(code))
             : "unknown";
}

const char* detected_case_slug_from_code(std::uint8_t code) noexcept {
  return code < kDetectedCaseCodes
             ? detected_case_slug(static_cast<DetectedCase>(code))
             : "unknown";
}

const char* model_path_slug_from_code(std::uint8_t code) noexcept {
  return code < kModelPathCodes
             ? model_path_slug(static_cast<ModelPath>(code))
             : "unknown";
}

DetectedCase classify_case(std::size_t detected_count) noexcept {
  switch (detected_count) {
    case 4:
      return DetectedCase::kOneHanded;
    case 3:
      return DetectedCase::kTwoHandedThree;
    case 2:
      return DetectedCase::kTwoHandedTwo;
    default:
      return DetectedCase::kRejected;
  }
}

PreprocessedEntry preprocess_entry(const Observation& observation,
                                   const PreprocessOptions& options) {
  const obs::Span span("preprocess", "core");
  const obs::ScopedLatency latency("preprocess.latency_us");
  const ppg::MultiChannelTrace& trace = observation.trace;
  if (trace.channels.empty() || trace.length() == 0) {
    throw std::invalid_argument("preprocess_entry: empty trace");
  }
  if (options.reference_channel >= trace.num_channels()) {
    throw std::invalid_argument("preprocess_entry: bad reference channel");
  }
  for (const Series& ch : trace.channels) {
    if (ch.size() != trace.length()) {
      throw std::invalid_argument("preprocess_entry: ragged channels");
    }
  }
  const double rate = trace.rate_hz;

  PreprocessedEntry out;
  out.rate_hz = rate;
  out.reference_channel_used = options.reference_channel;

  // 1.0 Channel-health gating: score every channel; mask the unusable
  // ones so one bad channel never poisons the attempt.
  {
    const obs::Span stage("preprocess.channel_gating", "core");
    out.health = assess_channels(trace, options.quality);
    if (!out.health.any_usable()) {
      // Every channel dead/poisoned: reject before filtering.  Callers
      // see detected_case == kRejected plus no_usable_channel().
      obs::add_counter("preprocess.entries");
      obs::add_counter("preprocess.reject.no_usable_channel");
      out.detected_case = DetectedCase::kRejected;
      return out;
    }
    out.reference_channel_used =
        pick_reference_channel(out.health, options.reference_channel);
  }

  // 1.1 Noise Removal: median filter per channel.  Masked channels are
  // zeroed — removing their evidence entirely — never interpolated into
  // plausible physiology, so gating cannot manufacture acceptance.
  {
    const obs::Span stage("preprocess.noise_removal", "core");
    const std::size_t median_w =
        scaled(options.median_window_100hz, rate, /*keep_odd=*/true);
    out.filtered.reserve(trace.num_channels());
    for (std::size_t c = 0; c < trace.num_channels(); ++c) {
      if (!out.health.channels[c].usable) {
        out.filtered.emplace_back(trace.length(), 0.0);
        continue;
      }
      if (out.health.channels[c].nan_rate > 0.0) {
        // Usable despite stray non-finite samples (a raised max_nan_rate):
        // hold-repair them so the filter chain only ever sees finite data.
        Series repaired = trace.channels[c];
        repair_nonfinite(repaired);
        out.filtered.push_back(signal::median_filter(repaired, median_w));
        continue;
      }
      out.filtered.push_back(
          signal::median_filter(trace.channels[c], median_w));
    }
  }
  const Series& reference = out.filtered[out.reference_channel_used];

  // 1.2 Fine-grained Keystroke Time Calibration on the reference channel.
  {
    const obs::Span stage("preprocess.calibration", "core");
    out.recorded_indices =
        keystroke::recorded_indices(observation.entry, rate, trace.length());
    signal::CalibrationOptions calib = options.calibration;
    calib.sg_window = scaled(calib.sg_window, rate, /*keep_odd=*/true);
    calib.objective_window =
        scaled(calib.objective_window, rate, /*keep_odd=*/false);
    calib.search_half_width =
        scaled(calib.search_half_width, rate, /*keep_odd=*/false);
    // Guard: SG window must stay larger than the polynomial order.
    calib.sg_window = std::max<std::size_t>(
        calib.sg_window, static_cast<std::size_t>(calib.sg_polyorder) + 2 +
                             ((calib.sg_polyorder % 2) ? 0 : 1));
    if (calib.sg_window % 2 == 0) ++calib.sg_window;
    out.calibrated_indices =
        options.calibrate
            ? signal::calibrate_keystrokes(reference, out.recorded_indices,
                                           calib)
            : out.recorded_indices;
  }

  // 1.3 PIN Input Case Identification: detrend, then threshold the
  // short-time energy near each calibrated keystroke.
  {
    const obs::Span stage("preprocess.case_id", "core");
    out.detrended_reference =
        options.detrend_before_energy
            ? signal::detrend_smoothness_priors(reference,
                                                options.detrend_lambda)
            : reference;
    signal::EnergyDetectorOptions energy = options.energy;
    energy.energy_window = scaled(energy.energy_window, rate, false);
    energy.search_half_width = scaled(energy.search_half_width, rate, false);
    out.short_time_energy = signal::short_time_energy(
        out.detrended_reference, energy.energy_window);
    out.keystroke_present = signal::detect_keystrokes(
        out.detrended_reference, out.calibrated_indices, energy);
    out.detected_case =
        classify_case(signal::count_detected(out.keystroke_present));
  }

  obs::add_counter("preprocess.entries");
  switch (out.detected_case) {
    case DetectedCase::kOneHanded:
      obs::add_counter("preprocess.case.one_handed");
      break;
    case DetectedCase::kTwoHandedThree:
      obs::add_counter("preprocess.case.two_handed_3");
      break;
    case DetectedCase::kTwoHandedTwo:
      obs::add_counter("preprocess.case.two_handed_2");
      break;
    case DetectedCase::kRejected:
      obs::add_counter("preprocess.case.rejected");
      break;
  }
  return out;
}

}  // namespace p2auth::core
