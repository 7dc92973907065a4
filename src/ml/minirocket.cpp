#include "ml/minirocket.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "backend/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace p2auth::ml {

MiniRocket MiniRocket::from_parts(MiniRocketOptions options,
                                  std::size_t input_length,
                                  std::vector<int> dilations,
                                  std::size_t biases_per_combo,
                                  std::vector<double> biases) {
  // The public constructor enforces the same precondition with
  // std::invalid_argument; here the values came from a (possibly
  // corrupted) store, so the failure is a deserialization error.
  if (options.num_features == 0 || options.max_dilations == 0) {
    throw util::SerializeError(util::SerializeErrc::kBadShape,
                               "MiniRocket::from_parts: zero budget");
  }
  MiniRocket rocket(options);
  rocket.input_length_ = input_length;
  rocket.dilations_ = std::move(dilations);
  rocket.biases_per_combo_ = biases_per_combo;
  rocket.biases_ = std::move(biases);
  if (rocket.dilations_.empty() || rocket.biases_.empty() ||
      rocket.biases_per_combo_ == 0 ||
      rocket.biases_.size() != minirocket_kernels().size() *
                                   rocket.dilations_.size() *
                                   rocket.biases_per_combo_) {
    throw util::SerializeError(util::SerializeErrc::kBadShape,
                               "MiniRocket::from_parts: inconsistent shape");
  }
  // A dilation outside [1, input_length) could only come from a corrupted
  // stream (fit never produces one) and would index far outside every
  // shift partition downstream.
  for (const int d : rocket.dilations_) {
    if (d < 1) {
      throw util::SerializeError(util::SerializeErrc::kBadValue,
                                 "MiniRocket::from_parts: bad dilation");
    }
  }
  // A corrupted template store must reject loudly here, not surface as
  // NaN feature values (and hence NaN decision scores) at auth time.
  for (const double b : rocket.biases_) {
    if (!std::isfinite(b)) {
      throw util::SerializeError(util::SerializeErrc::kBadValue,
                                 "MiniRocket::from_parts: non-finite bias");
    }
  }
  return rocket;
}

MultiChannelMiniRocket MultiChannelMiniRocket::from_parts(
    MiniRocketOptions options, std::vector<MiniRocket> channels) {
  if (options.num_features == 0) {
    throw util::SerializeError(
        util::SerializeErrc::kBadShape,
        "MultiChannelMiniRocket::from_parts: zero budget");
  }
  if (channels.empty() || channels.size() > 64) {
    throw util::SerializeError(
        util::SerializeErrc::kBadShape,
        "MultiChannelMiniRocket::from_parts: bad channel count");
  }
  MultiChannelMiniRocket rocket(options);
  rocket.per_channel_ = std::move(channels);
  return rocket;
}

const std::vector<std::array<int, 3>>& minirocket_kernels() {
  static const std::vector<std::array<int, 3>> kernels = [] {
    std::vector<std::array<int, 3>> out;
    out.reserve(84);
    for (int a = 0; a < 9; ++a) {
      for (int b = a + 1; b < 9; ++b) {
        for (int c = b + 1; c < 9; ++c) out.push_back({a, b, c});
      }
    }
    return out;
  }();
  return kernels;
}

// ---------------------------------------------------------------------------
// Reference (oracle) path: the original scalar implementation.  Its
// per-element floating-point operation order is the bit-exactness
// contract the fast path below must honour: each output element
// accumulates its in-range taps in ascending tap order, starting from
// 0.0 (nine-tap sum) or -sum9 (kernel completion).
// ---------------------------------------------------------------------------

namespace reference {

Series nine_tap_sum(std::span<const double> x, int dilation) {
  const auto n = static_cast<long long>(x.size());
  Series sum(x.size(), 0.0);
  for (int j = 0; j < 9; ++j) {
    const long long shift = static_cast<long long>(j - 4) * dilation;
    const long long lo = std::max<long long>(0, -shift);
    const long long hi = std::min(n, n - shift);
    for (long long i = lo; i < hi; ++i) {
      sum[static_cast<std::size_t>(i)] +=
          x[static_cast<std::size_t>(i + shift)];
    }
  }
  return sum;
}

namespace {

// Completes the convolution for one kernel from the shared nine-tap sum.
void kernel_from_sum(std::span<const double> x, std::span<const double> sum9,
                     const std::array<int, 3>& kernel, int dilation,
                     Series& out) {
  const auto n = static_cast<long long>(x.size());
  out.assign(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = -sum9[i];
  for (const int j : kernel) {
    const long long shift = static_cast<long long>(j - 4) * dilation;
    const long long lo = std::max<long long>(0, -shift);
    const long long hi = std::min(n, n - shift);
    for (long long i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] +=
          3.0 * x[static_cast<std::size_t>(i + shift)];
    }
  }
}

}  // namespace

linalg::Vector transform(const MiniRocket& model, std::span<const double> x) {
  if (!model.fitted()) {
    throw std::logic_error("reference::transform: not fitted");
  }
  if (x.size() != model.input_length()) {
    throw std::invalid_argument("reference::transform: length mismatch");
  }
  const auto& kernels = minirocket_kernels();
  const auto& dilations = model.dilations();
  const std::span<const double> biases = model.biases();
  const std::size_t biases_per_combo = model.biases_per_combo();
  linalg::Vector features(model.num_features(), 0.0);
  const double inv_n = 1.0 / static_cast<double>(x.size());
  Series conv;
  if (model.pooling() == Pooling::kMax) {
    for (std::size_t di = 0; di < dilations.size(); ++di) {
      const Series sum9 = nine_tap_sum(x, dilations[di]);
      for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        kernel_from_sum(x, sum9, kernels[ki], dilations[di], conv);
        double peak = conv.front();
        for (const double v : conv) peak = std::max(peak, v);
        features[ki * dilations.size() + di] = peak;
      }
    }
    return features;
  }
  std::vector<std::size_t> counts(biases_per_combo);
  for (std::size_t di = 0; di < dilations.size(); ++di) {
    const Series sum9 = nine_tap_sum(x, dilations[di]);
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      kernel_from_sum(x, sum9, kernels[ki], dilations[di], conv);
      const std::size_t combo = ki * dilations.size() + di;
      const double* bias = &biases[combo * biases_per_combo];
      std::fill(counts.begin(), counts.end(), 0);
      for (const double v : conv) {
        for (std::size_t q = 0; q < biases_per_combo; ++q) {
          counts[q] += (v > bias[q]) ? 1 : 0;
        }
      }
      for (std::size_t q = 0; q < biases_per_combo; ++q) {
        features[combo * biases_per_combo + q] =
            static_cast<double>(counts[q]) * inv_n;
      }
    }
  }
  return features;
}

linalg::Matrix transform_batch(const MiniRocket& model,
                               const std::vector<Series>& batch) {
  linalg::Matrix out(batch.size(), model.num_features());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const linalg::Vector f = transform(model, batch[i]);
    std::copy(f.begin(), f.end(), out.row(i).begin());
  }
  return out;
}

}  // namespace reference

Series dilated_convolution(std::span<const double> x,
                           const std::array<int, 3>& kernel, int dilation) {
  if (dilation < 1) {
    throw std::invalid_argument("dilated_convolution: dilation >= 1");
  }
  Series out;
  reference::kernel_from_sum(x, reference::nine_tap_sum(x, dilation), kernel,
                             dilation, out);
  return out;
}

// ---------------------------------------------------------------------------
// Fast path.
//
// The hot kernels (nine-tap sliding sum, kernel completion, fused
// conv+PPV) live in src/backend, one per-ISA table each; this file only
// drives them through the runtime-dispatched KernelTable.  Per
// (series, dilation), the nine-tap sliding sum is computed once into
// scratch, then conv_ppv completes and pools each of the 84 kernels in
// registers (max pooling stores each response through kernel_conv).
// Nothing is heap-allocated once the scratch is warm.  Every backend
// produces the reference path's counts, so outputs are bit-identical to
// `reference::transform` on every ISA.
// ---------------------------------------------------------------------------

namespace {

// Lays a series out as backend::ConvPpvFn reads it: the reference's
// `3.0 * x[i]` terms in zero padding, and NaN in sum9's slack (which
// nine_tap_sum never writes).  Returns the pointer to x3's element 0.
const double* prepare_series(const double* x, std::size_t n,
                             TransformScratch& scratch) {
  double* const x3 = scratch.x3.data() + n;
  std::fill(scratch.x3.data(), x3, 0.0);
  for (std::size_t i = 0; i < n; ++i) x3[i] = 3.0 * x[i];
  std::fill(x3 + n, x3 + 2 * n + backend::kConvPpvSlack, 0.0);
  std::fill(scratch.sum9.data() + n,
            scratch.sum9.data() + n + backend::kConvPpvSlack,
            std::numeric_limits<double>::quiet_NaN());
  return x3;
}

}  // namespace

void TransformScratch::reserve(std::size_t input_length) {
  // Grow-only: buffers keep their high-water size, so a warm scratch
  // never reallocates and the gauge below only fires on growth.
  if (conv.size() >= input_length) return;
  x3.resize(3 * input_length + backend::kConvPpvSlack);
  sum9.resize(input_length + backend::kConvPpvSlack);
  conv.resize(input_length);
  sorted.resize(input_length);
  obs::set_gauge("minirocket.scratch_bytes", bytes());
}

std::size_t TransformScratch::bytes() const noexcept {
  return (x3.capacity() + sum9.capacity() + conv.capacity() +
          sorted.capacity()) *
         sizeof(double);
}

TransformScratch& thread_transform_scratch() noexcept {
  thread_local TransformScratch scratch;
  return scratch;
}

MiniRocket::MiniRocket(MiniRocketOptions options) : options_(options) {
  if (options_.num_features == 0 || options_.max_dilations == 0) {
    throw std::invalid_argument("MiniRocket: zero feature/dilation budget");
  }
}

void MiniRocket::fit(const std::vector<Series>& train, util::Rng& rng) {
  const obs::Span span("minirocket.fit", "ml");
  if (train.empty()) throw std::invalid_argument("MiniRocket::fit: no data");
  input_length_ = train.front().size();
  if (input_length_ < 9) {
    throw std::invalid_argument("MiniRocket::fit: series too short (< 9)");
  }
  for (const auto& s : train) {
    if (s.size() != input_length_) {
      throw std::invalid_argument("MiniRocket::fit: unequal series lengths");
    }
  }

  // Exponential dilations 2^0, 2^1, ... while the receptive field
  // (8 * dilation) fits in the series, capped at max_dilations.
  dilations_.clear();
  for (int d = 1; 8 * d < static_cast<int>(input_length_) &&
                  dilations_.size() < options_.max_dilations;
       d *= 2) {
    dilations_.push_back(d);
  }
  if (dilations_.empty()) dilations_.push_back(1);

  const std::size_t num_kernels = minirocket_kernels().size();
  const std::size_t combos = num_kernels * dilations_.size();
  if (options_.pooling == Pooling::kMax) {
    // Max pooling emits one feature per combo; bias quantiles are unused
    // but biases_ doubles as the "fitted" flag, so keep one slot each.
    biases_per_combo_ = 1;
    biases_.assign(combos, 0.0);
    return;
  }
  biases_per_combo_ =
      std::max<std::size_t>(1, (options_.num_features + combos - 1) / combos);
  biases_.assign(combos * biases_per_combo_, 0.0);

  // Low-discrepancy quantile sequence (golden-ratio spacing), as in the
  // reference implementation, keeps biases spread without clustering.
  constexpr double kPhi = 0.6180339887498949;
  std::vector<double> quantiles(biases_per_combo_);
  for (std::size_t q = 0; q < biases_per_combo_; ++q) {
    quantiles[q] = std::fmod(kPhi * static_cast<double>(q + 1), 1.0);
  }

  // Biases come from quantiles of the convolution output on randomly
  // chosen training examples — one example per dilation, shared by the 84
  // kernels of that dilation so the expensive nine-tap sliding sum is
  // computed once.  The fast kernels run through the same scratch the
  // transform path uses; their outputs are bit-identical to the old
  // per-kernel materialization, so fitted biases are unchanged.
  TransformScratch& scratch = thread_transform_scratch();
  scratch.reserve(input_length_);
  const backend::KernelTable& kt = backend::kernels();
  const auto n = static_cast<long long>(input_length_);
  for (std::size_t di = 0; di < dilations_.size(); ++di) {
    const Series& sample =
        train[rng.uniform_int(static_cast<std::uint32_t>(train.size()))];
    kt.nine_tap_sum(sample.data(), n, dilations_[di], scratch.sum9.data());
    for (std::size_t ki = 0; ki < num_kernels; ++ki) {
      const std::array<int, 3>& k = minirocket_kernels()[ki];
      kt.kernel_conv(sample.data(), n, scratch.sum9.data(), k[0], k[1], k[2],
                     dilations_[di], scratch.conv.data());
      double* const sorted = scratch.sorted.data();
      std::copy(scratch.conv.data(), scratch.conv.data() + n, sorted);
      std::sort(sorted, sorted + n);
      const std::size_t combo = ki * dilations_.size() + di;
      for (std::size_t q = 0; q < biases_per_combo_; ++q) {
        const double rank =
            quantiles[q] * static_cast<double>(input_length_ - 1);
        const auto lo = static_cast<std::size_t>(std::floor(rank));
        const std::size_t hi = std::min(lo + 1, input_length_ - 1);
        const double frac = rank - static_cast<double>(lo);
        biases_[combo * biases_per_combo_ + q] =
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      }
    }
  }
}

std::size_t MiniRocket::num_features() const noexcept {
  return biases_.size();
}

void MiniRocket::transform_into(std::span<const double> x,
                                std::span<double> out,
                                TransformScratch& scratch) const {
  if (!fitted()) throw std::logic_error("MiniRocket::transform: not fitted");
  if (x.size() != input_length_) {
    throw std::invalid_argument("MiniRocket::transform: length mismatch");
  }
  if (out.size() != num_features()) {
    throw std::invalid_argument("MiniRocket::transform: bad output size");
  }
  scratch.reserve(input_length_);
  const backend::KernelTable& kt = backend::kernels();
  const auto n = static_cast<long long>(input_length_);
  const std::size_t num_dilations = dilations_.size();
  const auto& kernels = minirocket_kernels();
  const double inv_n = 1.0 / static_cast<double>(input_length_);
  const double* const x3 = prepare_series(x.data(), x.size(), scratch);
  double* const row = out.data();
  for (std::size_t di = 0; di < num_dilations; ++di) {
    const long long d = dilations_[di];
    kt.nine_tap_sum(x.data(), n, d, scratch.sum9.data());
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const std::array<int, 3>& k = kernels[ki];
      const std::size_t combo = ki * num_dilations + di;
      if (options_.pooling == Pooling::kMax) {
        kt.kernel_conv(x.data(), n, scratch.sum9.data(), k[0], k[1], k[2], d,
                       scratch.conv.data());
        const double* conv = scratch.conv.data();
        double peak = conv[0];
        for (long long i = 1; i < n; ++i) peak = std::max(peak, conv[i]);
        row[combo] = peak;
        continue;
      }
      kt.conv_ppv(x3, scratch.sum9.data(), n, k[0], k[1], k[2], d,
                  biases_.data() + combo * biases_per_combo_,
                  biases_per_combo_, inv_n, row + combo * biases_per_combo_);
    }
  }
}

linalg::Vector MiniRocket::transform(std::span<const double> x) const {
  const obs::Span span("minirocket.transform", "ml");
  obs::add_counter("minirocket.transforms");
  linalg::Vector features(num_features(), 0.0);
  transform_into(x, features, thread_transform_scratch());
  return features;
}

linalg::Matrix MiniRocket::transform_batch(std::span<const Series> batch,
                                           std::size_t max_threads) const {
  const obs::Span span("minirocket.transform_batch", "ml");
  const obs::ScopedLatency latency("minirocket.batch_us");
  obs::add_counter("minirocket.transforms", batch.size());
  if (!fitted()) throw std::logic_error("MiniRocket::transform: not fitted");
  for (const Series& s : batch) {
    if (s.size() != input_length_) {
      throw std::invalid_argument(
          "MiniRocket::transform_batch: length mismatch");
    }
  }
  // One task per series, each writing its own row through the calling
  // thread's scratch, so the matrix is bit-identical to per-series
  // transforms for any thread count.
  linalg::Matrix out(batch.size(), num_features());
  try {
    util::parallel_for(
        batch.size(), /*chunk=*/1,
        [&](std::size_t i) {
          transform_into(batch[i], out.row(i), thread_transform_scratch());
        },
        max_threads);
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  return out;
}

MultiChannelMiniRocket::MultiChannelMiniRocket(MiniRocketOptions options)
    : options_(options) {}

void MultiChannelMiniRocket::fit(
    const std::vector<std::vector<Series>>& train, util::Rng& rng) {
  const obs::Span span("minirocket.fit_multichannel", "ml");
  if (train.empty()) {
    throw std::invalid_argument("MultiChannelMiniRocket::fit: no data");
  }
  const std::size_t channels = train.front().size();
  if (channels == 0) {
    throw std::invalid_argument("MultiChannelMiniRocket::fit: no channels");
  }
  for (const auto& sample : train) {
    if (sample.size() != channels) {
      throw std::invalid_argument(
          "MultiChannelMiniRocket::fit: channel count mismatch");
    }
  }
  MiniRocketOptions per_channel_options = options_;
  per_channel_options.num_features =
      std::max<std::size_t>(84, options_.num_features / channels);
  per_channel_.assign(channels, MiniRocket(per_channel_options));
  std::vector<Series> channel_train(train.size());
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < train.size(); ++i) {
      channel_train[i] = train[i][c];
    }
    util::Rng channel_rng = rng.fork(0xABCD1234ULL + c);
    per_channel_[c].fit(channel_train, channel_rng);
  }
}

std::size_t MultiChannelMiniRocket::num_features() const {
  std::size_t total = 0;
  for (const auto& mr : per_channel_) total += mr.num_features();
  return total;
}

void MultiChannelMiniRocket::check_sample(
    const std::vector<Series>& sample) const {
  if (!fitted()) {
    throw std::logic_error("MultiChannelMiniRocket::transform: not fitted");
  }
  if (sample.size() != per_channel_.size()) {
    throw std::invalid_argument(
        "MultiChannelMiniRocket::transform: channel count mismatch");
  }
}

void MultiChannelMiniRocket::transform_channels(
    const std::vector<Series>& sample, std::span<double> out,
    TransformScratch& scratch) const {
  std::size_t offset = 0;
  for (std::size_t c = 0; c < per_channel_.size(); ++c) {
    const std::size_t nf = per_channel_[c].num_features();
    per_channel_[c].transform_into(sample[c], out.subspan(offset, nf),
                                   scratch);
    offset += nf;
  }
}

void MultiChannelMiniRocket::transform_into(
    const std::vector<Series>& sample, std::span<double> out,
    TransformScratch& scratch) const {
  check_sample(sample);
  if (out.size() != num_features()) {
    throw std::invalid_argument(
        "MultiChannelMiniRocket::transform: bad output size");
  }
  const obs::Span span("minirocket.transform", "ml");
  obs::add_counter("minirocket.transforms");
  transform_channels(sample, out, scratch);
}

linalg::Vector MultiChannelMiniRocket::transform(
    const std::vector<Series>& sample) const {
  linalg::Vector out(num_features(), 0.0);
  transform_into(sample, out, thread_transform_scratch());
  return out;
}

linalg::Matrix MultiChannelMiniRocket::transform(
    const std::vector<std::vector<Series>>& batch,
    std::size_t max_threads) const {
  const obs::Span span("minirocket.transform_batch", "ml");
  const obs::ScopedLatency latency("minirocket.batch_us");
  obs::add_counter("minirocket.transforms", batch.size());
  if (!fitted()) {
    throw std::logic_error("MultiChannelMiniRocket::transform: not fitted");
  }
  for (const auto& sample : batch) check_sample(sample);
  // One task per sample; see MiniRocket::transform_batch.
  linalg::Matrix out(batch.size(), num_features());
  try {
    util::parallel_for(
        batch.size(), /*chunk=*/1,
        [&](std::size_t i) {
          transform_channels(batch[i], out.row(i),
                             thread_transform_scratch());
        },
        max_threads);
  } catch (const util::ParallelForError& e) {
    e.rethrow_cause();
  }
  return out;
}

}  // namespace p2auth::ml
