// MiniRocket feature transform (Dempster, Schmidt, Webb; KDD 2021).
//
// This is the ROCKET-based Feature Extraction module of the paper
// (section IV-B 2.3, Eq. (5)-(6)).  The transform convolves the input
// series with a fixed set of 84 kernels of length 9 whose weights take
// only the two values {-1, 2} (exactly three 2s, so each kernel sums to
// zero), at exponentially spaced dilations, and pools each convolution
// with PPV — the proportion of output values exceeding a bias:
//
//   PPV(X * W_d - b) = (1/N) sum_i [ (X * W_d)_i > b ]
//
// Biases are drawn from quantiles of the convolution outputs on training
// data, so fit() must see training series before transform() is used.
// The default feature budget (~10 000, paper: "feature vector of length
// 10K") is spread evenly over kernels, dilations and bias quantiles.
//
// Two implementations coexist:
//
//   * The fast path — one allocation-free engine, `transform_into`, that
//     scores one series at a time.  All working memory lives in a
//     reusable `TransformScratch`.  The series is laid out once (as
//     3.0*x with zero padding); per dilation the nine-tap sum is computed
//     once, then the backend's fused `conv_ppv` kernel completes each
//     kernel's response one vector block at a time in registers and
//     counts it against all of the combo's biases, so a PPV response is
//     never stored.  Max pooling stores one response at a time in a
//     reused buffer.  The batch entry points are a `util::parallel_for`
//     over series (or samples), one task per row, each running
//     `transform_into` through its thread's scratch.
//   * `minirocket::reference` — the original straightforward scalar
//     implementation, kept compiled-in as the oracle.  The fast path
//     must agree with it bit-for-bit (same floating-point operation
//     order per output element); the differential test suite pins this
//     contract.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace p2auth::ml {

using Series = std::vector<double>;

// Pooling statistic applied to each convolution output.
enum class Pooling {
  kPpv,  // proportion of positive values vs bias quantiles (the paper's
         // Eq. (6); MiniRocket's defining statistic)
  kMax,  // global max pooling (classic-ROCKET style; ablation baseline —
         // one feature per kernel-dilation combo, biases unused)
};

struct MiniRocketOptions {
  // Target total feature count.  The realised count is the target rounded
  // *up* to a multiple of (84 * num_dilations): at 7 dilations (588
  // combos) a 2499 target gives 5 biases per combo, 2940 features, so the
  // paper's 9996 split over 4 channels realises 11,760.  Ignored for kMax
  // pooling (one feature per kernel-dilation combo).
  std::size_t num_features = 9996;
  // Cap on the number of dilations (the input length may allow fewer).
  std::size_t max_dilations = 32;
  Pooling pooling = Pooling::kPpv;
};

// All C(9,3) = 84 index triples marking the positions of weight +2 (the
// remaining six positions carry weight -1).
const std::vector<std::array<int, 3>>& minirocket_kernels();

// Dilated zero-padded ("same") convolution of `x` with the kernel whose
// +2 positions are `kernel`; output has the same length as `x`.
Series dilated_convolution(std::span<const double> x,
                           const std::array<int, 3>& kernel, int dilation);

// Reusable workspace for the allocation-free transform path.  Buffers
// grow on first use (or when a longer series / larger quantile budget
// arrives) and are then reused verbatim: the steady state performs zero
// heap allocations.  One scratch serves one thread at a time; use
// `thread_transform_scratch()` for a per-thread instance that stays warm
// across calls.
struct TransformScratch {
  Series x3;      // 3.0 * series, zero-padded for backend::ConvPpvFn
  Series sum9;    // nine-tap sliding sum for one dilation (+ NaN slack)
  Series conv;    // one stored kernel response (fit quantiles, max pooling)
  Series sorted;  // fit-time sorted-quantile workspace

  // Grows the buffers to serve series of `input_length`; no-op (and
  // allocation-free) when they already suffice.
  void reserve(std::size_t input_length);
  // Current heap footprint of the buffers, for the
  // `minirocket.scratch_bytes` gauge.
  std::size_t bytes() const noexcept;
};

// The calling thread's reusable scratch.  Pool worker threads persist
// across `parallel_for` calls, so batch transforms reach a zero-allocation
// steady state after the first series per thread.
TransformScratch& thread_transform_scratch() noexcept;

class MiniRocket {
 public:
  explicit MiniRocket(MiniRocketOptions options = {});

  // Fits dilations and biases on training series (all series must share
  // one length; empty input throws std::invalid_argument).  `rng` selects
  // the training examples used for bias quantiles.
  void fit(const std::vector<Series>& train, util::Rng& rng);

  bool fitted() const noexcept { return !biases_.empty(); }
  // The options this transform was constructed with (persisted so a
  // reloaded model can be re-fitted identically).
  const MiniRocketOptions& options() const noexcept { return options_; }
  std::size_t num_features() const noexcept;
  std::size_t input_length() const noexcept { return input_length_; }
  const std::vector<int>& dilations() const noexcept { return dilations_; }
  // Bias quantiles per (kernel, dilation) combo and the flat bias table
  // (combo-major: kernel index * num_dilations + dilation index), exposed
  // for the reference oracle and the differential tests.
  std::size_t biases_per_combo() const noexcept { return biases_per_combo_; }
  std::span<const double> biases() const noexcept { return biases_; }
  Pooling pooling() const noexcept { return options_.pooling; }

  // Transforms one series (must match the fitted length) into the PPV
  // feature vector.
  linalg::Vector transform(std::span<const double> x) const;

  // Allocation-free core: writes exactly num_features() values into
  // `out` using only `scratch` for working memory.  With a warm scratch
  // the call performs zero heap allocations (the differential suite
  // verifies this with an allocation-counting hook).  Emits no telemetry;
  // the public wrappers record the batch-level counters.
  void transform_into(std::span<const double> x, std::span<double> out,
                      TransformScratch& scratch) const;

  // Transforms a batch into a feature matrix (rows = samples): one
  // `transform_into` task per series on the shared thread pool.  Output
  // is bit-identical to per-series `transform` for any thread count.
  // `max_threads` follows the `util::parallel_for` convention (0 = the
  // resolve_threads default).
  linalg::Matrix transform_batch(std::span<const Series> batch,
                                 std::size_t max_threads = 0) const;

  // Reassembles a fitted transform (dilations + biases) from
  // already-parsed parts — the entry point of the model-store reader in
  // src/io/.  Validates the shape invariants (dilation positivity, finite
  // biases, kernel-count consistency) and throws util::SerializeError on
  // any inconsistency.
  static MiniRocket from_parts(MiniRocketOptions options,
                               std::size_t input_length,
                               std::vector<int> dilations,
                               std::size_t biases_per_combo,
                               std::vector<double> biases);

 private:
  MiniRocketOptions options_;
  std::size_t input_length_ = 0;
  std::vector<int> dilations_;
  std::size_t biases_per_combo_ = 0;
  // biases_[combo * biases_per_combo_ + q] where combo = kernel-major
  // (kernel index * num_dilations + dilation index).
  std::vector<double> biases_;
};

// Multi-channel convenience wrapper: one independent MiniRocket per
// channel, feature budget split evenly, outputs concatenated.  This is
// how the pipeline consumes the prototype's 2-4 PPG channels.
class MultiChannelMiniRocket {
 public:
  explicit MultiChannelMiniRocket(MiniRocketOptions options = {});

  // train[i] is sample i: one Series per channel (all samples must agree
  // on channel count and per-channel length).
  void fit(const std::vector<std::vector<Series>>& train, util::Rng& rng);

  bool fitted() const noexcept { return !per_channel_.empty(); }
  const MiniRocketOptions& options() const noexcept { return options_; }
  std::size_t num_features() const;
  std::size_t num_channels() const noexcept { return per_channel_.size(); }
  const MiniRocket& channel(std::size_t c) const { return per_channel_.at(c); }

  linalg::Vector transform(const std::vector<Series>& sample) const;
  // Allocation-free single-sample path; `out` must hold num_features().
  void transform_into(const std::vector<Series>& sample,
                      std::span<double> out, TransformScratch& scratch) const;
  // Batch of samples into a feature matrix: one task per sample, same
  // thread-count contract as MiniRocket::transform_batch.
  linalg::Matrix transform(const std::vector<std::vector<Series>>& batch,
                           std::size_t max_threads = 0) const;

  // Model-store reader entry point: adopts per-channel transforms that
  // were individually validated by MiniRocket::from_parts.  Throws
  // util::SerializeError when `channels` is empty or absurdly wide.
  static MultiChannelMiniRocket from_parts(MiniRocketOptions options,
                                           std::vector<MiniRocket> channels);

 private:
  // Throws unless fitted and `sample` has one series per channel.
  void check_sample(const std::vector<Series>& sample) const;
  // Per-channel transform_into into consecutive slices of `out`; no
  // validation of `out` and no telemetry.
  void transform_channels(const std::vector<Series>& sample,
                          std::span<double> out,
                          TransformScratch& scratch) const;

  MiniRocketOptions options_;
  std::vector<MiniRocket> per_channel_;
};

// The original scalar implementation, kept as the differential-testing
// oracle for the fast path.  Contract: for any fitted model and input,
// `reference::transform` and the fast `MiniRocket::transform` /
// `transform_batch` produce bit-identical feature vectors (the two
// paths share the per-element floating-point operation order even though
// their loop structures differ).
namespace reference {

// Nine-tap sliding sum at the given dilation with zero padding (the
// shared-work trick: every kernel output is 3*(its three +2 taps) - sum9).
Series nine_tap_sum(std::span<const double> x, int dilation);

// One series through the scalar path of `model` (PPV or max pooling).
linalg::Vector transform(const MiniRocket& model, std::span<const double> x);

// Serial per-series batch loop — the pre-fast-path behaviour benches
// compare against.
linalg::Matrix transform_batch(const MiniRocket& model,
                               const std::vector<Series>& batch);

}  // namespace reference

}  // namespace p2auth::ml
