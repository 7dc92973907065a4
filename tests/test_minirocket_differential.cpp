// Differential golden tests: the allocation-free MiniRocket fast path
// against the `ml::reference` scalar oracle.  The contract is exact
// bit-identity (==, not near-equality): the fast path reproduces the
// reference's per-element floating-point operation order, so any
// divergence — a reassociated sum, a flipped edge guard, an off-by-one
// shift partition — shows up as a hard failure here.
//
// The binary also carries the allocation-counting hook that pins the
// tentpole's "steady-state transform performs zero heap allocations"
// claim: global operator new/delete are overridden to tally allocations
// while a flag is armed around warmed transform calls.

#include "ml/minirocket.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "backend/policy.hpp"
#include "io_fixtures.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook.  Counting is off by default (gtest and the
// standard library allocate freely); AllocationGuard arms it around the
// region under test.  All replaceable global forms are routed through
// one counting allocator so nothing slips past the tally.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::aligned_alloc(align, ((size + align - 1) / align) * align);
  if (!p) throw std::bad_alloc();
  return p;
}

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() {
    g_count_allocations.store(false, std::memory_order_relaxed);
  }
  std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace p2auth::ml {
namespace {

// Pins kernel dispatch to one SIMD backend for a scope; the reference
// oracle (ml::reference) never touches the dispatch layer, so forcing a
// backend exercises exactly the fast path's kernels.
class ForcedBackend {
 public:
  explicit ForcedBackend(backend::Isa isa) { backend::force_isa(isa); }
  ~ForcedBackend() { backend::force_isa(std::nullopt); }
};

Series random_series(std::size_t n, util::Rng& rng) {
  Series x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

MiniRocket fitted_model(std::size_t length, Pooling pooling,
                        std::uint64_t seed,
                        std::size_t num_features = 1008) {
  MiniRocketOptions options;
  options.num_features = num_features;
  options.pooling = pooling;
  MiniRocket model(options);
  util::Rng rng(seed, 0xd1fULL);
  std::vector<Series> train;
  for (std::size_t i = 0; i < 6; ++i) {
    train.push_back(random_series(length, rng));
  }
  model.fit(train, rng);
  return model;
}

// Exact (bit-level) equality; EXPECT_EQ on doubles is exact already, but
// spell the contract out and report the first diverging index.
void expect_bit_identical(std::span<const double> fast,
                          std::span<const double> ref,
                          const std::string& context) {
  ASSERT_EQ(fast.size(), ref.size()) << context;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    if (fast[i] != ref[i]) {
      // Double-format round trip so divergences print with full precision.
      std::ostringstream msg;
      msg.precision(17);
      msg << context << ": feature " << i << " fast=" << fast[i]
          << " ref=" << ref[i];
      FAIL() << msg.str();
    }
  }
}

// The headline differential sweep: randomized series through models of
// odd, even, tiny and non-power-of-two lengths (9 is the minimum legal
// length; 90/91 straddle an even/odd boundary; 100/250 engage 4-5
// dilation levels), both poolings, fresh series per case — and the
// whole matrix repeated for EVERY SIMD backend this host can run, with
// dispatch pinned per pass.  Case count is asserted >= 1000 per backend
// so the bit-exactness claim stays pinned to a concrete sample size.
TEST(MiniRocketDifferential, EveryBackendBitIdenticalOnThousandRandomCases) {
  const std::size_t lengths[] = {9, 32, 90, 91, 100, 250};
  const Pooling poolings[] = {Pooling::kPpv, Pooling::kMax};
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const std::string backend_name = backend::isa_name(isa);
    util::Rng rng(0xd1ffe7e57ULL, 0x90ULL);
    std::size_t cases = 0;
    for (const std::size_t length : lengths) {
      for (const Pooling pooling : poolings) {
        const MiniRocket model =
            fitted_model(length, pooling, 0xc0ffee00ULL + length);
        // Model must exercise every dilation the length admits.
        for (const int d : model.dilations()) {
          ASSERT_LT(8 * d, static_cast<int>(length));
        }
        for (std::size_t c = 0; c < 90; ++c) {
          const Series x = random_series(length, rng);
          const linalg::Vector fast = model.transform(x);
          const linalg::Vector ref = reference::transform(model, x);
          expect_bit_identical(
              fast, ref,
              "backend=" + backend_name + " len=" + std::to_string(length) +
                  " pooling=" + std::to_string(static_cast<int>(pooling)) +
                  " case=" + std::to_string(c));
          ++cases;
        }
      }
    }
    EXPECT_GE(cases, 1000u) << backend_name;
  }
}

// transform_batch must agree with the reference's serial per-series loop
// bit-for-bit regardless of thread count (each task writes its own row;
// no accumulation crosses rows).  Runs at 1 and 8 threads — the 8-thread
// run under TSan in CI doubles as the contention check on the shared
// per-thread scratch.
TEST(MiniRocketDifferential, BatchMatchesReferenceAcrossThreadCounts) {
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const std::string backend_name = backend::isa_name(isa);
    for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
      const MiniRocket model = fitted_model(91, pooling, 0xba7c4ULL);
      util::Rng rng(0xba7c4da7aULL, 0x11ULL);
      std::vector<Series> batch;
      for (std::size_t i = 0; i < 24; ++i) {
        batch.push_back(random_series(91, rng));
      }
      const linalg::Matrix ref = reference::transform_batch(model, batch);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const linalg::Matrix fast = model.transform_batch(batch, threads);
        ASSERT_EQ(fast.rows(), ref.rows());
        ASSERT_EQ(fast.cols(), ref.cols());
        for (std::size_t r = 0; r < ref.rows(); ++r) {
          expect_bit_identical(fast.row(r), ref.row(r),
                               "backend=" + backend_name + " threads=" +
                                   std::to_string(threads) + " row=" +
                                   std::to_string(r));
        }
      }
    }
  }
}

// Same bits, compared as bit patterns so NaN features (max pooling of a
// NaN series) count as equal only when their representations are.
void expect_same_bits(std::span<const double> got,
                      std::span<const double> want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << context << ": feature " << i;
  }
}

// The multi-channel batch (one task per sample) against the per-sample
// transform_into it is built from, on every backend, at 1 and 4 threads,
// with NaN, +/-inf and -0.0 planted in one channel of some samples.
TEST(MiniRocketDifferential, MultiChannelBatchMatchesTransformInto) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kLength = 90, kChannels = 3;
  util::Rng rng(0x3c4a77e1ULL, 0x88ULL);
  auto sample = [&] {
    std::vector<Series> channels;
    for (std::size_t c = 0; c < kChannels; ++c) {
      channels.push_back(random_series(kLength, rng));
    }
    return channels;
  };
  std::vector<std::vector<Series>> train;
  for (std::size_t i = 0; i < 6; ++i) train.push_back(sample());
  std::vector<std::vector<Series>> batch;
  for (std::size_t i = 0; i < 10; ++i) {
    batch.push_back(sample());
    if (i % 3 != 0) continue;
    Series& hostile = batch.back()[1];
    hostile[0] = kNan;
    hostile[1] = -0.0;
    hostile[kLength / 2] = kInf;
    hostile[kLength / 2 + 1] = -kInf;
    hostile[kLength - 1] = kNan;
  }
  batch.push_back({Series(kLength, 0.0), Series(kLength, -0.0),
                   random_series(kLength, rng)});
  for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
    MiniRocketOptions options;
    options.num_features = 1500;
    options.pooling = pooling;
    MultiChannelMiniRocket model(options);
    util::Rng fit_rng(0x3c4a77e2ULL);
    model.fit(train, fit_rng);
    for (const backend::Isa isa : backend::available_isas()) {
      ForcedBackend forced(isa);
      const std::string where = std::string("backend=") +
                                backend::isa_name(isa) + " pooling=" +
                                std::to_string(static_cast<int>(pooling));
      TransformScratch scratch;
      linalg::Matrix want(batch.size(), model.num_features());
      for (std::size_t r = 0; r < batch.size(); ++r) {
        model.transform_into(batch[r], want.row(r), scratch);
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const linalg::Matrix got = model.transform(batch, threads);
        ASSERT_EQ(got.rows(), want.rows());
        for (std::size_t r = 0; r < want.rows(); ++r) {
          expect_same_bits(got.row(r), want.row(r),
                           where + " threads=" + std::to_string(threads) +
                               " row=" + std::to_string(r));
        }
      }
    }
  }
}

// Models that arrive through the model store (the deployment path) must
// transform identically to the freshly fitted instance through both
// engines.
TEST(MiniRocketDifferential, ReloadedModelStaysBitIdentical) {
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const std::string backend_name = backend::isa_name(isa);
    const MiniRocket model = fitted_model(90, Pooling::kPpv, 0x5e71a1ULL);
    const MiniRocket reloaded = testing::store_round_trip(model);
    util::Rng rng(0x5e71a1d0ULL, 0x22ULL);
    for (std::size_t c = 0; c < 25; ++c) {
      const Series x = random_series(90, rng);
      const linalg::Vector a = model.transform(x);
      const linalg::Vector b = reloaded.transform(x);
      const linalg::Vector r = reference::transform(reloaded, x);
      expect_bit_identical(a, b, "backend=" + backend_name +
                                     " fit-vs-reload case " +
                                     std::to_string(c));
      expect_bit_identical(b, r, "backend=" + backend_name +
                                     " reload-vs-ref case " +
                                     std::to_string(c));
    }
  }
}

// Pathological inputs must flow through both paths identically too: the
// max-pooling fold and PPV comparisons have defined (if odd) NaN/inf
// semantics, and the fast path must replicate them rather than "fix"
// them.
TEST(MiniRocketDifferential, NonFiniteInputsAgreeWithReference) {
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
      const MiniRocket model = fitted_model(90, pooling, 0xb4dULL);
      util::Rng rng(0xb4df00dULL, 0x33ULL);
      Series x = random_series(90, rng);
      x[7] = std::numeric_limits<double>::quiet_NaN();
      x[40] = std::numeric_limits<double>::infinity();
      x[41] = -std::numeric_limits<double>::infinity();
      // Edge-straddling non-finites: the first and last receptive
      // fields are exactly where a backend's masked/guarded edge code
      // diverges from the interior loop.
      x[0] = std::numeric_limits<double>::quiet_NaN();
      x[89] = -std::numeric_limits<double>::infinity();
      const linalg::Vector fast = model.transform(x);
      const linalg::Vector ref = reference::transform(model, x);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t i = 0; i < fast.size(); ++i) {
        // NaN != NaN, so compare representations.
        const bool same =
            (fast[i] == ref[i]) || (std::isnan(fast[i]) && std::isnan(ref[i]));
        ASSERT_TRUE(same) << backend::isa_name(isa) << " feature " << i;
      }
    }
  }
}

// Series that stress conv_ppv: random values with NaN, +/-inf and -0.0
// planted at both edges and in the interior, an all -0.0 series (every
// response is a signed zero) and an all +0.0 one.
std::vector<Series> hostile_series(std::size_t n, util::Rng& rng) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Series> out;
  for (std::size_t c = 0; c < 3; ++c) out.push_back(random_series(n, rng));
  Series planted = random_series(n, rng);
  planted[0] = kNan;
  planted[1] = -0.0;
  planted[n / 3] = kInf;
  planted[n / 2] = -kInf;
  planted[n / 2 + 1] = -0.0;
  planted[n - 2] = -kInf;
  planted[n - 1] = kNan;
  out.push_back(planted);
  Series signed_zeros = random_series(n, rng);
  for (std::size_t i = 0; i < n; i += 2) signed_zeros[i] = -0.0;
  out.push_back(signed_zeros);
  out.push_back(Series(n, -0.0));
  out.push_back(Series(n, 0.0));
  return out;
}

// Serial and batch fast paths against the reference on every available
// backend.  PPV features are proportions, never NaN, so == is the whole
// contract even for non-finite inputs.
void expect_every_backend_matches_reference(const MiniRocket& model,
                                            const std::vector<Series>& xs,
                                            const std::string& context) {
  linalg::Matrix ref(xs.size(), model.num_features());
  for (std::size_t r = 0; r < xs.size(); ++r) {
    const linalg::Vector f = reference::transform(model, xs[r]);
    std::copy(f.begin(), f.end(), ref.row(r).begin());
  }
  for (const backend::Isa isa : backend::available_isas()) {
    ForcedBackend forced(isa);
    const std::string where =
        context + " backend=" + backend::isa_name(isa) + " ";
    for (std::size_t r = 0; r < xs.size(); ++r) {
      expect_bit_identical(model.transform(xs[r]), ref.row(r),
                           where + "serial row=" + std::to_string(r));
    }
    const linalg::Matrix batch = model.transform_batch(xs, 2);
    for (std::size_t r = 0; r < xs.size(); ++r) {
      expect_bit_identical(batch.row(r), ref.row(r),
                           where + "batch row=" + std::to_string(r));
    }
  }
}

// The shapes the authenticator runs: MultiChannelMiniRocket splits the
// paper's 9996-feature budget over 4 channels (2499 each), which gives 5
// biases per combo on the 600-sample full waveform (7 dilations) and 8
// on the 90-sample segment and boost windows (4 dilations).
TEST(MiniRocketDifferential, ProductionShapesBitIdenticalOnEveryBackend) {
  struct Shape {
    std::size_t length;
    std::size_t biases_per_combo;
  };
  for (const Shape shape : {Shape{600, 5}, Shape{90, 8}}) {
    const MiniRocket model =
        fitted_model(shape.length, Pooling::kPpv, 0x9e0d + shape.length, 2499);
    ASSERT_EQ(model.biases_per_combo(), shape.biases_per_combo);
    util::Rng rng(0x9e0dca5eULL + shape.length, 0x66ULL);
    expect_every_backend_matches_reference(
        model, hostile_series(shape.length, rng),
        "len=" + std::to_string(shape.length));
  }
}

// Every compile-time bias-group width (1-8), a count one past a full
// group (9) and one spanning two full groups plus a remainder (19).  A
// 50-sample series has 3 dilations, so bpc * 252 features give exactly
// bpc biases per combo.  A second model per count rebuilds the same
// biases with signed zeros and a subnormal planted among them, so the
// all-zero series compare against +/-0.0 thresholds.
TEST(MiniRocketDifferential, EveryBiasGroupWidthBitIdenticalOnEveryBackend) {
  constexpr std::size_t kLength = 50;
  for (const std::size_t bpc : {1, 2, 3, 4, 5, 6, 7, 8, 9, 19}) {
    const MiniRocket fitted =
        fitted_model(kLength, Pooling::kPpv, 0xb1a5 + bpc, bpc * 252);
    ASSERT_EQ(fitted.biases_per_combo(), bpc);
    std::vector<double> biases(fitted.biases().begin(),
                               fitted.biases().end());
    constexpr double kPlanted[] = {0.0, -0.0,
                                   std::numeric_limits<double>::denorm_min()};
    for (std::size_t i = 0; i < biases.size(); i += 3) {
      biases[i] = kPlanted[(i / 3) % 3];
    }
    const MiniRocket zeros = MiniRocket::from_parts(
        fitted.options(), kLength, fitted.dilations(), bpc, std::move(biases));
    util::Rng rng(0xb1a5da7aULL + bpc, 0x77ULL);
    const std::vector<Series> xs = hostile_series(kLength, rng);
    expect_every_backend_matches_reference(
        fitted, xs, "fitted bpc=" + std::to_string(bpc));
    expect_every_backend_matches_reference(
        zeros, xs, "signed-zero biases bpc=" + std::to_string(bpc));
  }
}

// The zero-allocation claim: once the thread scratch and output buffer
// are warm, transform_into performs no heap allocation at all.
TEST(MiniRocketDifferential, WarmTransformIntoDoesNotAllocate) {
  for (const Pooling pooling : {Pooling::kPpv, Pooling::kMax}) {
    const MiniRocket model = fitted_model(100, pooling, 0xa110cULL);
    util::Rng rng(0xa110ca7eULL, 0x44ULL);
    const Series x = random_series(100, rng);
    linalg::Vector out(model.num_features(), 0.0);
    TransformScratch scratch;
    model.transform_into(x, out, scratch);  // warm-up: buffers grow here
    const linalg::Vector warm_result = out;
    // The 3*x buffer is sized for the conv_ppv contract: n zeros, the
    // series, then n + slack zeros.
    ASSERT_GE(scratch.x3.size(), 3 * x.size() + backend::kConvPpvSlack);
    const double* const x3_data = scratch.x3.data();
    {
      const AllocationGuard guard;
      for (int repeat = 0; repeat < 10; ++repeat) {
        model.transform_into(x, out, scratch);
      }
      EXPECT_EQ(guard.count(), 0u)
          << "steady-state transform_into allocated";
    }
    EXPECT_EQ(scratch.x3.data(), x3_data) << "x3 buffer moved";
    expect_bit_identical(out, warm_result, "warm repeat");

    // A shorter series (with fewer biases per combo) reuses the grown
    // buffers without allocating, and the stale tail of the longer
    // series must not leak into its padding.
    const MiniRocket short_model =
        fitted_model(40, pooling, 0xa110dULL, /*num_features=*/504);
    ASSERT_LE(short_model.biases_per_combo(), model.biases_per_combo());
    const Series short_x = random_series(40, rng);
    linalg::Vector short_out(short_model.num_features(), 0.0);
    {
      const AllocationGuard guard;
      short_model.transform_into(short_x, short_out, scratch);
      EXPECT_EQ(guard.count(), 0u) << "shorter series allocated";
    }
    EXPECT_EQ(scratch.x3.data(), x3_data) << "x3 buffer moved";
    expect_bit_identical(short_out,
                         reference::transform(short_model, short_x),
                         "shorter series after longer");
  }
}

// Same claim at the model-decision level the authenticator actually
// exercises: a warmed WaveformModel-style loop (transform_into + reused
// feature vector) through the thread scratch.
TEST(MiniRocketDifferential, ThreadScratchStaysWarmAcrossCalls) {
  const MiniRocket model = fitted_model(90, Pooling::kPpv, 0x7ea5cULL);
  util::Rng rng(0x7ea5c0deULL, 0x55ULL);
  const Series x = random_series(90, rng);
  linalg::Vector out(model.num_features(), 0.0);
  TransformScratch& scratch = thread_transform_scratch();
  model.transform_into(x, out, scratch);  // warm the shared scratch
  const AllocationGuard guard;
  model.transform_into(x, out, scratch);
  model.transform_into(x, out, scratch);
  EXPECT_EQ(guard.count(), 0u);
}

}  // namespace
}  // namespace p2auth::ml
