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
// bit-for-bit regardless of thread count (tiles write disjoint feature
// slots; no accumulation crosses a tile boundary).  Runs at 1 and 8
// threads — the 8-thread run under TSan in CI doubles as the contention
// check on the shared per-thread scratch.
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
    {
      const AllocationGuard guard;
      for (int repeat = 0; repeat < 10; ++repeat) {
        model.transform_into(x, out, scratch);
      }
      EXPECT_EQ(guard.count(), 0u)
          << "steady-state transform_into allocated";
    }
    expect_bit_identical(out, warm_result, "warm repeat");
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
