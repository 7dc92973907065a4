// Scalar kernel backend: the always-compiled portable fallback and the
// bit-identity reference every SIMD table is differentially tested
// against.  The convolution kernels are shift-partitioned (guarded edges,
// branch-free interiors that GCC vectorizes at -O3 for the baseline
// instruction set); conv_ppv ranks each response by a cmov binary search.
#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

void nine_tap_sum_scalar(const double* x, long long n, long long d,
                         double* sum) {
  const auto [lo, hi] = detail::nine_tap_partition(n, d);
  for (long long i = 0; i < lo; ++i) detail::nine_tap_edge(x, n, d, i, sum);
  detail::nine_tap_interior(x, d, lo, hi, sum);
  for (long long i = hi; i < n; ++i) detail::nine_tap_edge(x, n, d, i, sum);
}

void kernel_conv_scalar(const double* x, long long n, const double* sum9,
                        int k0, int k1, int k2, long long d, double* conv) {
  const long long sa = static_cast<long long>(k0 - 4) * d;
  const long long sb = static_cast<long long>(k1 - 4) * d;
  const long long sc = static_cast<long long>(k2 - 4) * d;
  const auto [lo, hi] = detail::conv_partition(n, sa, sc);
  for (long long i = 0; i < lo; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
  detail::conv_interior(x, sum9, sa, sb, sc, lo, hi, conv);
  for (long long i = hi; i < n; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
}

// conv_ppv, scalar form: per element, the response is formed in a
// register, then ranked among the combo's sorted biases by a fixed-step
// binary search (the compile-time trip count makes GCC lower every step
// to a conditional move; a runtime-width loop is ~5x slower) and tallied
// in a histogram over ranks.  A suffix fold turns the histogram into
// exceedance counts.  Counts are integers, so features match any other
// evaluation order bit for bit, NaN included (it compares below every
// bias and lands in bucket 0).
template <int kSteps>
std::size_t ppv_search(const double* pad_bias, double v) noexcept {
  std::size_t j = 0;
  for (int s = kSteps - 1; s >= 0; --s) {
    const std::size_t w = std::size_t{1} << s;
    j += (pad_bias[j + w - 1] < v) ? w : 0;
  }
  return j;  // +inf sentinels never compare < v, so j <= count always
}

template <int kSteps>
void conv_ppv_steps(const double* x3, const double* sum9, long long n,
                    detail::TapShifts s, const ComboBiases& b, double inv_n,
                    std::size_t* hist, double* out) {
  std::fill(hist, hist + b.count + 1, std::size_t{0});
  for (long long i = 0; i < n; ++i) {
    double v = -sum9[i];
    v += x3[i + s.a];
    v += x3[i + s.b];
    v += x3[i + s.c];
    ++hist[ppv_search<kSteps>(b.sorted, v)];
  }
  // In place, hist[t] becomes the count of elements ranked above sorted
  // bias t (the exceedance count of that bias).
  std::size_t count_above = 0;
  std::size_t carry = hist[b.count];
  for (std::size_t t = b.count; t-- > 0;) {
    count_above += carry;
    carry = hist[t];
    hist[t] = count_above;
  }
  detail::emit_ranked(hist, b.rank, b.count, inv_n, out);
}

using ConvPpvStepsFn = void (*)(const double*, const double*, long long,
                                detail::TapShifts, const ComboBiases&, double,
                                std::size_t*, double*);

template <std::size_t... kSteps>
constexpr std::array<ConvPpvStepsFn, sizeof...(kSteps)> make_steps_table(
    std::index_sequence<kSteps...>) {
  // Index 0 is unused: a combo has at least one bias, so one step.
  return {(kSteps == 0 ? nullptr
                       : &conv_ppv_steps<kSteps == 0 ? 1 : kSteps>)...};
}

void conv_ppv_scalar(const double* x3, const double* sum9, long long n,
                     int k0, int k1, int k2, long long d,
                     const ComboBiases& biases, double inv_n,
                     std::size_t* counts, double* out) {
  static constexpr auto kTable =
      make_steps_table(std::make_index_sequence<kMaxPpvSearchSteps + 1>{});
  kTable[biases.steps](x3, sum9, n, detail::conv_ppv_shifts(k0, k1, k2, d, n),
                       biases, inv_n, counts, out);
}

double dot_scalar(const double* a, const double* b, std::size_t n) {
  return detail::striped_dot(a, b, n);
}

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n) {
  detail::scalar_axpy(alpha, x, y, n);
}

}  // namespace

const KernelTable& scalar_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kScalar,        "scalar",           &nine_tap_sum_scalar,
      &kernel_conv_scalar, &conv_ppv_scalar,   &dot_scalar,
      &axpy_scalar,
  };
  return kTable;
}

}  // namespace p2auth::backend
