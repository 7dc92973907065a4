// The kernel bodies, written once as width-templated vector code with
// GCC/Clang vector extensions: W doubles per vector, lowered to whatever
// instruction set the including translation unit is compiled for.  The
// scalar table instantiates W = 2 with no -m flags (SSE2 on x86-64, NEON
// float64x2 on aarch64), the AVX2 table W = 4 under -mavx2, and the
// AVX-512 table everything but conv_ppv at W = 8.  Instantiate a width
// only where the TU's flags provide it natively: a wider vector is
// lowered through memory (-Wpsabi) and runs slower than scalar code.
//
// Bit identity with `ml::minirocket::reference`: each lane performs the
// reference's per-element operation order (-ffp-contract=off keeps every
// multiply and add unfused), edges and vector tails run the scalar
// helpers of kernels_detail.hpp, and conv_ppv produces exact integer
// counts.  Internal linkage, as in kernels_detail.hpp.  Not installed
// API — include only from src/backend.
#pragma once

#include <cstddef>
#include <cstring>

#include "backend/kernels_detail.hpp"

namespace p2auth::backend::vec {
namespace {

template <int W>
struct Lanes {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};
template <int W>
using Vec = typename Lanes<W>::type;

template <int W>
inline Vec<W> load(const double* p) noexcept {
  Vec<W> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <int W>
inline void store(double* p, Vec<W> v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

template <int W>
inline Vec<W> broadcast(double s) noexcept {
  Vec<W> v;
  for (int l = 0; l < W; ++l) v[l] = s;
  return v;
}

template <int W>
void nine_tap_sum(const double* x, long long n, long long d, double* sum) {
  const auto [lo, hi] = detail::nine_tap_partition(n, d);
  for (long long i = 0; i < lo; ++i) detail::nine_tap_edge(x, n, d, i, sum);
  long long i = lo;
  for (; i + W <= hi; i += W) {
    // Ascending tap order starting from 0.0, as in the scalar interior.
    Vec<W> s = {};
    for (long long t = -4; t <= 4; ++t) s += load<W>(x + i + t * d);
    store<W>(sum + i, s);
  }
  detail::nine_tap_interior(x, d, i, hi, sum);
  for (i = hi; i < n; ++i) detail::nine_tap_edge(x, n, d, i, sum);
}

template <int W>
void kernel_conv(const double* x, long long n, const double* sum9, int k0,
                 int k1, int k2, long long d, double* conv) {
  const long long sa = static_cast<long long>(k0 - 4) * d;
  const long long sb = static_cast<long long>(k1 - 4) * d;
  const long long sc = static_cast<long long>(k2 - 4) * d;
  const auto [lo, hi] = detail::conv_partition(n, sa, sc);
  for (long long i = 0; i < lo; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
  long long i = lo;
  for (; i + W <= hi; i += W) {
    Vec<W> v = -load<W>(sum9 + i);
    v += 3.0 * load<W>(x + i + sa);
    v += 3.0 * load<W>(x + i + sb);
    v += 3.0 * load<W>(x + i + sc);
    store<W>(conv + i, v);
  }
  detail::conv_interior(x, sum9, sa, sb, sc, i, hi, conv);
  for (i = hi; i < n; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
}

// One register block of conv_ppv: kB broadcast biases and kB lane
// counters stay resident while each W-element block of the response is
// formed (-sum9, then the three x3 taps in ascending order) and compared
// against all of them.  A true lane compare is all-ones (-1), so
// subtracting the mask counts; `>` is false on NaN, so the NaN lanes of
// the last block count nothing.
template <int W, int kB>
void conv_ppv_group(const double* x3, const double* sum9, long long n,
                    detail::TapShifts s, const double* bias, double inv_n,
                    double* out) {
  using Count = decltype(Vec<W>{} > Vec<W>{});
  Vec<W> b[kB];
  Count c[kB] = {};
  for (int k = 0; k < kB; ++k) b[k] = broadcast<W>(bias[k]);
  for (long long i = 0; i < n; i += W) {
    Vec<W> v = -load<W>(sum9 + i);
    v += load<W>(x3 + i + s.a);
    v += load<W>(x3 + i + s.b);
    v += load<W>(x3 + i + s.c);
    for (int k = 0; k < kB; ++k) c[k] -= v > b[k];
  }
  for (int k = 0; k < kB; ++k) {
    long long count = 0;
    for (int l = 0; l < W; ++l) count += c[k][l];
    out[k] = static_cast<double>(count) * inv_n;
  }
}

template <int W>
void conv_ppv(const double* x3, const double* sum9, long long n, int k0,
              int k1, int k2, long long d, const double* biases,
              std::size_t count, double inv_n, double* out) {
  const detail::TapShifts s = detail::conv_ppv_shifts(k0, k1, k2, d, n);
  detail::for_each_bias_group(count, [&](auto width, std::size_t t) {
    conv_ppv_group<W, decltype(width)::value>(x3, sum9, n, s, biases + t,
                                              inv_n, out + t);
  });
}

// The width-4 stripe contract (detail::striped_dot) in vectors of at most
// four lanes: 4 / S accumulators whose lanes, in order, are the four
// stripes.  Wider tables reuse the four-lane form, because eight lanes
// would change the stripe count and the rounding.
template <int W>
double dot(const double* a, const double* b, std::size_t n) {
  constexpr int S = W < 4 ? W : 4;
  Vec<S> acc[4 / S] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int k = 0; k < 4 / S; ++k) {
      acc[k] += load<S>(a + i + k * S) * load<S>(b + i + k * S);
    }
  }
  double lane[4];
  std::memcpy(lane, acc, sizeof lane);
  double s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

template <int W>
void axpy(double alpha, const double* x, double* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    store<W>(y + i, load<W>(y + i) + alpha * load<W>(x + i));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace
}  // namespace p2auth::backend::vec
