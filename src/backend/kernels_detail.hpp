// Scalar building blocks shared by the kernel translation units, in the
// exact per-element floating-point operation order of the bit-identity
// contract: the vector kernels (kernels_vec.hpp) use them for edge
// regions and vector-width tails, and the conv_ppv helpers
// (tap shifts, bias groups) are plumbing every table shares.
//
// Everything here has internal linkage.  Each kernel TU is compiled with
// its own -m flags, so an inline function with external linkage could be
// emitted with AVX-512 instructions in one TU and the linker could keep
// that copy for the baseline table too.  Not installed API — include
// only from src/backend (tests use striped_dot and scalar_axpy as
// oracles).
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace p2auth::backend::detail {
namespace {

// ---------------------------------------------------------------------
// Shift partitions.  An element is "interior" when its whole receptive
// field lies inside the series; edges are handled by guarded scalar
// loops so vector loops never read past the series.
// ---------------------------------------------------------------------

struct Partition {
  long long lo = 0;  // first interior index
  long long hi = 0;  // one past the last interior index (hi >= lo)
};

inline Partition nine_tap_partition(long long n, long long d) noexcept {
  const long long lo = std::min(n, 4 * d);
  return {lo, std::max(lo, n - 4 * d)};
}

inline Partition conv_partition(long long n, long long sa,
                                long long sc) noexcept {
  // sa <= sc, so the lowest shift bounds the left edge and the highest
  // bounds the right one.
  const long long lo = std::min(n, std::max<long long>(0, -sa));
  return {lo, std::max(lo, std::min(n, sc > 0 ? n - sc : n))};
}

// Guarded nine-tap sum for one edge element (ascending tap order).
inline void nine_tap_edge(const double* x, long long n, long long d,
                          long long i, double* sum) noexcept {
  double s = 0.0;
  for (int j = 0; j < 9; ++j) {
    const long long idx = i + static_cast<long long>(j - 4) * d;
    if (idx >= 0 && idx < n) s += x[idx];
  }
  sum[i] = s;
}

// Branch-free nine-tap interior body over [i0, i1).
inline void nine_tap_interior(const double* x, long long d, long long i0,
                              long long i1, double* sum) noexcept {
  for (long long i = i0; i < i1; ++i) {
    double s = 0.0;
    s += x[i - 4 * d];
    s += x[i - 3 * d];
    s += x[i - 2 * d];
    s += x[i - d];
    s += x[i];
    s += x[i + d];
    s += x[i + 2 * d];
    s += x[i + 3 * d];
    s += x[i + 4 * d];
    sum[i] = s;
  }
}

// Guarded kernel completion for one edge element.
inline void conv_edge(const double* x, long long n, const double* sum9,
                      long long sa, long long sb, long long sc, long long i,
                      double* conv) noexcept {
  double v = -sum9[i];
  if (i + sa >= 0 && i + sa < n) v += 3.0 * x[i + sa];
  if (i + sb >= 0 && i + sb < n) v += 3.0 * x[i + sb];
  if (i + sc >= 0 && i + sc < n) v += 3.0 * x[i + sc];
  conv[i] = v;
}

// Branch-free kernel-completion interior body over [i0, i1).
inline void conv_interior(const double* x, const double* sum9, long long sa,
                          long long sb, long long sc, long long i0,
                          long long i1, double* conv) noexcept {
  for (long long i = i0; i < i1; ++i) {
    double v = -sum9[i];
    v += 3.0 * x[i + sa];
    v += 3.0 * x[i + sb];
    v += 3.0 * x[i + sc];
    conv[i] = v;
  }
}

// ---------------------------------------------------------------------
// Fused conv+PPV (conv_ppv) plumbing.
// ---------------------------------------------------------------------

struct TapShifts {
  long long a = 0, b = 0, c = 0;  // ascending: the kernel's +2 taps
};

// Shifts (k-4)*d of a kernel's three +2 taps, clamped to [-n, n].  A tap
// shifted by n or more reads only zero padding either way, and the clamp
// keeps every read inside the x3 buffer contract whatever the dilation (a
// loaded model may carry dilations longer than the series).
inline TapShifts conv_ppv_shifts(int k0, int k1, int k2, long long d,
                                 long long n) noexcept {
  const auto shift = [&](int k) {
    return std::clamp(static_cast<long long>(k - 4) * d, -n, n);
  };
  return {shift(k0), shift(k1), shift(k2)};
}

// Calls fn(std::integral_constant<int, kB>{}, t) for consecutive groups of
// a combo's biases starting at index t: full groups of eight, then one
// group of the remaining 1-7.  conv_ppv thus counts against every bias in
// register blocks whose width is a compile-time constant.
template <typename Fn>
inline void for_each_bias_group(std::size_t bpc, Fn&& fn) {
  std::size_t t = 0;
  for (; t + 8 <= bpc; t += 8) fn(std::integral_constant<int, 8>{}, t);
  switch (bpc - t) {
    case 1: fn(std::integral_constant<int, 1>{}, t); break;
    case 2: fn(std::integral_constant<int, 2>{}, t); break;
    case 3: fn(std::integral_constant<int, 3>{}, t); break;
    case 4: fn(std::integral_constant<int, 4>{}, t); break;
    case 5: fn(std::integral_constant<int, 5>{}, t); break;
    case 6: fn(std::integral_constant<int, 6>{}, t); break;
    case 7: fn(std::integral_constant<int, 7>{}, t); break;
    default: break;
  }
}

// ---------------------------------------------------------------------
// Width-4 striped dot product, the cross-backend accumulation contract:
// acc_l += a[i+l] * b[i+l] per 4-block (multiply then add, never fused),
// combined as (acc0 + acc1) + (acc2 + acc3), tail added sequentially.
// ---------------------------------------------------------------------

inline double striped_dot(const double* a, const double* b,
                          std::size_t n) noexcept {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double s = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline void scalar_axpy(double alpha, const double* x, double* y,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace
}  // namespace p2auth::backend::detail
