// Internal building blocks shared by the per-ISA kernel translation
// units.  Everything here is scalar code with the exact per-element
// floating-point operation order of the bit-identity contract: the SIMD
// TUs use these helpers for edge regions and vector-width tails, and the
// scalar TU (plus the ISAs that do not accelerate a given kernel) uses
// them wholesale.  Not installed API — include only from src/backend.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "backend/policy.hpp"

namespace p2auth::backend::detail {

// ---------------------------------------------------------------------
// Shift partitions.  An element is "interior" when its whole receptive
// field lies inside the series; edges are handled by guarded scalar
// loops in every backend so vector loops never read past the series.
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
// Fused PPV pooling, scalar form.  One compile-time-width binary search
// per element (the fixed trip count makes GCC lower every step to a
// conditional move; a runtime-width loop is ~5x slower), a histogram
// over the per-element ranks, and a suffix fold into exceedance counts.
// Counts are integers, so features match any other evaluation order
// bit-for-bit — including NaN (compares below every bias, lands in
// bucket 0) and +/-inf.
// ---------------------------------------------------------------------

template <int kSteps>
inline std::size_t ppv_search(const double* pad_bias, double v) noexcept {
  std::size_t j = 0;
  for (int s = kSteps - 1; s >= 0; --s) {
    const std::size_t w = std::size_t{1} << s;
    j += (pad_bias[j + w - 1] < v) ? w : 0;
  }
  return j;  // +inf sentinels never compare < v, so j <= bpc always
}

// Converts the rank histogram into per-threshold exceedance counts in
// place (count for sorted bias t = #elements with rank > t) and emits
// the features in original quantile order.
inline void ppv_fold_emit(std::size_t* hist, const std::uint32_t* rank,
                          std::size_t bpc, double inv_n,
                          double* out) noexcept {
  std::size_t count_above = 0;
  std::size_t carry = hist[bpc];
  for (std::size_t t = bpc; t-- > 0;) {
    count_above += carry;
    carry = hist[t];
    hist[t] = count_above;
  }
  for (std::size_t q = 0; q < bpc; ++q) {
    out[q] = static_cast<double>(hist[rank[q]]) * inv_n;
  }
}

template <int kSteps>
inline void scalar_ppv_pool_steps(const double* conv, long long n,
                                  const double* pad_bias,
                                  const std::uint32_t* rank, std::size_t bpc,
                                  double inv_n, std::size_t* hist,
                                  double* out) {
  std::fill(hist, hist + bpc + 1, std::size_t{0});
  for (long long i = 0; i < n; ++i) {
    ++hist[ppv_search<kSteps>(pad_bias, conv[i])];
  }
  ppv_fold_emit(hist, rank, bpc, inv_n, out);
}

// steps -> specialized scalar pooling kernel.  Index 0 is unused
// (bpc >= 1 forces at least one step).
using SteppedPoolFn = void (*)(const double*, long long, const double*,
                               const std::uint32_t*, std::size_t, double,
                               std::size_t*, double*);

template <std::size_t... kSteps>
constexpr std::array<SteppedPoolFn, sizeof...(kSteps)>
make_scalar_pool_table(std::index_sequence<kSteps...>) {
  return {(kSteps == 0
               ? nullptr
               : &scalar_ppv_pool_steps<kSteps == 0 ? 1 : kSteps>)...};
}

// Runtime-steps entry point of the scalar table, also the fallback of
// the vector backends for huge bias counts (integer counts make reuse
// bit-exact by definition).
inline void scalar_ppv_pool(const double* conv, long long n,
                            const double* pad_bias,
                            const std::uint32_t* rank, std::size_t bpc,
                            std::size_t steps, double inv_n,
                            std::size_t* hist, double* out) {
  static constexpr auto kTable = make_scalar_pool_table(
      std::make_index_sequence<kMaxPpvSearchSteps + 1>{});
  kTable[steps](conv, n, pad_bias, rank, bpc, inv_n, hist, out);
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

}  // namespace p2auth::backend::detail
