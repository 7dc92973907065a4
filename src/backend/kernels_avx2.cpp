// AVX2 kernel backend (256-bit, four doubles per vector).  Compiled
// with -mavx2 -mno-fma -ffp-contract=off: FMA contraction would change
// rounding and break the bit-identity contract, so multiplies and adds
// stay separate instructions.  In the nine-tap sum and kernel_conv,
// edges and vector tails run the shared scalar helpers and interiors run
// four lanes wide in the scalar per-element operation order.  conv_ppv
// counts threshold exceedances directly with packed compares (exact
// integers, so the features stay bit-identical) on responses that never
// leave registers.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstddef>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

void nine_tap_sum_avx2(const double* x, long long n, long long d,
                       double* sum) {
  const auto [lo, hi] = detail::nine_tap_partition(n, d);
  for (long long i = 0; i < lo; ++i) detail::nine_tap_edge(x, n, d, i, sum);
  long long i = lo;
  for (; i + 4 <= hi; i += 4) {
    // Ascending tap order starting from 0.0, as in the scalar interior.
    __m256d s = _mm256_setzero_pd();
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - 4 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - 3 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - 2 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i - d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + 2 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + 3 * d));
    s = _mm256_add_pd(s, _mm256_loadu_pd(x + i + 4 * d));
    _mm256_storeu_pd(sum + i, s);
  }
  detail::nine_tap_interior(x, d, i, hi, sum);
  for (i = hi; i < n; ++i) detail::nine_tap_edge(x, n, d, i, sum);
}

void kernel_conv_avx2(const double* x, long long n, const double* sum9,
                      int k0, int k1, int k2, long long d, double* conv) {
  const long long sa = static_cast<long long>(k0 - 4) * d;
  const long long sb = static_cast<long long>(k1 - 4) * d;
  const long long sc = static_cast<long long>(k2 - 4) * d;
  const auto [lo, hi] = detail::conv_partition(n, sa, sc);
  for (long long i = 0; i < lo; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
  const __m256d three = _mm256_set1_pd(3.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  long long i = lo;
  for (; i + 4 <= hi; i += 4) {
    // -sum9[i] as a sign flip (bit-exact negation), then the three
    // multiply-add pairs in ascending shift order.
    __m256d v = _mm256_xor_pd(_mm256_loadu_pd(sum9 + i), sign);
    v = _mm256_add_pd(v, _mm256_mul_pd(three, _mm256_loadu_pd(x + i + sa)));
    v = _mm256_add_pd(v, _mm256_mul_pd(three, _mm256_loadu_pd(x + i + sb)));
    v = _mm256_add_pd(v, _mm256_mul_pd(three, _mm256_loadu_pd(x + i + sc)));
    _mm256_storeu_pd(conv + i, v);
  }
  detail::conv_interior(x, sum9, sa, sb, sc, i, hi, conv);
  for (i = hi; i < n; ++i) {
    detail::conv_edge(x, n, sum9, sa, sb, sc, i, conv);
  }
}

// Stores the lane sums of kB packed counters to counts[0..kB): four
// counters at a time, two levels of unpack/permute + add transpose them
// into one vector of four sums.
template <int kB>
void store_counter_sums(const __m256i (&c)[kB], std::size_t* counts) {
  const auto counter = [&](int k) {
    return k < kB ? c[k] : _mm256_setzero_si256();
  };
  // [a lanes 0+1, b lanes 0+1, a lanes 2+3, b lanes 2+3]
  const auto pair = [](__m256i a, __m256i b) {
    return _mm256_add_epi64(_mm256_unpacklo_epi64(a, b),
                            _mm256_unpackhi_epi64(a, b));
  };
  for (int j = 0; j < kB; j += 4) {
    const __m256i lo = pair(counter(j), counter(j + 1));
    const __m256i hi = pair(counter(j + 2), counter(j + 3));
    const __m256i sums =
        _mm256_add_epi64(_mm256_permute2x128_si256(lo, hi, 0x20),
                         _mm256_permute2x128_si256(lo, hi, 0x31));
    const __m256i keep = _mm256_cmpgt_epi64(_mm256_set1_epi64x(kB - j),
                                            _mm256_set_epi64x(3, 2, 1, 0));
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(counts + j), keep,
                           sums);
  }
}

// One register block of conv_ppv: kB broadcast biases and kB packed
// counters stay resident while each 4-element block of the response is
// formed (-sum9 as a sign flip, then the three x3 taps in ascending
// order) and compared against all of them.  A true compare is all-ones
// (-1), so subtracting the mask counts; _CMP_GT_OQ is false on NaN like
// the scalar `>`, so the NaN lanes of the last block count nothing.
template <int kB>
void conv_ppv_group(const double* x3, const double* sum9, long long n,
                    detail::TapShifts s, const double* bias,
                    std::size_t* counts) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d b[kB];
  __m256i c[kB];
  for (int k = 0; k < kB; ++k) {
    b[k] = _mm256_set1_pd(bias[k]);
    c[k] = _mm256_setzero_si256();
  }
  for (long long i = 0; i < n; i += 4) {
    __m256d v = _mm256_xor_pd(_mm256_loadu_pd(sum9 + i), sign);
    v = _mm256_add_pd(v, _mm256_loadu_pd(x3 + i + s.a));
    v = _mm256_add_pd(v, _mm256_loadu_pd(x3 + i + s.b));
    v = _mm256_add_pd(v, _mm256_loadu_pd(x3 + i + s.c));
    for (int k = 0; k < kB; ++k) {
      c[k] = _mm256_sub_epi64(
          c[k], _mm256_castpd_si256(_mm256_cmp_pd(v, b[k], _CMP_GT_OQ)));
    }
  }
  store_counter_sums<kB>(c, counts);
}

void conv_ppv_avx2(const double* x3, const double* sum9, long long n,
                   int k0, int k1, int k2, long long d,
                   const ComboBiases& biases, double inv_n,
                   std::size_t* counts, double* out) {
  const detail::TapShifts s = detail::conv_ppv_shifts(k0, k1, k2, d, n);
  detail::for_each_bias_group(biases.count, [&](auto width, std::size_t t) {
    conv_ppv_group<decltype(width)::value>(x3, sum9, n, s, biases.sorted + t,
                                           counts + t);
  });
  detail::emit_ranked(counts, biases.rank, biases.count, inv_n, out);
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  // One accumulator vector whose lanes are the four stripes; the final
  // (acc0 + acc1) + (acc2 + acc3) combine matches the scalar contract.
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                           _mm256_loadu_pd(b + i)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, yv);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace

const KernelTable& avx2_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kAvx2,        "avx2",         &nine_tap_sum_avx2,
      &kernel_conv_avx2, &conv_ppv_avx2, &dot_avx2,
      &axpy_avx2,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
