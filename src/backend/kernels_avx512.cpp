// AVX-512F kernel backend (512-bit, eight doubles per vector).
// Compiled with -mavx512f -ffp-contract=off; every multiply/add pair is
// an explicit intrinsic, so no fused multiply-adds appear and the
// bit-identity contract with the scalar reference holds.
//
// Where this backend differs from the AVX2 one: the edges of the stored
// kernels (nine-tap sum, kernel_conv) are vectorized too.  AVX-512
// merge-masking (`_mm512_mask_add_pd`) leaves a masked lane's bits
// untouched, which is exactly the scalar edge semantics — an
// out-of-range tap is *skipped*, not added as 0.0.  (Adding +0.0 instead
// would flip a -0.0 accumulator to +0.0 and break the bit identity of a
// stored response; that hazard is why the AVX2 backend keeps scalar
// edges there.)  Masked loads suppress faults on the masked lanes, so
// edge blocks can load through pointers whose masked lanes fall outside
// the series.  conv_ppv needs none of this: it only compares its
// responses, and its padded buffers turn every block into the interior
// case (see ConvPpvFn in policy.hpp).
//
// The dot product must follow the cross-backend width-4 stripe
// contract (see kernels_detail.hpp), so it deliberately stays 256-bit:
// an eight-lane accumulator would change the stripe count and the
// rounding.  axpy is per-element, so full 512-bit width is safe there.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstdint>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"

namespace p2auth::backend {

namespace {

// Bit-exact sign flip via integer xor (_mm512_xor_pd needs AVX-512DQ;
// vpxorq is plain AVX-512F).
inline __m512d xor_pd_f(__m512d a, __m512d b) noexcept {
  return _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}

// Pointer displaced by a possibly out-of-range element offset.  Edge
// blocks aim masked loads at addresses whose masked lanes precede the
// array; routing the arithmetic through uintptr_t keeps the (never
// dereferenced) out-of-bounds computation out of pointer-UB territory.
inline const double* displaced(const double* base, long long off) noexcept {
  return reinterpret_cast<const double*>(
      reinterpret_cast<std::uintptr_t>(base) +
      static_cast<std::uintptr_t>(off) * sizeof(double));
}

void nine_tap_sum_avx512(const double* x, long long n, long long d,
                         double* sum) {
  const auto [lo, hi] = detail::nine_tap_partition(n, d);
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i vn = _mm512_set1_epi64(n);
  // Per-tap validity bounds: lane l of block i holds element i+l, and
  // tap t (shift s = (t-4)*d) is in range iff -s <= i+l < n-s.
  __m512i lob[9], hib[9];
  for (int t = 0; t < 9; ++t) {
    const long long s = static_cast<long long>(t - 4) * d;
    lob[t] = _mm512_set1_epi64(-s);
    hib[t] = _mm512_set1_epi64(n - s);
  }
  for (long long i = 0; i < n; i += 8) {
    if (i >= lo && i + 8 <= hi) {
      // Fully interior block: ascending tap order from 0.0, as in the
      // scalar interior.
      __m512d s = _mm512_setzero_pd();
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - 4 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - 3 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - 2 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i - d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + 2 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + 3 * d));
      s = _mm512_add_pd(s, _mm512_loadu_pd(x + i + 4 * d));
      _mm512_storeu_pd(sum + i, s);
      continue;
    }
    // Edge block: per-tap masks replay the guarded scalar loop — each
    // lane adds exactly its in-range taps, ascending, starting at 0.0;
    // merge-masking leaves skipped lanes' bits untouched.
    const __m512i idx = _mm512_add_epi64(iota, _mm512_set1_epi64(i));
    const __mmask8 mt = _mm512_cmplt_epi64_mask(idx, vn);
    __m512d s = _mm512_setzero_pd();
    for (int t = 0; t < 9; ++t) {
      const __mmask8 m = mt & _mm512_cmpge_epi64_mask(idx, lob[t]) &
                         _mm512_cmplt_epi64_mask(idx, hib[t]);
      const long long sft = static_cast<long long>(t - 4) * d;
      const __m512d xv = _mm512_maskz_loadu_pd(m, displaced(x, i + sft));
      s = _mm512_mask_add_pd(s, m, s, xv);
    }
    _mm512_mask_storeu_pd(sum + i, mt, s);
  }
}

void kernel_conv_avx512(const double* x, long long n, const double* sum9,
                        int k0, int k1, int k2, long long d, double* conv) {
  const long long sa = static_cast<long long>(k0 - 4) * d;
  const long long sb = static_cast<long long>(k1 - 4) * d;
  const long long sc = static_cast<long long>(k2 - 4) * d;
  const auto [lo, hi] = detail::conv_partition(n, sa, sc);
  const __m512d three = _mm512_set1_pd(3.0);
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i vn = _mm512_set1_epi64(n);
  const long long shift[3] = {sa, sb, sc};
  __m512i lob[3], hib[3];
  for (int t = 0; t < 3; ++t) {
    lob[t] = _mm512_set1_epi64(-shift[t]);
    hib[t] = _mm512_set1_epi64(n - shift[t]);
  }
  for (long long i = 0; i < n; i += 8) {
    if (i >= lo && i + 8 <= hi) {
      // -sum9[i] as a sign flip (bit-exact negation), then the three
      // multiply-add pairs in ascending shift order.
      __m512d v = xor_pd_f(_mm512_loadu_pd(sum9 + i), sign);
      v = _mm512_add_pd(v, _mm512_mul_pd(three, _mm512_loadu_pd(x + i + sa)));
      v = _mm512_add_pd(v, _mm512_mul_pd(three, _mm512_loadu_pd(x + i + sb)));
      v = _mm512_add_pd(v, _mm512_mul_pd(three, _mm512_loadu_pd(x + i + sc)));
      _mm512_storeu_pd(conv + i, v);
      continue;
    }
    const __m512i idx = _mm512_add_epi64(iota, _mm512_set1_epi64(i));
    const __mmask8 mt = _mm512_cmplt_epi64_mask(idx, vn);
    __m512d v = xor_pd_f(_mm512_maskz_loadu_pd(mt, sum9 + i), sign);
    for (int t = 0; t < 3; ++t) {
      const __mmask8 m = mt & _mm512_cmpge_epi64_mask(idx, lob[t]) &
                         _mm512_cmplt_epi64_mask(idx, hib[t]);
      const __m512d xv =
          _mm512_maskz_loadu_pd(m, displaced(x, i + shift[t]));
      v = _mm512_mask_add_pd(v, m, v, _mm512_mul_pd(three, xv));
    }
    _mm512_mask_storeu_pd(conv + i, mt, v);
  }
}

// Transposing reduction of kB <= 8 packed counters: lane k of the result
// sums the eight lanes of c[k] (lanes past kB are zero).  Three levels of
// unpack/shuffle + add replace eight separate horizontal sums.  The maskz
// forms with a full mask are the plain instructions; the plain intrinsics
// pass an _mm512_undefined_epi32() operand that GCC 12 reports as
// -Wmaybe-uninitialized once inlined.
template <int kB>
__m512i sum_counters(const __m512i (&c)[kB]) {
  const __mmask8 all = 0xff;
  const auto counter = [&](int k) {
    return k < kB ? c[k] : _mm512_setzero_si512();
  };
  // d[j], 128-bit lane L: [c[2j] lanes 2L..2L+1, c[2j+1] lanes 2L..2L+1].
  __m512i d[4];
  for (int j = 0; j < 4; ++j) {
    const __m512i a = counter(2 * j), b = counter(2 * j + 1);
    d[j] = _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(all, a, b),
                            _mm512_maskz_unpackhi_epi64(all, a, b));
  }
  // fold(x, y) adds 128-bit lanes 0+1 and 2+3 of x and of y, so
  // fold(d[0], d[1]) holds c[0..3] as sums over lanes 0-3 and 4-7, two
  // counters per 128-bit lane; a second fold leaves one total per lane.
  const auto fold = [&](__m512i x, __m512i y) {
    return _mm512_add_epi64(_mm512_maskz_shuffle_i64x2(all, x, y, 0x88),
                            _mm512_maskz_shuffle_i64x2(all, x, y, 0xdd));
  };
  return fold(fold(d[0], d[1]), fold(d[2], d[3]));
}

// One register block of conv_ppv: kB broadcast biases and kB packed
// counters stay resident while each 8-element block of the response is
// formed (-sum9 as a sign flip, then the three x3 taps in ascending
// order) and compared against all of them.  _CMP_GT_OQ is false on NaN
// like the scalar `>`, so the NaN lanes of the last block count nothing.
template <int kB>
void conv_ppv_group(const double* x3, const double* sum9, long long n,
                    detail::TapShifts s, const double* bias,
                    std::size_t* counts) {
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m512i one = _mm512_set1_epi64(1);
  __m512d b[kB];
  __m512i c[kB];
  for (int k = 0; k < kB; ++k) {
    b[k] = _mm512_set1_pd(bias[k]);
    c[k] = _mm512_setzero_si512();
  }
  for (long long i = 0; i < n; i += 8) {
    __m512d v = xor_pd_f(_mm512_loadu_pd(sum9 + i), sign);
    v = _mm512_add_pd(v, _mm512_loadu_pd(x3 + i + s.a));
    v = _mm512_add_pd(v, _mm512_loadu_pd(x3 + i + s.b));
    v = _mm512_add_pd(v, _mm512_loadu_pd(x3 + i + s.c));
    for (int k = 0; k < kB; ++k) {
      c[k] = _mm512_mask_add_epi64(
          c[k], _mm512_cmp_pd_mask(v, b[k], _CMP_GT_OQ), c[k], one);
    }
  }
  _mm512_mask_storeu_epi64(counts, static_cast<__mmask8>((1u << kB) - 1u),
                           sum_counters<kB>(c));
}

void conv_ppv_avx512(const double* x3, const double* sum9, long long n,
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

double dot_avx512(const double* a, const double* b, std::size_t n) {
  // 256-bit on purpose: the accumulator lanes ARE the four stripes of
  // the cross-backend dot contract, and the final combine is the
  // mandated (acc0 + acc1) + (acc2 + acc3).
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

void axpy_avx512(double alpha, const double* x, double* y, std::size_t n) {
  // Per-element update: width does not affect bits, so use full 512-bit
  // vectors with a masked tail.
  const __m512d av = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d yv = _mm512_add_pd(
        _mm512_loadu_pd(y + i), _mm512_mul_pd(av, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(y + i, yv);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace

const KernelTable& avx512_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kAvx512,        "avx512",         &nine_tap_sum_avx512,
      &kernel_conv_avx512, &conv_ppv_avx512, &dot_avx512,
      &axpy_avx512,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
