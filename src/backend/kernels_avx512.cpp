// AVX-512F kernel table (eight doubles per vector), compiled with
// -mavx512f -ffp-contract=off.  nine_tap_sum, kernel_conv and axpy are
// the width-8 instantiations of kernels_vec.hpp, and dot is its four-lane
// stripe code.  conv_ppv stays hand-written, counting with mask-register
// adds and reducing the counters with one transposing shuffle sum
// (sum_counters): a full transform with the width-8 template conv_ppv
// takes about a third longer.  -ffp-contract=off keeps every multiply
// and add unfused, so the bit-identity contract holds.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstddef>

#include "backend/kernels.hpp"
#include "backend/kernels_detail.hpp"
#include "backend/kernels_vec.hpp"

namespace p2auth::backend {

namespace {

// Bit-exact sign flip via integer xor (_mm512_xor_pd needs AVX-512DQ;
// vpxorq is plain AVX-512F).
inline __m512d xor_pd_f(__m512d a, __m512d b) noexcept {
  return _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
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
                    detail::TapShifts s, const double* bias, double inv_n,
                    double* out) {
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
  alignas(64) long long count[8];
  _mm512_store_si512(count, sum_counters<kB>(c));
  for (int k = 0; k < kB; ++k) out[k] = static_cast<double>(count[k]) * inv_n;
}

void conv_ppv_avx512(const double* x3, const double* sum9, long long n,
                     int k0, int k1, int k2, long long d, const double* biases,
                     std::size_t count, double inv_n, double* out) {
  const detail::TapShifts s = detail::conv_ppv_shifts(k0, k1, k2, d, n);
  detail::for_each_bias_group(count, [&](auto width, std::size_t t) {
    conv_ppv_group<decltype(width)::value>(x3, sum9, n, s, biases + t, inv_n,
                                           out + t);
  });
}

}  // namespace

const KernelTable& avx512_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kAvx512,
      "avx512",
      &vec::nine_tap_sum<8>,
      &vec::kernel_conv<8>,
      &conv_ppv_avx512,
      &vec::dot<8>,
      &vec::axpy<8>,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
