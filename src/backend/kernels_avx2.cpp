// AVX2 kernel table: the width-4 instantiation of kernels_vec.hpp,
// compiled with -mavx2 -mno-fma -ffp-contract=off so multiplies and adds
// stay separate instructions and the bits match the scalar reference.
#if defined(__x86_64__) || defined(__i386__)

#include "backend/kernels.hpp"
#include "backend/kernels_vec.hpp"

namespace p2auth::backend {

const KernelTable& avx2_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kAvx2,
      "avx2",
      &vec::nine_tap_sum<4>,
      &vec::kernel_conv<4>,
      &vec::conv_ppv<4>,
      &vec::dot<4>,
      &vec::axpy<4>,
  };
  return kTable;
}

}  // namespace p2auth::backend

#endif  // x86
