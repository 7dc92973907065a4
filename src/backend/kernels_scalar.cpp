// Baseline kernel table: the width-2 instantiation of kernels_vec.hpp,
// compiled with no -m flags, so it runs on every host this binary runs
// on (SSE2 on x86-64, NEON float64x2 on aarch64).  Its name, "scalar",
// is the P2AUTH_BACKEND spelling of "no ISA extension".
#include "backend/kernels.hpp"
#include "backend/kernels_vec.hpp"

namespace p2auth::backend {

const KernelTable& scalar_kernel_table() noexcept {
  static constexpr KernelTable kTable{
      Isa::kScalar,
      "scalar",
      &vec::nine_tap_sum<2>,
      &vec::kernel_conv<2>,
      &vec::conv_ppv<2>,
      &vec::dot<2>,
      &vec::axpy<2>,
  };
  return kTable;
}

}  // namespace p2auth::backend
