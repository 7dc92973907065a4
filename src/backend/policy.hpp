// Per-kernel function-pointer dispatch for the SIMD backends.
//
// Each table is one translation unit compiled with exactly the `-m`
// flags it needs (kernels_avx2.cpp with -mavx2, ...), exposing one
// immutable KernelTable; most kernels are one width-templated source,
// kernels_vec.hpp, instantiated per table.  Dispatch is resolved once at
// first use from, in priority order:
//
//   1. a process-local force_isa() override (tests, ops tooling);
//   2. the P2AUTH_BACKEND environment variable (scalar|avx2|avx512;
//      unknown names throw BackendError, unavailable ISAs fall back to
//      the best available — see capability.hpp);
//   3. auto-selection: the widest ISA that is both compiled in and
//      supported by the host CPU.
//
// Bit-identity contract: every table produces bit-identical results to
// `ml::minirocket::reference` and to the plain-loop dot/axpy of
// kernels_detail.hpp under exact double comparison.  The stored
// convolution kernels keep the reference's per-element floating-point
// operation order and never contract multiply-adds; conv_ppv produces
// integer counts; the dot product follows a fixed width-4 stripe
// accumulation order that every backend — scalar included — implements
// identically.  The differential test suites enforce this for every
// table compiled into the binary.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "backend/capability.hpp"

namespace p2auth::backend {

// Nine-tap sliding sum of x at dilation d (zero-padded "same" length):
// sum[i] = sum_j x[i + (j-4)*d] over in-range taps, accumulated in
// ascending tap order starting from 0.0.
using NineTapSumFn = void (*)(const double* x, long long n, long long d,
                              double* sum);

// Completes one MiniRocket kernel from the shared nine-tap sum:
// conv[i] = -sum9[i] + 3*x[i+(k0-4)d] + 3*x[i+(k1-4)d] + 3*x[i+(k2-4)d]
// with in-range taps added in ascending order (k0 < k1 < k2).
using KernelConvFn = void (*)(const double* x, long long n,
                              const double* sum9, int k0, int k1, int k2,
                              long long d, double* conv);

// Fused kernel completion and PPV pooling for one combo.  Each element's
// response v = -sum9[i] + x3[i+sa] + x3[i+sb] + x3[i+sc] (sa < sb < sc the
// shifts (k-4)*d of the kernel's +2 taps; x3 = 3.0*x) is formed in
// registers and counted against each of the combo's `count` biases; the
// response is never stored.  out[q] = (#i with v > biases[q]) * inv_n.
//
// Buffer contract: x3 points at element 0 of a buffer that is readable
// and holds 0.0 on [-n, 0) and [n, 2n + kConvPpvSlack), and sum9 holds NaN
// on [n, n + kConvPpvSlack).  Out-of-range taps therefore add 0.0 where
// the reference skips them.  That can only turn a -0.0 response into
// +0.0, which no `>` compare can tell apart, so the counts (exact
// integers) and the features equal the reference's bit for bit.  A
// vector block may run past n: those lanes' responses are NaN, which
// compares false against every bias and is never counted.
using ConvPpvFn = void (*)(const double* x3, const double* sum9, long long n,
                           int k0, int k1, int k2, long long d,
                           const double* biases, std::size_t count,
                           double inv_n, double* out);

// Slack past n that conv_ppv reads in sum9 and (past 2n) in x3: one
// vector of the widest backend.
inline constexpr std::size_t kConvPpvSlack = 8;

// Width-4 striped dot product: four independent accumulators over
// 4-element blocks (acc_l += a[i+l]*b[i+l], multiply then add, never
// fused), combined as (acc0 + acc1) + (acc2 + acc3), then the tail
// added sequentially.  The stripe order is part of the cross-backend
// bit-identity contract.
using DotFn = double (*)(const double* a, const double* b, std::size_t n);

// y[i] += alpha * x[i], multiply then add per element (never fused).
using AxpyFn = void (*)(double alpha, const double* x, double* y,
                        std::size_t n);

struct KernelTable {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";  // == isa_name(isa)
  NineTapSumFn nine_tap_sum = nullptr;
  KernelConvFn kernel_conv = nullptr;
  ConvPpvFn conv_ppv = nullptr;
  DotFn dot = nullptr;
  AxpyFn axpy = nullptr;
};

// The active kernel table: force_isa() override if set, else the cached
// P2AUTH_BACKEND resolution.  First use may throw BackendError (unknown
// P2AUTH_BACKEND value); afterwards the lookup is two relaxed loads.
const KernelTable& kernels();

// ISA of the table kernels() currently returns.
Isa active_isa();

// Explicit table lookup for tests and benches.  Throws BackendError when
// `isa` is not compiled into this binary or not supported by this host.
const KernelTable& kernels_for(Isa isa);

// ISAs whose kernel TUs are linked into this binary (always includes
// kScalar; architecture- and compiler-dependent beyond that).
std::span<const Isa> compiled_isas() noexcept;

// compiled_isas() filtered to what this host can execute — the set the
// differential suites iterate over.  Always contains kScalar.
std::vector<Isa> available_isas();

// How the environment override resolved (cached).  `fell_back` means
// P2AUTH_BACKEND named a real ISA this binary/host cannot run and the
// best available backend was substituted.
const Resolution& env_resolution();

// Process-wide dispatch override for tests and ops tooling: force a
// specific table (throws BackendError if unavailable) or std::nullopt to
// restore the environment-based resolution.  Takes effect for subsequent
// kernels() calls; swapping mid-flight is safe (atomic pointer) but the
// caller owns the coherence of results produced under different tables.
void force_isa(std::optional<Isa> isa);

}  // namespace p2auth::backend
