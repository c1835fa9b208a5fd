#pragma once
// Compile-time feature-width specialization: the single runtime dispatch
// point shared by every width-templated kernel (the CSR SpMM and the GEMM
// variants).
//
// GCN feature widths are small and highly repetitive — the hidden width is
// 16 in the paper configuration, and input/output widths cluster around a
// handful of powers of two. Templating the inner accumulate loop on the
// width F lets the compiler fully unroll and vectorize it; everything else
// (shape checks, blocking, parallel fan-out) stays width-agnostic and is
// written once.
//
// Contract: a kernel is a class template `Kernel<F>` exposing a static
// member function `run` whose signature is identical for every F. F is the
// compile-time width, or kDynamicWidth (-1) for the runtime-f fallback —
// the fallback body must be TEXTUALLY the same loop with `f` read at
// runtime, so every instantiation performs the identical floating-point
// operations in the identical order and stays bitwise equal to the
// *_reference kernels (tests/test_kernels_specialized.cpp sweeps this).
//
// select_by_width resolves the function pointer once per kernel call, so
// the hot loops themselves contain no dispatch.

#include "common/types.hpp"

namespace sagnn {

/// Sentinel template argument: read the width at runtime.
inline constexpr int kDynamicWidth = -1;

/// The widths with dedicated instantiations. Chosen to cover the repo's
/// actual call sites: hidden width 16, common input widths 32/64/128.
/// Any other width takes the generic runtime-f path.
inline constexpr int kSpecializedWidths[] = {16, 32, 64, 128};

/// Returns &Kernel<F>::run for the specialized F matching `f`, or the
/// generic &Kernel<kDynamicWidth>::run. All instantiations share one
/// signature, so the result is an ordinary function pointer.
template <template <int> class Kernel>
auto select_by_width(vid_t f) {
  switch (f) {
    case 16:
      return &Kernel<16>::run;
    case 32:
      return &Kernel<32>::run;
    case 64:
      return &Kernel<64>::run;
    case 128:
      return &Kernel<128>::run;
    default:
      return &Kernel<kDynamicWidth>::run;
  }
}

}  // namespace sagnn
