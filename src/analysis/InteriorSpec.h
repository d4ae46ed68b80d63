//===- InteriorSpec.h - Interior/edge kernel specialization ----*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interior/edge loop splitting over lowered kernel ASTs.
///
/// Every neighbourhood access of a lowered stencil pays boundary
/// arithmetic — clamp (max/min), mirror (mod + min), wrap (mod) or a
/// constant-pad Select — on *every* iteration, even though only the
/// first and last few iterations of each grid loop can actually be out
/// of bounds. This pass splits the innermost parallel grid loop of each
/// loop nest into three:
///
///   left edge  [0, H)            — original body (general path)
///   interior   [H, count - H)    — body re-simplified under the fact
///                                  that accesses are in bounds: clamp /
///                                  mirror / wrap arithmetic erased,
///                                  constant-pad Selects resolved to
///                                  their load branch
///   right edge [count - H, count) — original body (general path)
///
/// for the smallest halo width H whose interior facts eliminate every
/// boundary operation on that loop's variable (RangeAnalysis.h provides
/// the proofs). Outer grid loops stay whole: their clamps are
/// loop-invariant inside the innermost loop, so splitting them would
/// only multiply code size and host-compile time. The interior loop
/// carries Stmt::Simd, which the C emitter turns into
/// `#pragma omp simd` when its body is a pure store stream. The split
/// is performed only when it is a pure win: if no H up to a small
/// limit clears the body, the loop is left untouched.
///
/// Tiled local-memory kernels have no grid loop to split. There, each
/// tile fill in the innermost work-group loop (variable w, count nT) is
/// versioned instead:
///
///   if (1 <= w < nT - M) clean fill else original fill
///
/// The clean fill is the fill re-simplified under the guard's facts,
/// free of boundary arithmetic on w, for the smallest margin M <= 4
/// that achieves that (a halo of two needs M = 2); its innermost Lcl
/// loop carries Stmt::Simd, and so does the innermost Lcl loop of the
/// compute nest, which stays one copy. A fill no margin clears is left
/// unchanged.
///
/// The pass is idempotent: an interior loop has no boundary work left
/// to erase, an edge loop runs at most H iterations, and a versioned
/// fill is an If rather than a fill loop, so a second pass changes
/// nothing and returns an identical kernel.
///
/// The rewrite is semantics-preserving by construction — the three
/// ranges partition [0, count) exactly, each clone computes the same
/// function on its subrange, and a fill's two versions compute the
/// same tile — and is additionally enforced end to end
/// by the differential fuzzer (liftfuzz --native compares the native
/// output, always specialized, bit-for-bit against the interpreter).
///
/// The native C backend applies this pass to every kernel it compiles
/// (native/NativeRunner.h); the NDRange simulator and the OpenCL
/// emitter keep the unsplit form.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_ANALYSIS_INTERIORSPEC_H
#define LIFT_ANALYSIS_INTERIORSPEC_H

#include "ocl/KernelAst.h"

namespace lift {
namespace analysis {

/// What specializeInterior did.
struct SpecStats {
  unsigned LoopsSplit = 0;     ///< grid loops split into edge/interior
  unsigned FillsVersioned = 0; ///< tile fills guarded into clean/general
  unsigned SelectsResolved = 0; ///< constant-pad Selects proved away
  bool changed() const { return LoopsSplit != 0 || FillsVersioned != 0; }
};

/// Returns a copy of \p K with every eligible innermost parallel grid
/// loop split into left-edge / clamp-free-interior / right-edge loops
/// and every clearable tile fill versioned (see file comment). Loops
/// and fills whose boundary work cannot be proven away are left
/// unchanged — the result is always a valid kernel computing the same
/// function.
ocl::Kernel specializeInterior(const ocl::Kernel &K,
                               SpecStats *Stats = nullptr);

} // namespace analysis
} // namespace lift

#endif // LIFT_ANALYSIS_INTERIORSPEC_H
