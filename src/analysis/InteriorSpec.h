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
/// Tiled kernels have no grid loop to split; the native backend folds
/// them back into grid nests first (TileFold.h), and this pass then
/// splits the folded nest like any other.
///
/// The pass is idempotent: an interior loop has no boundary work left
/// to erase and an edge loop runs at most H iterations, so a second
/// pass changes nothing and returns an identical kernel.
///
/// The rewrite is semantics-preserving by construction — the three
/// ranges partition [0, count) exactly, each clone computes the same
/// function on its subrange — and is additionally enforced end to end
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

/// What the native backend's kernel passes did (TileFold.h, then
/// specializeInterior).
struct SpecStats {
  unsigned TilesFolded = 0;   ///< tiled nests folded into grid nests
  unsigned TilesUnfolded = 0; ///< tiled nests the fold left tiled
  unsigned LoopsSplit = 0;    ///< grid loops split into edge/interior
  unsigned SelectsResolved = 0; ///< constant-pad Selects proved away
  bool changed() const { return LoopsSplit != 0 || TilesFolded != 0; }
};

/// Returns a copy of \p K with every eligible innermost parallel grid
/// loop split into left-edge / clamp-free-interior / right-edge loops
/// (see file comment). Loops whose boundary work cannot be proven away
/// are left unchanged — the result is always a valid kernel computing
/// the same function.
ocl::Kernel specializeInterior(const ocl::Kernel &K,
                               SpecStats *Stats = nullptr);

} // namespace analysis
} // namespace lift

#endif // LIFT_ANALYSIS_INTERIORSPEC_H
