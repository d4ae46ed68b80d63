//===- TileFold.h - Fold tiled kernels into grid loops ---------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds tiled kernels back into plain grid loop nests for the host.
///
/// On a CPU the paper's local-memory tile (§4.1) is one more copy and a
/// work-group is one more loop. Walking tiles costs more than either:
/// each fill of a 16^3 tile reads 324 short rows at once, more streams
/// than the hardware prefetcher follows, and a tiled kernel's innermost
/// loop runs over 16 elements instead of a whole row. This pass turns
/// every tiled nest back into the grid nest it tiles, in three steps:
///
///  1. Forward the fills. A local buffer whose only writer is an
///     identity tile fill, a perfect Lcl nest storing
///     lcl[sum_k s_k * l_k] = id(global[g(w, l)]) (or a constant-pad
///     choice between such a load and a constant), is read through the
///     fill: lcl[r] becomes global[g(w, l := coords(r))], where
///     coords(r) are the fill coordinates of r, floor(r / s_k) mod n_k,
///     simplified under the loop ranges (RangeAnalysis.h). The fill
///     loops, the barrier and the buffer go.
///  2. Collapse tile-coarsened local loops: a local loop l1 whose body
///     is one sequential loop l2 of c iterations, used only as
///     c * l1 + l2, becomes one local loop.
///  3. Fold every pair of work-group loop w and local loop l of one
///     dimension whose body names them only as O(w) + l, with tile
///     offset O(w) = min(n - T, T * w) (clamped tiles) or T * w (tiles
///     that divide the axis), into one grid loop j over [0, n).
///
/// Step 3 is legal because after step 1 no barrier and no local memory
/// is left, the body reads no buffer it writes, and a body that depends
/// on (w, l) only through j writes every output with one value however
/// many tiles cover it (a lowered map nest stores each grid point's
/// output at its own element, so no two j write one element). The substitution l := j - O(w) checks the last
/// condition for free: the canonicalizer cancels O(w) exactly when every
/// access names the offset in one form, and w must then be gone. The
/// tiles must also cover [0, n) and nothing beyond it, which
/// RangeAnalysis proves under the kernel's launch preconditions.
///
/// A nest any step cannot handle is left tiled, whole, and counted in
/// SpecStats::TilesUnfolded. The result has no work-group loop left
/// when everything folds, so a second pass is the identity.
///
/// The native C backend runs this pass before the interior split
/// (InteriorSpec.h), which then treats a folded nest like any untiled
/// grid nest. The NDRange simulator, the OpenCL emitter and the device
/// model keep the tiled form.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_ANALYSIS_TILEFOLD_H
#define LIFT_ANALYSIS_TILEFOLD_H

#include "analysis/InteriorSpec.h"

namespace lift {
namespace analysis {

/// Returns a copy of \p K with every foldable tiled nest folded into a
/// grid nest (see file comment). Stats->TilesFolded counts the folded
/// nests, Stats->TilesUnfolded the tiled nests left as they were.
ocl::Kernel foldTiles(const ocl::Kernel &K, SpecStats *Stats = nullptr);

} // namespace analysis
} // namespace lift

#endif // LIFT_ANALYSIS_TILEFOLD_H
