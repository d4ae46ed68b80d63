//===- AccessAnalysis.h - Static memory-access analysis --------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static coalescing analysis over generated kernels. For every global
/// load/store site, the per-lane stride is computed by symbolically
/// probing the index expression along the fastest-varying parallel
/// dimension (global/local id 0): consecutive work-items with stride 1
/// coalesce into single memory transactions, larger strides split them,
/// and lane-invariant indices broadcast. GPU coalescing is one of the
/// "hardware details" the paper's introduction lists as requiring
/// expert care; this pass makes the property of generated kernels
/// checkable (and is used by tests to assert that the code generator's
/// dimension assignment keeps row-major stencils coalesced).
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_CODEGEN_ACCESSANALYSIS_H
#define LIFT_CODEGEN_ACCESSANALYSIS_H

#include "ocl/Sim.h"

#include <string>
#include <vector>

namespace lift {
namespace codegen {

/// Classification of one access site along the lane dimension.
enum class AccessPattern {
  Coalesced, ///< stride 1: consecutive lanes, consecutive elements
  Uniform,   ///< stride 0: all lanes read the same element (broadcast)
  Strided,   ///< constant stride > 1: transactions split
  Irregular, ///< non-affine in the lane id (e.g. boundary clamping)
  Sequential ///< not indexed by any parallel id (inside one work-item)
};

const char *accessPatternName(AccessPattern P);

/// One global-memory access site in a kernel.
struct AccessSite {
  bool IsStore = false;
  int BufferId = -1;
  std::string BufferName;
  AExpr Index;
  /// Elements between lane i and lane i+1 (valid for Coalesced/
  /// Uniform/Strided).
  std::int64_t Stride = 0;
  AccessPattern Pattern = AccessPattern::Sequential;
};

/// Summary of a kernel's global access behavior.
struct AccessReport {
  std::vector<AccessSite> Sites;

  int count(AccessPattern P) const;
  /// True when no site is Strided or Irregular along the lane dim.
  bool fullyCoalesced() const;
};

/// Analyzes the global-memory accesses of \p K with concrete \p Sizes
/// (sizes are needed to evaluate strides through row-major
/// linearization). Local/private accesses are ignored.
AccessReport analyzeAccesses(const ocl::Kernel &K,
                             const ocl::SizeEnv &Sizes);

/// Statically derived work of one loop-nest region, counted over the
/// full iteration space with concrete sizes (the per-region
/// denominators of the native profiler's roofline report).
struct RegionWork {
  std::uint64_t Iterations = 0;   ///< trip count of the region's root loop
  std::uint64_t BytesRead = 0;    ///< global-memory bytes loaded
  std::uint64_t BytesWritten = 0; ///< global-memory bytes stored
  std::uint64_t Flops = 0;        ///< user-function applications, weighted
                                  ///< by UserFun::getFlopCost()
};

/// Counts the static work under \p RegionRoot (a loop of \p K,
/// possibly nested — enclosing loop trip counts multiply in). Only
/// global-space accesses count toward bytes: local/private staging
/// traffic is deliberately excluded so arithmetic intensity is
/// DRAM-relative, the roofline convention. Both scalar kinds are 4
/// bytes. For bounds-checked Select expressions the then-branch (the
/// in-bounds load) is counted on every lane — an over-approximation at
/// edges that is exact in the interior. Loop counts that cannot be
/// evaluated under \p Sizes contribute zero.
RegionWork staticRegionWork(const ocl::Kernel &K,
                            const ocl::Stmt &RegionRoot,
                            const ocl::SizeEnv &Sizes);

} // namespace codegen
} // namespace lift

#endif // LIFT_CODEGEN_ACCESSANALYSIS_H
