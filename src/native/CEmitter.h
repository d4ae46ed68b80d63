//===- CEmitter.h - Kernel AST to plain C ----------------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the imperative kernel AST (ocl/KernelAst.h) to plain C so it
/// can be compiled by the host toolchain and executed natively (the
/// Devito-style "emit C, compile, dlopen" backend). The emitted source
/// is a semantic mirror of the NDRange simulator:
///
///  * every loop — Seq, Glb, Wrg, Lcl — iterates 0..count-1 in order,
///    matching the simulator's exact-fit NDRange execution;
///  * index arithmetic uses *floor* division/modulo helpers
///    (lift_fdiv/lift_fmod), the semantics ArithExpr::evaluate uses —
///    C's truncating `/` and `%` would diverge on negative operands;
///  * float literals are printed with 9 significant digits, enough for
///    any float to round-trip bit-exactly;
///  * user functions keep their OpenCL C bodies, with sqrt/fmax/fmin
///    mapped onto their float-precision C versions so arithmetic stays
///    in float exactly as the interpreter's C++ callbacks compute it;
///  * barriers vanish: a Lcl loop runs to completion before the next
///    statement, which is the simulator's (and, under the pragma
///    placement below, OpenMP's) implicit barrier.
///
/// Parallelism: the outermost Glb/Wrg loops get
/// `#pragma omp parallel for` and every register and local/private
/// buffer used under such a loop is declared inside its body, making
/// it iteration-private — the moral equivalent of OpenCL private
/// variables and per-work-group local memory. When a register or
/// local/private buffer is used outside any such loop (or across two
/// of them) the emitter falls back to a fully sequential program,
/// which is always correct.
///
/// Vectorization: a loop carrying Stmt::Simd (the clamp-free interior
/// of a split grid loop) whose body only stores to buffers it never
/// loads gets `#pragma omp simd` (`parallel for simd` when it is also a
/// parallel root). User functions are emitted `static inline` with
/// `always_inline` so the vectorizer sees through them. Lanes compute
/// exactly the scalar operations (-ffp-contract=off, no reassociation),
/// so the output stays bit-identical.
///
/// The entry point ABI is positional:
///
///   void <name>(void **lift_bufs, const long long *lift_sizes,
///               int lift_threads);
///
/// `lift_bufs` holds one pointer per *global* buffer in declaration
/// order (float* or int32_t* according to the element kind);
/// `lift_sizes` holds one value per Kernel::SizeArgs entry, in order.
/// Buffer/size order is a pure function of the kernel structure, so
/// alpha-equivalent kernels (equal structural hash) share one ABI —
/// the property the compiled-kernel cache relies on.
///
/// Profile mode (CEmitOptions::Profile) appends one parameter:
///
///   void <name>(void **lift_bufs, const long long *lift_sizes,
///               int lift_threads, double *lift_prof);
///
/// and wraps each profile region (profileRegions()) in monotonic-clock
/// timers that *accumulate* elapsed seconds into lift_prof[k], k being
/// the region's index in profileRegions() order. The computation is
/// untouched — outputs stay bit-identical to the unprofiled kernel —
/// but the `omp parallel` pragmas are suppressed (sequential execution)
/// so nested region timers measure exactly one thread's work and
/// attribution is exact; lift_threads is accordingly inert under
/// profiling. `#pragma omp simd` stays, so a profile times the same
/// vectorized loops the unprofiled kernel runs.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_NATIVE_CEMITTER_H
#define LIFT_NATIVE_CEMITTER_H

#include "ocl/KernelAst.h"

#include <string>
#include <vector>

namespace lift {
namespace native {

struct CEmitOptions {
  /// Emit `#pragma omp parallel for` on parallelizable outermost
  /// Glb/Wrg loops and `#pragma omp simd` on Stmt::Simd loops whose
  /// body only stores to buffers it never loads. The pragmas are
  /// ignored when the source is compiled without -fopenmp, so
  /// disabling this only pins the golden-source tests of the
  /// sequential shape.
  bool OpenMP = true;
  /// Instrument profile regions with timers and extend the ABI with a
  /// `double *lift_prof` accumulator array (see file comment). Forces
  /// sequential emission.
  bool Profile = false;
};

/// One instrumentable loop-nest region of a kernel. Regions partition
/// the interesting work: every top-level loop nest is one region,
/// except that when a spine of singleton Glb/Wrg loops (the NDRange
/// grid) ends in a body with several sub-loops (local-tile fill,
/// compute/reduce loops), each of those sub-loops becomes its own
/// region — the shape tiled+local-memory lowerings produce. The three
/// loops of a split innermost loop (edge, interior, edge; see
/// analysis/InteriorSpec.h) count as one loop, so a kernel and its
/// interior-specialized form have the same region list. A tiled kernel
/// the native backend folds (analysis/TileFold.h) has the regions of
/// the grid nest it folds into.
struct KernelRegion {
  /// Deterministic name: "<kind>.<loop var>", e.g. "glb.i0", "lcl.i4"
  /// (deduplicated with numeric suffixes if loop-var names repeat).
  std::string Name;
  std::string Kind; ///< loopKindName of the region root
  /// The (first) loop the timer wraps.
  const ocl::Stmt *Loop = nullptr;
  /// Every loop the timer wraps, consecutive siblings starting at
  /// Loop: one nest, or the three loops of a split innermost loop.
  std::vector<const ocl::Stmt *> Loops;
};

/// The profile regions of \p K, in the order their timers index
/// lift_prof[]. A pure function of the kernel structure — the emitter
/// and the runtime report derive the same list independently.
std::vector<KernelRegion> profileRegions(const ocl::Kernel &K);

/// Renders \p K as a self-contained C translation unit. The output is
/// deterministic: equal kernels produce byte-identical source (the
/// golden-snapshot contract in tests/native/golden/).
std::string emitC(const ocl::Kernel &K, const CEmitOptions &O = {});

} // namespace native
} // namespace lift

#endif // LIFT_NATIVE_CEMITTER_H
