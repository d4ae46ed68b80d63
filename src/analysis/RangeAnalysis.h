//===- RangeAnalysis.h - Symbolic range/refinement analysis ----*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A symbolic interval/refinement domain over the hash-consed ArithExpr
/// arena. The memoized numeric Range on every node (ArithExpr::getRange)
/// only knows each variable's *declared* interval; this layer adds
/// context facts — per-variable refinements of the form
///
///   lo(other vars) <= v <= hi(other vars)
///
/// gathered from loop bounds (a loop variable lies in [0, count-1]),
/// concrete SizeEnv bindings, and Select guard conditions. Bounds are
/// computed as *symbolic expressions* rather than numbers, so the
/// sum-of-products canonicalizer cancels shared terms: the question
/// "is i + j - 1 <= n - 1 for i <= n - 3, j <= 2?" reduces to the
/// numeric range of (n - 1) - ((n - 3) + 2) = 0, which is decidable
/// even though n itself is unbounded.
///
/// Three consumers (paper §5's "aggressive simplification" taken one
/// step further):
///
///  1. provablyInBounds / simplifyWithFacts — lets the interior
///     specializer (InteriorSpec.h) drop clamp/mirror/wrap boundary
///     arithmetic where an access is provably interior;
///  2. refuteSplitDivisibility — statically refutes split(m)
///     divisibility side conditions against a concrete SizeEnv, so the
///     fuzzer/tuner skip candidates instead of discarding programs;
///  3. checkKernelBounds — a static bounds-check pass over lowered
///     kernel ASTs (liftc emit --check-bounds, liftfuzz --check-bounds).
///     It alone also tries an elimination prover that keeps correlated
///     refinements symbolic, too slow for consumer 1's many queries.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_ANALYSIS_RANGEANALYSIS_H
#define LIFT_ANALYSIS_RANGEANALYSIS_H

#include "arith/ArithExpr.h"
#include "ir/Expr.h"
#include "ocl/KernelAst.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace lift {
namespace analysis {

/// Per-variable refinement: symbolic inclusive bounds, either of which
/// may be null (unknown). Bounds may mention *other* variables (e.g.
/// `i <= n - 3`), never the refined variable itself.
struct Refinement {
  AExpr Lo; ///< v >= Lo when non-null
  AExpr Hi; ///< v <= Hi when non-null
};

/// An immutable set of context facts: per-variable refinements.
/// Extension returns a new value (persistent-map style) so facts can be
/// pushed and popped along a kernel walk without mutation.
class Facts {
public:
  Facts() = default;

  /// Adds (meets) the refinement Lo <= v <= Hi. When \p V is already
  /// refined the bounds intersect: the new Lo is max(old, new), the
  /// new Hi min(old, new). Null keeps the old bound.
  Facts withBound(unsigned VarId, AExpr Lo, AExpr Hi) const;

  /// Loop-bound fact for a loop running 0..Count-1: V in [0, Count-1].
  /// \p LoopVar must be a Var node.
  Facts withLoopVar(const AExpr &LoopVar, const AExpr &Count) const;

  /// Binds every (var id -> value) pair as the exact refinement
  /// [cst(v), cst(v)] — the SizeEnv context of a concrete run.
  Facts
  withSizeEnv(const std::unordered_map<unsigned, std::int64_t> &Env) const;

  /// Learns from a guard condition Lo <= Idx < Hi known to hold (e.g. a
  /// Select bounds check when analyzing its Then branch). The guard is
  /// *solved* for one variable: when some v occurs exactly once in Idx,
  /// at the top level of the canonical sum with coefficient +-1, the
  /// condition rewrites to bounds on v (sum-of-products cancellation
  /// guarantees the bounds no longer mention v). Unsolvable guards are
  /// dropped — always sound, merely less precise. When several
  /// variables qualify, the largest id (innermost-created, typically
  /// the innermost loop variable) is chosen.
  Facts withCheckFact(const AExpr &Idx, const AExpr &Lo,
                      const AExpr &Hi) const;

  /// Least upper bound with \p Other: only variables refined on both
  /// sides survive, with min of the Los and max of the His.
  Facts join(const Facts &Other) const;

  /// The refinement for \p VarId, or nullptr.
  const Refinement *refinement(unsigned VarId) const;

private:
  std::unordered_map<unsigned, Refinement> Refs;
};

/// A symbolic lower/upper bound of \p E under \p F: an expression
/// provably <= / >= E for every assignment satisfying the facts.
/// Always sound — the fallback result is E itself.
AExpr lowerBound(const AExpr &E, const Facts &F);
AExpr upperBound(const AExpr &E, const Facts &F);

/// True when A <= B holds for every assignment satisfying \p F.
/// (False means "not provable", not "provably greater".)
bool provablyLE(const AExpr &A, const AExpr &B, const Facts &F);

/// provablyLE, then an elimination prover that keeps correlated
/// refinements symbolic and applies the floor rule to the bare
/// difference (16 * floor((n - 1) / 16) >= n - 16), then case splits of
/// the difference's lower bound with constant facts as variable ranges.
/// Costs too much for
/// the interior specializer's many failing queries; meant for a few
/// queries per kernel (checkKernelBounds, the tile fold's coverage).
bool provablyLEThorough(const AExpr &A, const AExpr &B, const Facts &F);

/// True when Lo <= I < HiExcl is provable under \p F.
bool provablyInBounds(const AExpr &I, const AExpr &Lo, const AExpr &HiExcl,
                      const Facts &F);

/// Rebuilds \p E dropping operations the facts prove redundant:
/// min(a,b) -> a when a <= b is provable (dually max), and
/// a mod b -> a when 0 <= a < b is provable. This is what erases
/// clamp (max/min), mirror (mod + min) and wrap (mod) boundary
/// arithmetic on provably-interior accesses.
AExpr simplifyWithFacts(const AExpr &E, const Facts &F);

/// Non-fatal evaluation: nullopt when a variable is unbound (unlike
/// ArithExpr::evaluate, which is fatal).
std::optional<std::int64_t>
tryEvaluate(const AExpr &E,
            const std::unordered_map<unsigned, std::int64_t> &Env);

//===----------------------------------------------------------------------===//
// Consumer (b): split-divisibility refutation
//===----------------------------------------------------------------------===//

/// Statically refutes the divisibility side condition of every
/// split(m) in \p P against the concrete \p Sizes: returns a
/// human-readable reason when some split's input length L and chunk m
/// both evaluate concretely and L % m != 0 (the program is partial at
/// these sizes — an interpreter or simulator run would fail its
/// divisibility assertion). Returns nullopt when no refutation exists.
/// Requires \p P to be type-checked (split input lengths live in the
/// inferred types); untyped subtrees are skipped conservatively.
std::optional<std::string> refuteSplitDivisibility(
    const ir::Program &P,
    const std::unordered_map<unsigned, std::int64_t> &Sizes);

//===----------------------------------------------------------------------===//
// Consumer (c): static kernel bounds checking
//===----------------------------------------------------------------------===//

/// One access the checker could not prove in bounds.
struct BoundsViolation {
  bool IsStore = false;
  std::string BufferName;
  std::string Index;  ///< the (possibly simplified) index expression
  std::string Extent; ///< the buffer's element count
};

/// The launch preconditions of \p K as facts: every MinExtent whose
/// extent is v + c for one size variable v bounds v below by Min - c.
/// Sound because checkLaunchExtents (ocl/Sim.h) refuses any launch that
/// breaks one.
Facts launchFacts(const ocl::Kernel &K);

/// Statically checks every Load/Store of \p K: the index must be
/// provably within [0, NumElems) of its buffer under the launch
/// preconditions (Kernel::MinExtents), the loop-bound facts (each loop
/// variable in [0, count-1]) and Select guard facts (a Select's Then
/// branch only runs when its checks hold). With \p Sizes the kernel's
/// size arguments are bound first, making every bound concrete. Returns the unprovable accesses; empty means the kernel
/// is statically memory-safe.
std::vector<BoundsViolation> checkKernelBounds(
    const ocl::Kernel &K,
    const std::unordered_map<unsigned, std::int64_t> *Sizes = nullptr);

/// Renders violations as a human-readable report ("" when clean).
std::string describeViolations(const std::vector<BoundsViolation> &V);

} // namespace analysis
} // namespace lift

#endif // LIFT_ANALYSIS_RANGEANALYSIS_H
