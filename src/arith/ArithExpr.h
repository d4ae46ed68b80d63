//===- ArithExpr.h - Symbolic integer arithmetic ---------------*- C++ -*-===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic integer arithmetic expressions.
///
/// Lift array types carry their sizes symbolically (e.g. an array of
/// length (n - size + step) / step after `slide`), and the view system
/// compiles data-layout primitives into index expressions over loop
/// variables. Both are represented by ArithExpr: an immutable,
/// simplifying-on-construction expression DAG over 64-bit integers with
/// variables, +, *, floor-division, floor-modulo, min and max.
///
/// All division/modulo uses *floor* semantics (rounding toward negative
/// infinity) so that the rewriting identities used by the simplifier,
/// e.g. (a*c + b) / c == a + b/c for c > 0, hold for all operand signs.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_ARITH_ARITHEXPR_H
#define LIFT_ARITH_ARITHEXPR_H

#include "support/Support.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace lift {

class ArithExpr;

/// Shared handle to an immutable arithmetic expression node.
using AExpr = std::shared_ptr<const ArithExpr>;

/// An (optionally unbounded) inclusive integer interval used for range
/// analysis on arithmetic expressions. Unknown endpoints are nullopt.
struct Range {
  std::optional<std::int64_t> Min;
  std::optional<std::int64_t> Max;

  Range() = default;
  Range(std::int64_t MinVal, std::int64_t MaxVal) : Min(MinVal), Max(MaxVal) {}

  /// Returns true when both endpoints are known.
  bool isBounded() const { return Min.has_value() && Max.has_value(); }

  /// Returns true when the whole interval is >= \p V.
  bool atLeast(std::int64_t V) const { return Min && *Min >= V; }

  /// Returns true when the whole interval is <= \p V.
  bool atMost(std::int64_t V) const { return Max && *Max <= V; }
};

/// An immutable symbolic integer expression.
///
/// Nodes are created through the simplifying factory functions (cst, var,
/// add, mul, floorDiv, floorMod, amin, amax) which maintain a canonical
/// sum-of-products normal form: Add nodes are flat sums of non-Add terms
/// with like terms merged; Mul nodes are flat products with a leading
/// constant and deterministically ordered symbolic factors.
///
/// Canonical nodes are hash-consed in an ArithCtx arena (ArithCtx.h):
/// structurally equal expressions built through the factories are
/// pointer-equal, structural hashes are precomputed at construction,
/// and range analysis memoizes per node.
class ArithExpr {
public:
  enum class Kind {
    Cst, ///< Integer literal.
    Var, ///< Named variable with a unique id and optional range.
    Add, ///< N-ary sum.
    Mul, ///< N-ary product.
    Div, ///< Binary floor division.
    Mod, ///< Binary floor modulo.
    Min, ///< Binary minimum.
    Max, ///< Binary maximum.
  };

  Kind getKind() const { return K; }

  /// Literal value; only valid on Cst nodes.
  std::int64_t getCst() const;

  /// Variable name; only valid on Var nodes.
  const std::string &getVarName() const;

  /// Unique variable id; only valid on Var nodes.
  unsigned getVarId() const;

  /// Declared range of a Var node; only valid on Var nodes.
  const Range &getVarRange() const;

  /// Operand list; empty for Cst/Var.
  const std::vector<AExpr> &getOperands() const { return Operands; }

  /// Returns true if this is the literal \p V.
  bool isCst(std::int64_t V) const {
    return K == Kind::Cst && CstVal == V;
  }

  /// Computes a conservative value interval via interval analysis.
  /// The result is memoized on the node (nodes are immutable, so the
  /// interval is a pure function of identity).
  Range getRange() const;

  /// Evaluates with concrete variable bindings keyed by variable id.
  /// Unbound variables are a fatal error.
  std::int64_t evaluate(
      const std::unordered_map<unsigned, std::int64_t> &Env) const;

  /// Renders a human-readable form, also valid as C/OpenCL source for
  /// expressions whose division operands are non-negative.
  std::string toString() const;

  /// Structural hash, consistent with compareExprs equality. Computed
  /// once at construction and cached, so this is O(1).
  std::size_t hash() const { return HashVal; }

  // Factories are friends so the constructor can stay private and all
  // nodes are guaranteed to be simplified.
  friend AExpr makeNode(Kind K, std::int64_t CstVal, std::string VarName,
                        unsigned VarId, Range VarRange,
                        std::vector<AExpr> Operands);

  // The hash-consing arena allocates nodes and fills in the cached
  // structural hash before publishing them.
  friend class ArithCtx;

private:
  ArithExpr() = default;

  /// The uncached interval computation behind getRange().
  Range computeRange() const;

  Kind K = Kind::Cst;
  std::int64_t CstVal = 0;
  std::string VarName;
  unsigned VarId = 0;
  Range VarRange;
  std::vector<AExpr> Operands;
  std::size_t HashVal = 0;

  // Range-analysis memo (see getRange). Thread-safe publication: the
  // flag is set with release ordering after CachedRange is written
  // under a striped mutex (see ArithExpr.cpp); readers acquire-load the
  // flag before touching CachedRange.
  mutable Range CachedRange;
  mutable std::atomic<bool> RangeCached{false};
};

/// Total structural order over expressions; returns <0, 0, >0.
/// Equal expressions (0) are semantically identical.
int compareExprs(const AExpr &A, const AExpr &B);

/// Structural equality (compareExprs == 0). O(1) for interned nodes:
/// hash-consing makes structural equality coincide with pointer
/// equality, and a hash mismatch settles inequality without a walk.
bool exprEquals(const AExpr &A, const AExpr &B);

//===----------------------------------------------------------------------===//
// Simplifying factory functions
//===----------------------------------------------------------------------===//

/// Creates an integer literal.
AExpr cst(std::int64_t V);

/// Creates a fresh variable with a process-unique id.
/// \p R declares the values the variable may take; size variables are
/// typically given Range(1, HUGE) and index variables [0, n-1].
AExpr var(std::string Name, Range R = Range());

/// Sum; flattens, folds constants and merges like terms.
AExpr add(AExpr A, AExpr B);

/// Difference (A + (-1) * B).
AExpr sub(AExpr A, AExpr B);

/// Product; flattens, folds constants and distributes over sums.
AExpr mul(AExpr A, AExpr B);

/// Floor division. Simplifies exactly-divisible sums term-wise.
AExpr floorDiv(AExpr A, AExpr B);

/// Floor modulo; the result lies in [0, B) for positive B.
AExpr floorMod(AExpr A, AExpr B);

/// Minimum of two expressions.
AExpr amin(AExpr A, AExpr B);

/// Maximum of two expressions.
AExpr amax(AExpr A, AExpr B);

/// max(0, min(I, N-1)): the `clamp` boundary index function from the
/// paper (Section 3.2).
AExpr clampIndex(AExpr I, AExpr N);

/// Replaces variables (by id) with expressions, re-simplifying.
/// Memoized on node identity within one call, so subtrees shared via
/// interning are rewritten once.
AExpr substitute(const AExpr &E,
                 const std::unordered_map<unsigned, AExpr> &Subst);

/// substitute() of many expressions, each under its own values for one
/// fixed list of variables, memoized across all calls: a subtree is
/// rebuilt once per combination of the values of the variables it
/// reads. So a subtree shared between the expressions of a kernel body
/// is rebuilt once, and so is one that reads only variables whose
/// values repeat between calls. (*this)(E, Values) equals
/// substitute(E, {Vars[I] -> Values[I]}) node for node.
class Substitution {
public:
  explicit Substitution(std::vector<unsigned> Vars);
  AExpr operator()(const AExpr &E, const std::vector<AExpr> &Values);

private:
  /// The bit set of Vars that \p E reads.
  std::uint64_t reads(const AExpr &E);
  AExpr rec(const AExpr &E, const std::vector<AExpr> &Values);

  /// A node followed by the values of the variables it reads. Holding
  /// the nodes keeps their addresses from being reused.
  using Key = std::vector<AExpr>;
  struct KeyHash {
    std::size_t operator()(const Key &K) const;
  };

  std::vector<unsigned> Vars;
  std::unordered_map<const ArithExpr *, std::pair<AExpr, std::uint64_t>>
      Reads;
  std::unordered_map<Key, AExpr, KeyHash> Memo; ///< by node address
};

/// Collects the ids of all variables occurring in \p E into \p Out.
void collectVars(const AExpr &E, std::vector<unsigned> &Out);

} // namespace lift

#endif // LIFT_ARITH_ARITHEXPR_H
