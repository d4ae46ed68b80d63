//===- RangeAnalysis.cpp - Symbolic range/refinement analysis ------------===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/RangeAnalysis.h"

#include "ir/Types.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_set>

namespace lift {
namespace analysis {

namespace {

using Kind = ArithExpr::Kind;

/// Occurrence count of every variable in \p E (collectVars deduplicates,
/// so the refinement solver counts by hand), plus the Var node itself.
void countVars(const AExpr &E,
               std::unordered_map<unsigned, std::pair<unsigned, AExpr>> &Out) {
  if (E->getKind() == Kind::Var) {
    auto &Slot = Out[E->getVarId()];
    ++Slot.first;
    Slot.second = E;
    return;
  }
  for (const AExpr &Op : E->getOperands())
    countVars(Op, Out);
}

/// The coefficient of \p V at the top level of the canonical sum \p E:
/// +1 when a summand is V itself, -1 when a summand is (-1 * V), 0
/// otherwise (V absent from the top level, or scaled/nested).
int topLevelUnitCoeff(const AExpr &E, const AExpr &V) {
  auto TermCoeff = [&](const AExpr &T) -> int {
    if (exprEquals(T, V))
      return 1;
    if (T->getKind() == Kind::Mul && T->getOperands().size() == 2 &&
        T->getOperands()[0]->isCst(-1) && exprEquals(T->getOperands()[1], V))
      return -1;
    return 0;
  };
  if (E->getKind() != Kind::Add)
    return TermCoeff(E);
  for (const AExpr &T : E->getOperands())
    if (int C = TermCoeff(T))
      return C;
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Facts
//===----------------------------------------------------------------------===//

Facts Facts::withBound(unsigned VarId, AExpr Lo, AExpr Hi) const {
  Facts Out = *this;
  Refinement &R = Out.Refs[VarId];
  if (Lo)
    R.Lo = R.Lo ? amax(R.Lo, std::move(Lo)) : std::move(Lo);
  if (Hi)
    R.Hi = R.Hi ? amin(R.Hi, std::move(Hi)) : std::move(Hi);
  return Out;
}

Facts Facts::withLoopVar(const AExpr &LoopVar, const AExpr &Count) const {
  if (LoopVar->getKind() != Kind::Var)
    fatalError("Facts::withLoopVar needs a Var node");
  // Counts of the form max(c, X) with c <= 0 (the zero-clamped extents
  // of split edge/interior loops) tighten inside the body: iterations
  // exist only when the count is positive, and then max(c, X) == X.
  AExpr Eff = Count;
  if (Count->getKind() == Kind::Max) {
    const auto &Ops = Count->getOperands();
    if (Ops[0]->getKind() == Kind::Cst && Ops[0]->getCst() <= 0)
      Eff = Ops[1];
    else if (Ops[1]->getKind() == Kind::Cst && Ops[1]->getCst() <= 0)
      Eff = Ops[0];
  }
  return withBound(LoopVar->getVarId(), cst(0), sub(Eff, cst(1)));
}

Facts Facts::withSizeEnv(
    const std::unordered_map<unsigned, std::int64_t> &Env) const {
  Facts Out = *this;
  for (const auto &[Id, V] : Env) {
    Refinement &R = Out.Refs[Id];
    R.Lo = cst(V);
    R.Hi = cst(V);
  }
  return Out;
}

Facts Facts::withCheckFact(const AExpr &Idx, const AExpr &Lo,
                           const AExpr &Hi) const {
  std::unordered_map<unsigned, std::pair<unsigned, AExpr>> Occ;
  countVars(Idx, Occ);
  // Prefer the largest id: variables are created outside-in, so the
  // largest is the innermost loop variable — the one worth refining.
  unsigned BestId = 0;
  const AExpr *BestVar = nullptr;
  int BestCoeff = 0;
  for (const auto &[Id, CountAndVar] : Occ) {
    if (CountAndVar.first != 1)
      continue;
    int C = topLevelUnitCoeff(Idx, CountAndVar.second);
    if (C == 0)
      continue;
    if (!BestVar || Id > BestId) {
      BestId = Id;
      BestVar = &CountAndVar.second;
      BestCoeff = C;
    }
  }
  if (!BestVar)
    return *this;
  // Idx = coeff * v + rest. Lo <= Idx <= Hi - 1 solves to bounds on v;
  // the canonicalizer cancels v out of `rest` exactly because it
  // occurred once with unit coefficient.
  AExpr Rest = sub(Idx, mul(cst(BestCoeff), *BestVar));
  AExpr VLo, VHi;
  if (BestCoeff > 0) {
    VLo = sub(Lo, Rest);
    VHi = sub(sub(Hi, cst(1)), Rest);
  } else {
    VLo = sub(Rest, sub(Hi, cst(1)));
    VHi = sub(Rest, Lo);
  }
  return withBound(BestId, std::move(VLo), std::move(VHi));
}

Facts Facts::join(const Facts &Other) const {
  Facts Out;
  for (const auto &[Id, R] : Refs) {
    auto It = Other.Refs.find(Id);
    if (It == Other.Refs.end())
      continue;
    Refinement J;
    if (R.Lo && It->second.Lo)
      J.Lo = amin(R.Lo, It->second.Lo);
    if (R.Hi && It->second.Hi)
      J.Hi = amax(R.Hi, It->second.Hi);
    if (J.Lo || J.Hi)
      Out.Refs[Id] = std::move(J);
  }
  return Out;
}

const Refinement *Facts::refinement(unsigned VarId) const {
  auto It = Refs.find(VarId);
  return It == Refs.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// Symbolic bounds
//===----------------------------------------------------------------------===//

namespace {

/// Recursion state for one bound query: the fact set, the set of
/// variables currently being expanded (cycle guard — two variables may
/// be refined in terms of each other), and a depth fuse. The fallback
/// at every bail-out is the expression itself, which is always a sound
/// bound (E <= E <= E).
/// min/max constructors that collapse when the sign of the difference
/// is decided by the interval domain; the plain factories keep e.g.
/// min(d2, d2 - 1) symbolic, which blocks downstream cancellation.
AExpr tightMin(AExpr A, AExpr B) {
  Range D = sub(A, B)->getRange();
  if (D.atMost(0))
    return A;
  if (D.atLeast(0))
    return B;
  return amin(std::move(A), std::move(B));
}

AExpr tightMax(AExpr A, AExpr B) {
  Range D = sub(A, B)->getRange();
  if (D.atLeast(0))
    return A;
  if (D.atMost(0))
    return B;
  return amax(std::move(A), std::move(B));
}

struct BoundCtx {
  const Facts &F;
  std::unordered_set<unsigned> Active;
  int Depth = 0;
  /// Bounds already computed in this query, per (node, direction): the
  /// product rule asks for both bounds of a factor, which without the
  /// memo grows exponentially with the nesting depth. Any cached result
  /// is a sound bound wherever the node recurs.
  std::unordered_map<const ArithExpr *, AExpr> Memo[2];

  static constexpr int MaxDepth = 64;

  AExpr bound(const AExpr &E, bool Upper) {
    if (Depth >= MaxDepth)
      return E;
    auto &M = Memo[Upper];
    auto It = M.find(E.get());
    if (It != M.end())
      return It->second;
    ++Depth;
    AExpr R = boundImpl(E, Upper);
    --Depth;
    M.emplace(E.get(), R);
    return R;
  }

private:
  AExpr boundImpl(const AExpr &E, bool Upper) {
    switch (E->getKind()) {
    case Kind::Cst:
      return E;
    case Kind::Var: {
      unsigned Id = E->getVarId();
      const Refinement *R = F.refinement(Id);
      if (!R || Active.count(Id))
        return E;
      const AExpr &B = Upper ? R->Hi : R->Lo;
      if (!B)
        return E;
      Active.insert(Id);
      AExpr Out = bound(B, Upper);
      Active.erase(Id);
      return Out;
    }
    case Kind::Add: {
      AExpr Sum = cst(0);
      for (const AExpr &Op : E->getOperands())
        Sum = add(Sum, bound(Op, Upper));
      return Sum;
    }
    case Kind::Mul: {
      // C * f0 * f1 * ...: bound one factor and keep the rest, sound
      // when every kept factor is provably >= 0; or bound several
      // factors, sound when each of them is provably >= 0 too (the
      // product is monotone on nonnegative factors). A nonnegative
      // variable with a constant bound (a size variable under its
      // launch precondition) is kept while another factor is bounded:
      // d1 * min(d0 - 16, 16 * w) >= d1 * 0, not 16 * 0, so the bound
      // still cancels against the buffer extent d0 * d1. The bounding
      // direction accounts for the sign of the constant.
      const auto &Ops = E->getOperands();
      std::int64_t C = 1;
      std::size_t First = 0;
      if (!Ops.empty() && Ops[0]->getKind() == Kind::Cst) {
        C = Ops[0]->getCst();
        First = 1;
      }
      bool FactorUpper = (C < 0) ? !Upper : Upper;
      std::vector<AExpr> NewOps;
      NewOps.reserve(Ops.size() - First);
      std::vector<std::size_t> Changed, Keepable;
      for (std::size_t I = First; I != Ops.size(); ++I) {
        AExpr B = bound(Ops[I], FactorUpper);
        if (!exprEquals(B, Ops[I])) {
          bool Keep = Ops[I]->getKind() == Kind::Var &&
                      Ops[I]->getRange().atLeast(0) &&
                      B->getKind() == Kind::Cst;
          (Keep ? Keepable : Changed).push_back(I - First);
        }
        NewOps.push_back(std::move(B));
      }
      if (Changed.empty()) {
        if (Keepable.size() != 1)
          return E;
        Changed.swap(Keepable);
      }
      for (std::size_t I : Keepable)
        NewOps[I] = Ops[I + First];
      for (std::size_t I = 0; I != NewOps.size(); ++I) {
        const AExpr &Op = Ops[I + First];
        if (exprEquals(NewOps[I], Op)) {
          if (!Op->getRange().atLeast(0))
            return E;
        } else if (Changed.size() > 1) {
          const AExpr &Lo =
              FactorUpper ? bound(Op, /*Upper=*/false) : NewOps[I];
          if (!Lo->getRange().atLeast(0))
            return E;
        }
      }
      AExpr Out = cst(C);
      for (AExpr &Op : NewOps)
        Out = mul(Out, std::move(Op));
      return Out;
    }
    case Kind::Div: {
      // Floor division is monotone in the numerator for a positive
      // constant divisor.
      const AExpr &Num = E->getOperands()[0];
      const AExpr &Den = E->getOperands()[1];
      if (Den->getKind() != Kind::Cst || Den->getCst() < 1)
        return E;
      AExpr B = bound(Num, Upper);
      if (exprEquals(B, Num))
        return E;
      return floorDiv(B, Den);
    }
    case Kind::Mod: {
      // a mod b lies in [0, b-1] for b >= 1.
      const AExpr &Den = E->getOperands()[1];
      AExpr DenLo = bound(Den, /*Upper=*/false);
      if (!DenLo->getRange().atLeast(1))
        return E;
      if (!Upper)
        return cst(0);
      return sub(bound(Den, /*Upper=*/true), cst(1));
    }
    case Kind::Min: {
      AExpr A = bound(E->getOperands()[0], Upper);
      AExpr B = bound(E->getOperands()[1], Upper);
      return tightMin(std::move(A), std::move(B));
    }
    case Kind::Max: {
      AExpr A = bound(E->getOperands()[0], Upper);
      AExpr B = bound(E->getOperands()[1], Upper);
      return tightMax(std::move(A), std::move(B));
    }
    }
    return E;
  }
};

} // namespace

AExpr lowerBound(const AExpr &E, const Facts &F) {
  BoundCtx C{F};
  return C.bound(E, /*Upper=*/false);
}

AExpr upperBound(const AExpr &E, const Facts &F) {
  BoundCtx C{F};
  return C.bound(E, /*Upper=*/true);
}

namespace {

/// Rebuilds \p E with every occurrence of the node \p Target replaced
/// by \p Repl (node identity via structural equality; interning makes
/// equal subtrees one node, so all occurrences are caught).
AExpr replaceNode(const AExpr &E, const AExpr &Target, const AExpr &Repl,
                  std::unordered_map<const ArithExpr *, AExpr> &Memo) {
  if (exprEquals(E, Target))
    return Repl;
  if (E->getOperands().empty())
    return E;
  auto It = Memo.find(E.get());
  if (It != Memo.end())
    return It->second;
  std::vector<AExpr> Ops;
  Ops.reserve(E->getOperands().size());
  for (const AExpr &Op : E->getOperands())
    Ops.push_back(replaceNode(Op, Target, Repl, Memo));
  AExpr Out;
  switch (E->getKind()) {
  case Kind::Add: {
    Out = cst(0);
    for (AExpr &Op : Ops)
      Out = add(Out, std::move(Op));
    break;
  }
  case Kind::Mul: {
    Out = cst(1);
    for (AExpr &Op : Ops)
      Out = mul(Out, std::move(Op));
    break;
  }
  case Kind::Div:
    Out = floorDiv(Ops[0], Ops[1]);
    break;
  case Kind::Mod:
    Out = floorMod(Ops[0], Ops[1]);
    break;
  case Kind::Min:
    Out = amin(Ops[0], Ops[1]);
    break;
  case Kind::Max:
    Out = amax(Ops[0], Ops[1]);
    break;
  default:
    Out = E;
    break;
  }
  Memo.emplace(E.get(), Out);
  return Out;
}

/// First Min/Max node of \p E in pre-order, or nullptr.
AExpr findMinMax(const AExpr &E) {
  if (E->getKind() == Kind::Min || E->getKind() == Kind::Max)
    return E;
  for (const AExpr &Op : E->getOperands())
    if (AExpr M = findMinMax(Op))
      return M;
  return nullptr;
}

bool containsNode(const AExpr &E, const AExpr &T) {
  if (exprEquals(E, T))
    return true;
  for (const AExpr &Op : E->getOperands())
    if (containsNode(Op, T))
      return true;
  return false;
}

constexpr int CtxInc = 1, CtxDec = 2, CtxUnknown = 4;

/// Accumulates a bitmask of the monotonicity contexts in which the atom
/// \p M occurs within \p E: increasing, decreasing, or unknown. Add and
/// Min/Max preserve the sign; a Mul flips it with a negative leading
/// constant and is only sign-definite when the co-factors are provably
/// nonnegative; Div keeps it for positive constant divisors; Mod loses
/// it.
void collectCtx(const AExpr &E, const AExpr &M, int Sign, int &Out) {
  if (exprEquals(E, M)) {
    Out |= Sign > 0 ? CtxInc : Sign < 0 ? CtxDec : CtxUnknown;
    return;
  }
  switch (E->getKind()) {
  case Kind::Add:
  case Kind::Min:
  case Kind::Max:
    for (const AExpr &Op : E->getOperands())
      if (containsNode(Op, M))
        collectCtx(Op, M, Sign, Out);
    return;
  case Kind::Mul: {
    const auto &Ops = E->getOperands();
    int S = Sign;
    std::size_t First = 0;
    if (!Ops.empty() && Ops[0]->getKind() == Kind::Cst) {
      if (Ops[0]->getCst() < 0)
        S = -S;
      First = 1;
    }
    for (std::size_t I = First; I != Ops.size(); ++I) {
      if (!containsNode(Ops[I], M))
        continue;
      bool OthersNonNeg = true;
      for (std::size_t J = First; J != Ops.size(); ++J)
        if (J != I && !Ops[J]->getRange().atLeast(0))
          OthersNonNeg = false;
      collectCtx(Ops[I], M, OthersNonNeg ? S : 0, Out);
    }
    return;
  }
  case Kind::Div: {
    const AExpr &Num = E->getOperands()[0];
    const AExpr &Den = E->getOperands()[1];
    bool DenOk = Den->getKind() == Kind::Cst && Den->getCst() >= 1;
    if (containsNode(Num, M))
      collectCtx(Num, M, DenOk ? Sign : 0, Out);
    if (containsNode(Den, M))
      collectCtx(Den, M, 0, Out);
    return;
  }
  default:
    for (const AExpr &Op : E->getOperands())
      if (containsNode(Op, M))
        collectCtx(Op, M, 0, Out);
    return;
  }
}

bool proveNonNeg(const AExpr &E, int Budget);

/// Factoring rule for flat sums the interval domain cannot correlate,
/// e.g. d0*d1 - d1 (>= 0 because it is d1 * (d0 - 1)): pick a
/// provably-nonnegative variable V, split the sum as V * Q + R, and
/// prove Q >= 0 and R >= 0 separately.
bool proveNonNegByFactoring(const AExpr &E, int Budget) {
  if (E->getKind() != Kind::Add)
    return false;
  // Candidate factors: variables occurring as a direct multiplicand of
  // some summand, nonnegative by declared range, in id order for
  // determinism.
  std::vector<AExpr> Cands;
  auto Consider = [&](const AExpr &V) {
    if (V->getKind() != Kind::Var || !V->getRange().atLeast(0))
      return;
    for (const AExpr &C : Cands)
      if (exprEquals(C, V))
        return;
    Cands.push_back(V);
  };
  for (const AExpr &T : E->getOperands()) {
    if (T->getKind() == Kind::Var)
      Consider(T);
    else if (T->getKind() == Kind::Mul)
      for (const AExpr &F : T->getOperands())
        Consider(F);
  }
  for (const AExpr &V : Cands) {
    AExpr Q = cst(0), R = cst(0);
    for (const AExpr &T : E->getOperands()) {
      if (exprEquals(T, V)) {
        Q = add(Q, cst(1));
        continue;
      }
      AExpr Quot;
      if (T->getKind() == Kind::Mul) {
        // Remove one occurrence of V from the product.
        std::size_t Hit = T->getOperands().size();
        for (std::size_t I = 0; I != T->getOperands().size(); ++I)
          if (exprEquals(T->getOperands()[I], V)) {
            Hit = I;
            break;
          }
        if (Hit != T->getOperands().size()) {
          Quot = cst(1);
          for (std::size_t I = 0; I != T->getOperands().size(); ++I)
            if (I != Hit)
              Quot = mul(Quot, T->getOperands()[I]);
        }
      }
      if (Quot)
        Q = add(Q, Quot);
      else
        R = add(R, T);
    }
    if (Q->isCst(0))
      continue;
    if (proveNonNeg(Q, Budget - 1) && proveNonNeg(R, Budget - 1))
      return true;
  }
  return false;
}

/// Floor rule for tile counts: d * floor(X / d) lies in [X - d + 1, X]
/// for a constant d >= 1, so a summand c * floor(X / d) with d | c is
/// at least (c/d) * (X - d + 1) when c > 0 and (c/d) * X when c < 0.
/// Replacing every such summand by that lower bound turns e.g.
/// n - 1 - 16 * floor((n - 1) / 16) into 0, which the interval domain
/// cannot see through the opaque floor. Proves E >= 0 when the
/// rewritten sum does.
bool proveNonNegByFloorDiv(const AExpr &E, int Budget) {
  // Summand T = c * floor(X / d) with d | c: returns c / d and the
  // floor node.
  auto Match = [](const AExpr &T, std::int64_t &M) -> const ArithExpr * {
    std::int64_t C = 1;
    const ArithExpr *Div = T.get();
    if (T->getKind() == Kind::Mul && T->getOperands().size() == 2 &&
        T->getOperands()[0]->getKind() == Kind::Cst) {
      C = T->getOperands()[0]->getCst();
      Div = T->getOperands()[1].get();
    }
    if (Div->getKind() != Kind::Div ||
        Div->getOperands()[1]->getKind() != Kind::Cst)
      return nullptr;
    std::int64_t D = Div->getOperands()[1]->getCst();
    if (D < 1 || C % D != 0)
      return nullptr;
    M = C / D;
    return Div;
  };
  std::vector<AExpr> Terms;
  if (E->getKind() == Kind::Add)
    Terms = E->getOperands();
  else
    Terms.push_back(E);
  std::int64_t M;
  if (std::none_of(Terms.begin(), Terms.end(),
                   [&](const AExpr &T) { return Match(T, M) != nullptr; }))
    return false;
  AExpr Low = cst(0);
  for (const AExpr &T : Terms) {
    const ArithExpr *Div = Match(T, M);
    if (!Div) {
      Low = add(Low, T);
      continue;
    }
    const AExpr &X = Div->getOperands()[0];
    std::int64_t D = Div->getOperands()[1]->getCst();
    Low = add(Low, mul(cst(M), M > 0 ? sub(X, cst(D - 1)) : X));
  }
  return proveNonNeg(Low, Budget - 1);
}

/// Proves E >= 0 for all assignments (of an already var-bounded
/// expression) by interval analysis, factoring, the floor rule, plus
/// case-splitting on Min/Max atoms: pointwise, min(a,b) and max(a,b)
/// each equal one of their operands, so E >= 0 follows when both
/// substitutions prove.
bool proveNonNeg(const AExpr &E, int Budget) {
  if (E->getRange().atLeast(0))
    return true;
  if (Budget <= 0)
    return false;
  if (proveNonNegByFactoring(E, Budget) || proveNonNegByFloorDiv(E, Budget))
    return true;
  AExpr M = findMinMax(E);
  if (!M)
    return false;
  const AExpr &A = M->getOperands()[0];
  const AExpr &B = M->getOperands()[1];
  // One-branch rule: when E is monotone decreasing in a Min atom (or
  // increasing in a Max atom), substituting EITHER operand only moves E
  // down — min(a,b) <= a and <= b pointwise — so a single provable
  // branch suffices, and the branch constraint (a <= b) is never
  // needed.
  int Ctx = 0;
  collectCtx(E, M, +1, Ctx);
  if ((M->getKind() == Kind::Min && Ctx == CtxDec) ||
      (M->getKind() == Kind::Max && Ctx == CtxInc)) {
    for (const AExpr &Op : M->getOperands()) {
      std::unordered_map<const ArithExpr *, AExpr> Memo;
      if (proveNonNeg(replaceNode(E, M, Op, Memo), Budget - 1))
        return true;
    }
  }
  for (const AExpr &Op : M->getOperands()) {
    // Skip branches that can never be the extremum: min(a,b) = a
    // requires a <= b somewhere, so if a - b >= 1 everywhere the
    // a-branch is vacuous (dually for max).
    const AExpr &Other = (Op.get() == A.get()) ? B : A;
    Range DR = sub(Op, Other)->getRange();
    if (M->getKind() == Kind::Min ? DR.atLeast(1) : DR.atMost(-1))
      continue;
    std::unordered_map<const ArithExpr *, AExpr> Memo;
    if (!proveNonNeg(replaceNode(E, M, Op, Memo), Budget - 1))
      return false;
  }
  return true;
}

/// The constant coefficient of \p V in the canonical sum \p E when V
/// occurs exactly once, as a top-level summand V or c * V; 0 otherwise.
std::int64_t linearCoeff(const AExpr &E, const AExpr &V) {
  std::unordered_map<unsigned, std::pair<unsigned, AExpr>> Occ;
  countVars(E, Occ);
  if (Occ[V->getVarId()].first != 1)
    return 0;
  auto TermCoeff = [&](const AExpr &T) -> std::int64_t {
    if (exprEquals(T, V))
      return 1;
    if (T->getKind() == Kind::Mul && T->getOperands().size() == 2 &&
        T->getOperands()[0]->getKind() == Kind::Cst &&
        exprEquals(T->getOperands()[1], V))
      return T->getOperands()[0]->getCst();
    return 0;
  };
  if (E->getKind() != Kind::Add)
    return TermCoeff(E);
  for (const AExpr &T : E->getOperands())
    if (std::int64_t C = TermCoeff(T))
      return C;
  return 0;
}

/// Operands of the nested \p K (Max or Min) tree rooted at \p E; E
/// itself when it is no such node.
void flattenMinMax(const AExpr &E, Kind K, std::vector<AExpr> &Out) {
  if (E->getKind() != K) {
    Out.push_back(E);
    return;
  }
  for (const AExpr &Op : E->getOperands())
    flattenMinMax(Op, K, Out);
}

/// Proves E >= 0 by eliminating refined variables one at a time,
/// innermost (largest id) first, each substituted by its refinement
/// *unexpanded*: c * v >= c * lo for c > 0 (c * hi for c < 0), and
/// any operand of a max lower bound (min upper bound) is itself a
/// bound. Keeping the bound symbolic lets it cancel against the rest of
/// the sum: under 1 - 16 * w <= i <= 512 - 16 * w the sum 512 * i +
/// 8192 * w - 512 is provably >= 0, which lowerBound, expanding w to
/// its own numeric range inside i's bound, cannot see. Only variables
/// occurring once, linearly at the top level, are eliminated.
bool proveNonNegByElimination(const AExpr &E, const Facts &F, int Budget) {
  if (proveNonNeg(E, 4))
    return true;
  if (Budget <= 0)
    return false;
  std::vector<unsigned> Vars;
  collectVars(E, Vars);
  std::sort(Vars.begin(), Vars.end(), std::greater<unsigned>());
  for (unsigned Id : Vars) {
    const Refinement *R = F.refinement(Id);
    if (!R)
      continue;
    std::unordered_map<unsigned, std::pair<unsigned, AExpr>> Occ;
    countVars(E, Occ);
    const AExpr V = Occ[Id].second;
    std::int64_t C = linearCoeff(E, V);
    if (C == 0)
      continue;
    const AExpr &B = C > 0 ? R->Lo : R->Hi;
    if (!B)
      return false;
    std::vector<AExpr> Choices;
    flattenMinMax(B, C > 0 ? Kind::Max : Kind::Min, Choices);
    AExpr Rest = sub(E, mul(cst(C), V));
    for (const AExpr &Ch : Choices)
      if (proveNonNegByElimination(add(Rest, mul(cst(C), Ch)), F,
                                   Budget - 1))
        return true;
    return false;
  }
  return proveNonNeg(lowerBound(E, F), 6);
}

} // namespace

bool provablyLE(const AExpr &A, const AExpr &B, const Facts &F) {
  // The declared variable ranges may already settle it.
  AExpr D = sub(B, A);
  if (D->getRange().atLeast(0))
    return true;
  // Bound the *difference*: canonicalization has already cancelled the
  // terms shared by A and B, so the refinements only need to cover what
  // genuinely differs. Residual Min/Max atoms (clamped extents, edge
  // bounds) are discharged by case-splitting.
  if (proveNonNeg(lowerBound(D, F), 6))
    return true;
  // Last resort: bound each side separately.
  AExpr Gap = sub(lowerBound(B, F), upperBound(A, F));
  return proveNonNeg(Gap, 6);
}

namespace {

/// \p E with every variable \p F bounds by constants replaced by a
/// fresh variable whose declared range meets those bounds, so the
/// interval domain (and proveNonNeg's case splits) see them: under
/// d0, d1 >= 16 the branch d0 * d1 - 2 of a split clamp is >= 254.
AExpr withFactRanges(const AExpr &E, const Facts &F) {
  std::unordered_map<unsigned, std::pair<unsigned, AExpr>> Occ;
  countVars(E, Occ);
  std::unordered_map<unsigned, AExpr> Subst;
  for (const auto &[Id, CountAndVar] : Occ) {
    const Refinement *R = F.refinement(Id);
    if (!R)
      continue;
    Range Rg = CountAndVar.second->getVarRange();
    bool Tighter = false;
    if (R->Lo && R->Lo->getKind() == Kind::Cst &&
        (!Rg.Min || *Rg.Min < R->Lo->getCst())) {
      Rg.Min = R->Lo->getCst();
      Tighter = true;
    }
    if (R->Hi && R->Hi->getKind() == Kind::Cst &&
        (!Rg.Max || *Rg.Max > R->Hi->getCst())) {
      Rg.Max = R->Hi->getCst();
      Tighter = true;
    }
    if (Tighter)
      Subst.emplace(Id, var(CountAndVar.second->getVarName(), Rg));
  }
  return Subst.empty() ? E : substitute(E, Subst);
}

} // namespace

bool provablyLEThorough(const AExpr &A, const AExpr &B, const Facts &F) {
  if (provablyLE(A, B, F) || proveNonNegByElimination(sub(B, A), F, 6))
    return true;
  // Bounding keeps size variables symbolic so they cancel against
  // buffer extents; a case split the cancellation leaves may need
  // their launch preconditions instead.
  return proveNonNeg(withFactRanges(lowerBound(sub(B, A), F), F), 6);
}

bool provablyInBounds(const AExpr &I, const AExpr &Lo, const AExpr &HiExcl,
                      const Facts &F) {
  return provablyLE(Lo, I, F) && provablyLE(I, sub(HiExcl, cst(1)), F);
}

//===----------------------------------------------------------------------===//
// Fact-driven simplification
//===----------------------------------------------------------------------===//

namespace {

/// floor(A / B) when it is one constant under \p F: B is a positive
/// constant and the numeric bounds of A fall in one multiple of B. This
/// is what recovers tile coordinates from a flat index, e.g.
/// floor((19 + i) / 18) == 1 for i in [0, 15].
std::optional<std::int64_t> constQuotient(const AExpr &A, const AExpr &B,
                                          const Facts &F) {
  if (B->getKind() != Kind::Cst || B->getCst() < 1)
    return std::nullopt;
  Range Lo = lowerBound(A, F)->getRange();
  Range Hi = upperBound(A, F)->getRange();
  if (!Lo.Min || !Hi.Max)
    return std::nullopt;
  std::int64_t D = B->getCst();
  auto FloorDiv = [D](std::int64_t X) {
    return X >= 0 ? X / D : -((-X + D - 1) / D);
  };
  std::int64_t Q = FloorDiv(*Lo.Min);
  if (FloorDiv(*Hi.Max) != Q)
    return std::nullopt;
  return Q;
}

AExpr simplifyRec(const AExpr &E, const Facts &F,
                  std::unordered_map<const ArithExpr *, AExpr> &Memo) {
  auto It = Memo.find(E.get());
  if (It != Memo.end())
    return It->second;

  AExpr Out;
  switch (E->getKind()) {
  case Kind::Cst:
  case Kind::Var:
    Out = E;
    break;
  case Kind::Add: {
    Out = cst(0);
    for (const AExpr &Op : E->getOperands())
      Out = add(Out, simplifyRec(Op, F, Memo));
    break;
  }
  case Kind::Mul: {
    Out = cst(1);
    for (const AExpr &Op : E->getOperands())
      Out = mul(Out, simplifyRec(Op, F, Memo));
    break;
  }
  case Kind::Div: {
    AExpr A = simplifyRec(E->getOperands()[0], F, Memo);
    AExpr B = simplifyRec(E->getOperands()[1], F, Memo);
    if (std::optional<std::int64_t> Q = constQuotient(A, B, F))
      Out = cst(*Q);
    else
      Out = floorDiv(std::move(A), std::move(B));
    break;
  }
  case Kind::Mod: {
    AExpr A = simplifyRec(E->getOperands()[0], F, Memo);
    AExpr B = simplifyRec(E->getOperands()[1], F, Memo);
    // a mod b == a whenever 0 <= a < b, and a - q * b whenever the
    // quotient is the constant q.
    if (provablyInBounds(A, cst(0), B, F))
      Out = A;
    else if (std::optional<std::int64_t> Q = constQuotient(A, B, F))
      Out = sub(A, mul(cst(*Q), B));
    else
      Out = floorMod(std::move(A), std::move(B));
    break;
  }
  case Kind::Min: {
    AExpr A = simplifyRec(E->getOperands()[0], F, Memo);
    AExpr B = simplifyRec(E->getOperands()[1], F, Memo);
    if (provablyLE(A, B, F))
      Out = A;
    else if (provablyLE(B, A, F))
      Out = B;
    else
      Out = amin(std::move(A), std::move(B));
    break;
  }
  case Kind::Max: {
    AExpr A = simplifyRec(E->getOperands()[0], F, Memo);
    AExpr B = simplifyRec(E->getOperands()[1], F, Memo);
    if (provablyLE(B, A, F))
      Out = A;
    else if (provablyLE(A, B, F))
      Out = B;
    else
      Out = amax(std::move(A), std::move(B));
    break;
  }
  }
  Memo.emplace(E.get(), Out);
  return Out;
}

} // namespace

AExpr simplifyWithFacts(const AExpr &E, const Facts &F) {
  std::unordered_map<const ArithExpr *, AExpr> Memo;
  return simplifyRec(E, F, Memo);
}

//===----------------------------------------------------------------------===//
// Non-fatal evaluation
//===----------------------------------------------------------------------===//

std::optional<std::int64_t>
tryEvaluate(const AExpr &E,
            const std::unordered_map<unsigned, std::int64_t> &Env) {
  auto Floor = [](std::int64_t A, std::int64_t B,
                  bool Mod) -> std::optional<std::int64_t> {
    if (B == 0)
      return std::nullopt;
    std::int64_t Q = A / B;
    std::int64_t R = A % B;
    if (R != 0 && ((R < 0) != (B < 0))) {
      --Q;
      R += B;
    }
    return Mod ? R : Q;
  };
  switch (E->getKind()) {
  case Kind::Cst:
    return E->getCst();
  case Kind::Var: {
    auto It = Env.find(E->getVarId());
    if (It == Env.end())
      return std::nullopt;
    return It->second;
  }
  case Kind::Add: {
    std::int64_t S = 0;
    for (const AExpr &Op : E->getOperands()) {
      auto V = tryEvaluate(Op, Env);
      if (!V)
        return std::nullopt;
      S += *V;
    }
    return S;
  }
  case Kind::Mul: {
    std::int64_t P = 1;
    for (const AExpr &Op : E->getOperands()) {
      auto V = tryEvaluate(Op, Env);
      if (!V)
        return std::nullopt;
      P *= *V;
    }
    return P;
  }
  case Kind::Div:
  case Kind::Mod: {
    auto A = tryEvaluate(E->getOperands()[0], Env);
    auto B = tryEvaluate(E->getOperands()[1], Env);
    if (!A || !B)
      return std::nullopt;
    return Floor(*A, *B, E->getKind() == Kind::Mod);
  }
  case Kind::Min:
  case Kind::Max: {
    auto A = tryEvaluate(E->getOperands()[0], Env);
    auto B = tryEvaluate(E->getOperands()[1], Env);
    if (!A || !B)
      return std::nullopt;
    return E->getKind() == Kind::Min ? std::min(*A, *B) : std::max(*A, *B);
  }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Split-divisibility refutation
//===----------------------------------------------------------------------===//

namespace {

void refuteWalk(const ir::ExprPtr &E,
                const std::unordered_map<unsigned, std::int64_t> &Sizes,
                std::optional<std::string> &Out) {
  if (!E || Out)
    return;
  if (const auto *L = ir::dynCast<ir::LambdaExpr>(E)) {
    refuteWalk(L->getBody(), Sizes, Out);
    return;
  }
  const auto *C = ir::dynCast<ir::CallExpr>(E);
  if (!C)
    return;
  if (C->getPrim() == ir::Prim::Split && !C->getArgs().empty()) {
    // The divisibility side condition lives on the *input* length: the
    // result type [[T]m]{n/m} only exists when m | n.
    const ir::TypePtr &InTy = C->getArgs().back()->getType();
    if (InTy && InTy->getKind() == ir::Type::Kind::Array && C->Factor) {
      auto L = tryEvaluate(InTy->getSize(), Sizes);
      auto M = tryEvaluate(C->Factor, Sizes);
      if (L && M && (*M <= 0 || *L % *M != 0)) {
        char Buf[256];
        std::snprintf(Buf, sizeof(Buf),
                      "split(%lld) does not divide input length %s = %lld "
                      "(remainder %lld)",
                      (long long)*M, InTy->getSize()->toString().c_str(),
                      (long long)*L,
                      (long long)(*M > 0 ? *L % *M : *L));
        Out = Buf;
        return;
      }
    }
  }
  for (const ir::ExprPtr &A : C->getArgs())
    refuteWalk(A, Sizes, Out);
}

} // namespace

std::optional<std::string> refuteSplitDivisibility(
    const ir::Program &P,
    const std::unordered_map<unsigned, std::int64_t> &Sizes) {
  std::optional<std::string> Out;
  if (P)
    refuteWalk(P->getBody(), Sizes, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Static kernel bounds checking
//===----------------------------------------------------------------------===//

namespace {

struct BoundsChecker {
  const ocl::Kernel &K;
  const std::unordered_map<unsigned, AExpr> *Subst; // SizeEnv, as exprs
  std::vector<BoundsViolation> Violations;

  AExpr inst(const AExpr &E) const {
    if (!E)
      return E;
    return Subst ? substitute(E, *Subst) : E;
  }

  void checkAccess(bool IsStore, int BufferId, const AExpr &Index,
                   const Facts &F) {
    const ocl::BufferDecl &B = K.buffer(BufferId);
    AExpr Idx = simplifyWithFacts(inst(Index), F);
    AExpr N = inst(B.NumElems);
    // Guard facts refine several variables in terms of each other (a
    // constant-pad load under its per-axis Selects); the elimination
    // prover keeps those refinements symbolic.
    auto LE = [&](const AExpr &A, const AExpr &Bd) {
      return provablyLEThorough(A, Bd, F);
    };
    if (LE(cst(0), Idx) && LE(Idx, sub(N, cst(1))))
      return;
    Violations.push_back(
        {IsStore, B.Name, Idx->toString(), N->toString()});
  }

  /// \p F extended with the facts of a Select's guard \p Checks, each
  /// simplified under \p F first, exactly as the accesses they guard
  /// are, so that both sides cancel the same terms.
  Facts withGuard(const std::vector<ocl::BoundsCheck> &Checks,
                  const Facts &F) const {
    Facts Out = F;
    for (const ocl::BoundsCheck &C : Checks)
      Out = Out.withCheckFact(simplifyWithFacts(inst(C.Idx), F),
                              simplifyWithFacts(inst(C.Lo), F),
                              simplifyWithFacts(inst(C.Hi), F));
    return Out;
  }

  void checkExpr(const ocl::KExprPtr &E, const Facts &F) {
    if (!E)
      return;
    switch (E->K) {
    case ocl::KExpr::Kind::ConstScalar:
    case ocl::KExpr::Kind::IndexVal:
    case ocl::KExpr::Kind::ReadVar:
      return;
    case ocl::KExpr::Kind::Load:
      checkAccess(/*IsStore=*/false, E->BufferId, E->Index, F);
      return;
    case ocl::KExpr::Kind::CallUF:
      for (const ocl::KExprPtr &A : E->Args)
        checkExpr(A, F);
      return;
    case ocl::KExpr::Kind::Select: {
      // The Then branch only executes when every check holds — learn
      // each Lo <= Idx < Hi as a refinement for its analysis.
      checkExpr(E->Then, withGuard(E->Checks, F));
      checkExpr(E->Else, F);
      return;
    }
    }
  }

  void checkStmt(const ocl::StmtPtr &S, const Facts &F) {
    switch (S->K) {
    case ocl::Stmt::Kind::Store:
      checkAccess(/*IsStore=*/true, S->BufferId, S->Index, F);
      checkExpr(S->Value, F);
      return;
    case ocl::Stmt::Kind::AssignVar:
      checkExpr(S->Value, F);
      return;
    case ocl::Stmt::Kind::Barrier:
      return;
    case ocl::Stmt::Kind::Loop: {
      Facts LoopF = F.withLoopVar(S->LoopVar, inst(S->Count));
      for (const ocl::StmtPtr &B : S->Body)
        checkStmt(B, LoopF);
      return;
    }
    }
  }
};

} // namespace

Facts launchFacts(const ocl::Kernel &K) {
  Facts F;
  for (const ocl::MinExtent &M : K.MinExtents) {
    std::vector<unsigned> Vars;
    collectVars(M.Extent, Vars);
    if (Vars.size() != 1)
      continue;
    std::unordered_map<unsigned, std::pair<unsigned, AExpr>> Occ;
    countVars(M.Extent, Occ);
    AExpr Rest = sub(M.Extent, Occ[Vars[0]].second);
    if (Rest->getKind() == Kind::Cst)
      F = F.withBound(Vars[0], cst(M.Min - Rest->getCst()), nullptr);
  }
  return F;
}

std::vector<BoundsViolation> checkKernelBounds(
    const ocl::Kernel &K,
    const std::unordered_map<unsigned, std::int64_t> *Sizes) {
  std::unordered_map<unsigned, AExpr> Subst;
  if (Sizes)
    for (const auto &[Id, V] : *Sizes)
      Subst.emplace(Id, cst(V));
  BoundsChecker C{K, Sizes ? &Subst : nullptr, {}};
  Facts F = launchFacts(K);
  for (const ocl::StmtPtr &S : K.Body)
    C.checkStmt(S, F);
  return C.Violations;
}

std::string describeViolations(const std::vector<BoundsViolation> &V) {
  std::string Out;
  for (const BoundsViolation &B : V) {
    Out += B.IsStore ? "store" : "load";
    Out += " of buffer '" + B.BufferName + "': index " + B.Index +
           " not provably within [0, " + B.Extent + ")\n";
  }
  return Out;
}

} // namespace analysis
} // namespace lift
