//===- ArithExpr.cpp - Symbolic integer arithmetic ------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "arith/ArithExpr.h"

#include "arith/ArithCtx.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <mutex>

using namespace lift;

using Kind = ArithExpr::Kind;

//===----------------------------------------------------------------------===//
// Node construction
//===----------------------------------------------------------------------===//

namespace lift {

/// Interns a canonical node in the global arena. All public factories
/// funnel through here after simplification, so structurally equal
/// expressions share one node (and one cached hash / range).
AExpr makeNode(Kind K, std::int64_t CstVal, std::string VarName,
               unsigned VarId, Range VarRange, std::vector<AExpr> Operands) {
  return ArithCtx::global().intern(K, CstVal, std::move(VarName), VarId,
                                   VarRange, std::move(Operands));
}

} // namespace lift

static AExpr makeOp(Kind K, std::vector<AExpr> Operands) {
  return makeNode(K, 0, std::string(), 0, Range(), std::move(Operands));
}

std::int64_t ArithExpr::getCst() const {
  assert(K == Kind::Cst && "getCst on non-constant");
  return CstVal;
}

const std::string &ArithExpr::getVarName() const {
  assert(K == Kind::Var && "getVarName on non-variable");
  return VarName;
}

unsigned ArithExpr::getVarId() const {
  assert(K == Kind::Var && "getVarId on non-variable");
  return VarId;
}

const Range &ArithExpr::getVarRange() const {
  assert(K == Kind::Var && "getVarRange on non-variable");
  return VarRange;
}

AExpr lift::cst(std::int64_t V) {
  return makeNode(Kind::Cst, V, std::string(), 0, Range(), {});
}

AExpr lift::var(std::string Name, Range R) {
  static std::atomic<unsigned> NextId{1};
  return makeNode(Kind::Var, 0, std::move(Name), NextId++, R, {});
}

//===----------------------------------------------------------------------===//
// Structural comparison and hashing
//===----------------------------------------------------------------------===//

static int kindRank(Kind K) { return static_cast<int>(K); }

int lift::compareExprs(const AExpr &A, const AExpr &B) {
  if (A.get() == B.get())
    return 0;
  if (kindRank(A->getKind()) != kindRank(B->getKind()))
    return kindRank(A->getKind()) < kindRank(B->getKind()) ? -1 : 1;
  switch (A->getKind()) {
  case Kind::Cst: {
    std::int64_t VA = A->getCst(), VB = B->getCst();
    return VA < VB ? -1 : (VA > VB ? 1 : 0);
  }
  case Kind::Var: {
    unsigned IA = A->getVarId(), IB = B->getVarId();
    return IA < IB ? -1 : (IA > IB ? 1 : 0);
  }
  default: {
    const auto &OA = A->getOperands();
    const auto &OB = B->getOperands();
    if (OA.size() != OB.size())
      return OA.size() < OB.size() ? -1 : 1;
    for (std::size_t I = 0, E = OA.size(); I != E; ++I)
      if (int C = compareExprs(OA[I], OB[I]))
        return C;
    return 0;
  }
  }
}

bool lift::exprEquals(const AExpr &A, const AExpr &B) {
  // Interned nodes: structural equality == pointer equality, and a hash
  // mismatch settles inequality without walking. The structural walk
  // only runs for equal hashes on distinct nodes (hash collisions, or
  // nodes from different arena generations after ArithCtx::clear()).
  if (A.get() == B.get())
    return true;
  if (A->hash() != B->hash())
    return false;
  return compareExprs(A, B) == 0;
}

//===----------------------------------------------------------------------===//
// Range analysis
//===----------------------------------------------------------------------===//

// An interval endpoint whose computation overflows int64_t is dropped
// (that side becomes unknown): a wrapped bound would be unsound.

static Range addRanges(const Range &A, const Range &B) {
  Range R;
  std::int64_t V;
  if (A.Min && B.Min && !__builtin_add_overflow(*A.Min, *B.Min, &V))
    R.Min = V;
  if (A.Max && B.Max && !__builtin_add_overflow(*A.Max, *B.Max, &V))
    R.Max = V;
  return R;
}

static Range mulRanges(const Range &A, const Range &B) {
  Range R;
  std::int64_t V;
  if (A.isBounded() && B.isBounded()) {
    // An overflowing corner product lies below INT64_MIN (mixed signs)
    // or above INT64_MAX; the other corners still bound the other side.
    bool MinLost = false, MaxLost = false;
    for (std::int64_t X : {*A.Min, *A.Max})
      for (std::int64_t Y : {*B.Min, *B.Max})
        if (__builtin_mul_overflow(X, Y, &V))
          ((X < 0) != (Y < 0) ? MinLost : MaxLost) = true;
        else
          R = Range(std::min(R.Min.value_or(V), V),
                    std::max(R.Max.value_or(V), V));
    if (MinLost)
      R.Min.reset();
    if (MaxLost)
      R.Max.reset();
    return R;
  }
  // Both factors known non-negative: the product is non-negative and at
  // least the product of the known lower bounds (0 when that overflows).
  if (A.atLeast(0) && B.atLeast(0))
    R.Min = __builtin_mul_overflow(*A.Min, *B.Min, &V) ? 0 : V;
  return R;
}

Range ArithExpr::getRange() const {
  if (RangeCached.load(std::memory_order_acquire))
    return CachedRange;
  // Compute before taking the stripe lock: computeRange() recurses into
  // operand getRange() calls, which may hash to the same stripe.
  // Concurrent threads may compute the same interval redundantly; the
  // first one to take the lock publishes it.
  Range R = computeRange();
  static std::mutex RangeMemoM[16];
  std::mutex &M =
      RangeMemoM[(reinterpret_cast<std::uintptr_t>(this) / 64) % 16];
  std::lock_guard<std::mutex> Lock(M);
  if (!RangeCached.load(std::memory_order_relaxed)) {
    CachedRange = R;
    RangeCached.store(true, std::memory_order_release);
  }
  return R;
}

Range ArithExpr::computeRange() const {
  switch (K) {
  case Kind::Cst:
    return Range(CstVal, CstVal);
  case Kind::Var:
    return VarRange;
  case Kind::Add: {
    Range R(0, 0);
    for (const AExpr &Op : Operands)
      R = addRanges(R, Op->getRange());
    return R;
  }
  case Kind::Mul: {
    Range R(1, 1);
    for (const AExpr &Op : Operands)
      R = mulRanges(R, Op->getRange());
    return R;
  }
  case Kind::Div: {
    Range RA = Operands[0]->getRange();
    Range RB = Operands[1]->getRange();
    Range R;
    if (!RB.atLeast(1))
      return R;
    if (RA.isBounded() && RB.isBounded()) {
      std::int64_t C[4] = {
          floorDivInt(*RA.Min, *RB.Min), floorDivInt(*RA.Min, *RB.Max),
          floorDivInt(*RA.Max, *RB.Min), floorDivInt(*RA.Max, *RB.Max)};
      return Range(*std::min_element(C, C + 4), *std::max_element(C, C + 4));
    }
    if (RA.atLeast(0)) {
      R.Min = 0;
      if (RA.Max)
        R.Max = floorDivInt(*RA.Max, *RB.Min);
    }
    return R;
  }
  case Kind::Mod: {
    Range RB = Operands[1]->getRange();
    Range R;
    // Floor-modulo by a positive divisor always lands in [0, B).
    if (RB.atLeast(1)) {
      R.Min = 0;
      if (RB.Max)
        R.Max = *RB.Max - 1;
      // A tighter bound when the dividend is already within range.
      Range RA = Operands[0]->getRange();
      if (RA.atLeast(0) && RA.Max && R.Max)
        R.Max = std::min(*R.Max, *RA.Max);
    }
    return R;
  }
  case Kind::Min: {
    Range RA = Operands[0]->getRange();
    Range RB = Operands[1]->getRange();
    Range R;
    if (RA.Min && RB.Min)
      R.Min = std::min(*RA.Min, *RB.Min);
    if (RA.Max && RB.Max)
      R.Max = std::min(*RA.Max, *RB.Max);
    else if (RA.Max)
      R.Max = RA.Max;
    else if (RB.Max)
      R.Max = RB.Max;
    return R;
  }
  case Kind::Max: {
    Range RA = Operands[0]->getRange();
    Range RB = Operands[1]->getRange();
    Range R;
    if (RA.Max && RB.Max)
      R.Max = std::max(*RA.Max, *RB.Max);
    if (RA.Min && RB.Min)
      R.Min = std::max(*RA.Min, *RB.Min);
    else if (RA.Min)
      R.Min = RA.Min;
    else if (RB.Min)
      R.Min = RB.Min;
    return R;
  }
  }
  unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Canonical sum-of-products construction
//===----------------------------------------------------------------------===//

namespace {

/// A product of a constant coefficient and sorted symbolic factors.
/// The canonical unit for building Add nodes with like-term merging.
struct Term {
  std::int64_t Coeff = 1;
  std::vector<AExpr> Factors; // sorted, no Cst/Add/Mul inside
};

} // namespace

static bool sameFactors(const Term &A, const Term &B) {
  if (A.Factors.size() != B.Factors.size())
    return false;
  for (std::size_t I = 0, E = A.Factors.size(); I != E; ++I)
    if (!exprEquals(A.Factors[I], B.Factors[I]))
      return false;
  return true;
}

static int compareFactorLists(const Term &A, const Term &B) {
  if (A.Factors.size() != B.Factors.size())
    return A.Factors.size() < B.Factors.size() ? -1 : 1;
  for (std::size_t I = 0, E = A.Factors.size(); I != E; ++I)
    if (int C = compareExprs(A.Factors[I], B.Factors[I]))
      return C;
  return 0;
}

/// Decomposes a canonical non-Add expression into a Term.
static Term exprToTerm(const AExpr &E) {
  Term T;
  switch (E->getKind()) {
  case Kind::Cst:
    T.Coeff = E->getCst();
    return T;
  case Kind::Mul: {
    for (const AExpr &Op : E->getOperands()) {
      if (Op->getKind() == Kind::Cst)
        T.Coeff *= Op->getCst();
      else
        T.Factors.push_back(Op);
    }
    return T;
  }
  default:
    T.Factors.push_back(E);
    return T;
  }
}

/// Rebuilds an expression from a term. Factors must already be sorted.
static AExpr termToExpr(const Term &T) {
  if (T.Coeff == 0 || T.Factors.empty())
    return cst(T.Coeff);
  if (T.Coeff == 1 && T.Factors.size() == 1)
    return T.Factors.front();
  std::vector<AExpr> Ops;
  if (T.Coeff != 1)
    Ops.push_back(cst(T.Coeff));
  Ops.insert(Ops.end(), T.Factors.begin(), T.Factors.end());
  if (Ops.size() == 1)
    return Ops.front();
  return makeOp(Kind::Mul, std::move(Ops));
}

/// Builds a canonical Add from merged, sorted terms.
static AExpr termsToSum(std::vector<Term> Terms) {
  // Drop zero terms.
  Terms.erase(std::remove_if(Terms.begin(), Terms.end(),
                             [](const Term &T) { return T.Coeff == 0; }),
              Terms.end());
  if (Terms.empty())
    return cst(0);
  std::sort(Terms.begin(), Terms.end(), [](const Term &A, const Term &B) {
    return compareFactorLists(A, B) < 0;
  });
  if (Terms.size() == 1)
    return termToExpr(Terms.front());
  std::vector<AExpr> Ops;
  Ops.reserve(Terms.size());
  for (const Term &T : Terms)
    Ops.push_back(termToExpr(T));
  return makeOp(Kind::Add, std::move(Ops));
}

/// Decomposes an arbitrary canonical expression into a term list.
static std::vector<Term> exprToTerms(const AExpr &E) {
  std::vector<Term> Terms;
  if (E->getKind() == Kind::Add) {
    for (const AExpr &Op : E->getOperands())
      Terms.push_back(exprToTerm(Op));
  } else {
    Terms.push_back(exprToTerm(E));
  }
  return Terms;
}

/// Merges like terms in place.
static void mergeTerms(std::vector<Term> &Terms) {
  std::vector<Term> Merged;
  for (Term &T : Terms) {
    bool Found = false;
    for (Term &M : Merged) {
      if (sameFactors(M, T)) {
        M.Coeff += T.Coeff;
        Found = true;
        break;
      }
    }
    if (!Found)
      Merged.push_back(std::move(T));
  }
  Terms = std::move(Merged);
}

static bool removeFactor(Term &T, const AExpr &Factor);

/// Rewrites k*R*c*(x/c) + k*R*(x%c) to k*R*x (valid for c > 0 by the
/// floor-division identity c*floor(x/c) + x mod c == x). This is the
/// simplification that collapses round-tripped split/join index
/// arithmetic like (i/4)*4 + i%4 back to i.
static bool recombineDivMod(std::vector<Term> &Terms) {
  for (std::size_t MI = 0; MI != Terms.size(); ++MI) {
    const Term &MT = Terms[MI];
    // Find a Mod factor in this term.
    for (std::size_t MF = 0; MF != MT.Factors.size(); ++MF) {
      const AExpr &ModE = MT.Factors[MF];
      if (ModE->getKind() != ArithExpr::Kind::Mod)
        continue;
      const AExpr &X = ModE->getOperands()[0];
      const AExpr &C = ModE->getOperands()[1];
      bool CIsCst = C->getKind() == ArithExpr::Kind::Cst;
      if (CIsCst ? C->getCst() <= 0 : !C->getRange().atLeast(1))
        continue;
      // Rest of the mod term's factors.
      Term Rest = MT;
      Rest.Factors.erase(Rest.Factors.begin() + std::ptrdiff_t(MF));
      // Matching div term: coeff k*c (const c) or factors + {c}.
      for (std::size_t DI = 0; DI != Terms.size(); ++DI) {
        if (DI == MI)
          continue;
        const Term &DT = Terms[DI];
        Term DRest = DT;
        bool FoundDiv = false;
        for (std::size_t DF = 0; DF != DT.Factors.size(); ++DF) {
          const AExpr &DivE = DT.Factors[DF];
          if (DivE->getKind() != ArithExpr::Kind::Div ||
              !exprEquals(DivE->getOperands()[0], X) ||
              !exprEquals(DivE->getOperands()[1], C))
            continue;
          DRest = DT;
          DRest.Factors.erase(DRest.Factors.begin() + std::ptrdiff_t(DF));
          FoundDiv = true;
          break;
        }
        if (!FoundDiv)
          continue;
        if (CIsCst) {
          if (DRest.Coeff != Rest.Coeff * C->getCst() ||
              !sameFactors(DRest, Rest))
            continue;
        } else {
          // Remove one occurrence of C from the div term's rest.
          if (DRest.Coeff != Rest.Coeff || !removeFactor(DRest, C) ||
              !sameFactors(DRest, Rest))
            continue;
        }
        // Replace both terms with k * Rest * x.
        AExpr Combined = cst(Rest.Coeff);
        for (const AExpr &F : Rest.Factors)
          Combined = mul(Combined, F);
        Combined = mul(Combined, X);
        std::vector<Term> NewTerms;
        for (std::size_t I = 0; I != Terms.size(); ++I)
          if (I != MI && I != DI)
            NewTerms.push_back(Terms[I]);
        for (Term &T : exprToTerms(Combined))
          NewTerms.push_back(std::move(T));
        Terms = std::move(NewTerms);
        return true;
      }
    }
  }
  return false;
}

AExpr lift::add(AExpr A, AExpr B) {
  std::vector<Term> Terms = exprToTerms(A);
  std::vector<Term> TermsB = exprToTerms(B);
  Terms.insert(Terms.end(), TermsB.begin(), TermsB.end());
  mergeTerms(Terms);
  while (recombineDivMod(Terms))
    mergeTerms(Terms);
  return termsToSum(std::move(Terms));
}

AExpr lift::sub(AExpr A, AExpr B) { return add(std::move(A), mul(cst(-1), std::move(B))); }

AExpr lift::mul(AExpr A, AExpr B) {
  // Distribute over sums so everything stays in sum-of-products form.
  if (A->getKind() == Kind::Add || B->getKind() == Kind::Add) {
    std::vector<Term> TermsA = exprToTerms(A);
    std::vector<Term> TermsB = exprToTerms(B);
    std::vector<Term> Product;
    for (const Term &TA : TermsA) {
      for (const Term &TB : TermsB) {
        Term T;
        T.Coeff = TA.Coeff * TB.Coeff;
        T.Factors = TA.Factors;
        T.Factors.insert(T.Factors.end(), TB.Factors.begin(),
                         TB.Factors.end());
        std::sort(T.Factors.begin(), T.Factors.end(),
                  [](const AExpr &X, const AExpr &Y) {
                    return compareExprs(X, Y) < 0;
                  });
        Product.push_back(std::move(T));
      }
    }
    mergeTerms(Product);
    return termsToSum(std::move(Product));
  }
  Term TA = exprToTerm(A);
  Term TB = exprToTerm(B);
  Term T;
  T.Coeff = TA.Coeff * TB.Coeff;
  T.Factors = TA.Factors;
  T.Factors.insert(T.Factors.end(), TB.Factors.begin(), TB.Factors.end());
  std::sort(T.Factors.begin(), T.Factors.end(),
            [](const AExpr &X, const AExpr &Y) {
              return compareExprs(X, Y) < 0;
            });
  return termToExpr(T);
}

//===----------------------------------------------------------------------===//
// Floor division / modulo
//===----------------------------------------------------------------------===//

/// Removes one occurrence of \p Factor from \p T if present.
static bool removeFactor(Term &T, const AExpr &Factor) {
  for (auto It = T.Factors.begin(), E = T.Factors.end(); It != E; ++It) {
    if (exprEquals(*It, Factor)) {
      T.Factors.erase(It);
      return true;
    }
  }
  return false;
}

AExpr lift::floorDiv(AExpr A, AExpr B) {
  if (B->isCst(0))
    fatalError("floorDiv by constant zero");
  if (B->isCst(1))
    return A;
  if (A->getKind() == Kind::Cst && B->getKind() == Kind::Cst)
    return cst(floorDivInt(A->getCst(), B->getCst()));
  if (exprEquals(A, B) && B->getRange().atLeast(1))
    return cst(1);

  Range RB = B->getRange();
  bool BPositive = RB.atLeast(1);
  if (BPositive) {
    Range RA = A->getRange();
    // The whole dividend is already inside [0, B): quotient is zero.
    if (RA.atLeast(0) && RA.Max && RB.Min && *RA.Max < *RB.Min)
      return cst(0);

    // Term-wise splitting: floor((k*B + r) / B) == k + floor(r / B) for
    // any integers when B > 0.
    std::vector<Term> Quotient, Rest;
    bool BIsCst = B->getKind() == Kind::Cst;
    std::int64_t C = BIsCst ? B->getCst() : 0;
    for (Term &T : exprToTerms(A)) {
      if (BIsCst && T.Coeff % C == 0) {
        T.Coeff /= C;
        Quotient.push_back(std::move(T));
        continue;
      }
      if (!BIsCst && removeFactor(T, B)) {
        Quotient.push_back(std::move(T));
        continue;
      }
      Rest.push_back(std::move(T));
    }
    if (!Quotient.empty()) {
      AExpr QuotExpr = termsToSum(std::move(Quotient));
      if (Rest.empty())
        return QuotExpr;
      return add(QuotExpr, floorDiv(termsToSum(std::move(Rest)), B));
    }

    // Nested constant divisions collapse: (a / c1) / c2 == a / (c1*c2)
    // for positive divisors.
    if (A->getKind() == Kind::Div && BIsCst &&
        A->getOperands()[1]->getKind() == Kind::Cst &&
        A->getOperands()[1]->getCst() > 0)
      return floorDiv(A->getOperands()[0],
                      cst(A->getOperands()[1]->getCst() * C));
  }
  return makeOp(Kind::Div, {std::move(A), std::move(B)});
}

AExpr lift::floorMod(AExpr A, AExpr B) {
  if (B->isCst(0))
    fatalError("floorMod by constant zero");
  if (B->isCst(1))
    return cst(0);
  if (A->getKind() == Kind::Cst && B->getKind() == Kind::Cst)
    return cst(floorModInt(A->getCst(), B->getCst()));
  if (exprEquals(A, B) && B->getRange().atLeast(1))
    return cst(0);

  Range RB = B->getRange();
  if (RB.atLeast(1)) {
    Range RA = A->getRange();
    // Dividend already within [0, B): the modulo is the identity.
    if (RA.atLeast(0) && RA.Max && RB.Min && *RA.Max < *RB.Min)
      return A;

    // Reduce coefficients modulo a constant divisor and drop terms that
    // contain the (symbolic) divisor as a factor.
    bool BIsCst = B->getKind() == Kind::Cst;
    std::int64_t C = BIsCst ? B->getCst() : 0;
    std::vector<Term> Rest;
    bool Changed = false;
    for (Term &T : exprToTerms(A)) {
      if (BIsCst) {
        std::int64_t Reduced = floorModInt(T.Coeff, C);
        if (Reduced != T.Coeff)
          Changed = true;
        T.Coeff = Reduced;
        if (T.Coeff != 0)
          Rest.push_back(std::move(T));
        continue;
      }
      if (removeFactor(T, B)) {
        Changed = true;
        continue;
      }
      Rest.push_back(std::move(T));
    }
    if (Changed)
      return floorMod(termsToSum(std::move(Rest)), B);
  }
  return makeOp(Kind::Mod, {std::move(A), std::move(B)});
}

//===----------------------------------------------------------------------===//
// Min / max
//===----------------------------------------------------------------------===//

AExpr lift::amin(AExpr A, AExpr B) {
  if (exprEquals(A, B))
    return A;
  Range RA = A->getRange();
  Range RB = B->getRange();
  if (RA.Max && RB.Min && *RA.Max <= *RB.Min)
    return A;
  if (RB.Max && RA.Min && *RB.Max <= *RA.Min)
    return B;
  if (compareExprs(A, B) > 0)
    std::swap(A, B);
  return makeOp(Kind::Min, {std::move(A), std::move(B)});
}

AExpr lift::amax(AExpr A, AExpr B) {
  if (exprEquals(A, B))
    return A;
  Range RA = A->getRange();
  Range RB = B->getRange();
  if (RA.Min && RB.Max && *RB.Max <= *RA.Min)
    return A;
  if (RB.Min && RA.Max && *RA.Max <= *RB.Min)
    return B;
  if (compareExprs(A, B) > 0)
    std::swap(A, B);
  return makeOp(Kind::Max, {std::move(A), std::move(B)});
}

AExpr lift::clampIndex(AExpr I, AExpr N) {
  return amax(cst(0), amin(std::move(I), sub(std::move(N), cst(1))));
}

//===----------------------------------------------------------------------===//
// Evaluation, substitution, printing
//===----------------------------------------------------------------------===//

std::int64_t ArithExpr::evaluate(
    const std::unordered_map<unsigned, std::int64_t> &Env) const {
  switch (K) {
  case Kind::Cst:
    return CstVal;
  case Kind::Var: {
    auto It = Env.find(VarId);
    if (It == Env.end())
      fatalError("unbound variable '" + VarName + "' in evaluate");
    return It->second;
  }
  case Kind::Add: {
    std::int64_t Sum = 0;
    for (const AExpr &Op : Operands)
      Sum += Op->evaluate(Env);
    return Sum;
  }
  case Kind::Mul: {
    std::int64_t Product = 1;
    for (const AExpr &Op : Operands)
      Product *= Op->evaluate(Env);
    return Product;
  }
  case Kind::Div: {
    std::int64_t B = Operands[1]->evaluate(Env);
    if (B == 0)
      fatalError("division by zero in evaluate");
    return floorDivInt(Operands[0]->evaluate(Env), B);
  }
  case Kind::Mod: {
    std::int64_t B = Operands[1]->evaluate(Env);
    if (B == 0)
      fatalError("modulo by zero in evaluate");
    return floorModInt(Operands[0]->evaluate(Env), B);
  }
  case Kind::Min:
    return std::min(Operands[0]->evaluate(Env), Operands[1]->evaluate(Env));
  case Kind::Max:
    return std::max(Operands[0]->evaluate(Env), Operands[1]->evaluate(Env));
  }
  unreachable("covered switch");
}

namespace {
/// Per-call substitution memo keyed on interned node identity: subtrees
/// shared through the arena are rewritten once per substitute() call.
using SubstMemo = std::unordered_map<const ArithExpr *, AExpr>;

/// \p E (neither a constant nor a variable) rebuilt through the
/// canonicalizing factories from its operands mapped by \p Sub.
template <typename Fn> AExpr rebuild(const AExpr &E, Fn &&Sub) {
  const std::vector<AExpr> &Ops = E->getOperands();
  switch (E->getKind()) {
  case Kind::Add: {
    AExpr Sum = cst(0);
    for (const AExpr &Op : Ops)
      Sum = add(Sum, Sub(Op));
    return Sum;
  }
  case Kind::Mul: {
    AExpr Product = cst(1);
    for (const AExpr &Op : Ops)
      Product = mul(Product, Sub(Op));
    return Product;
  }
  case Kind::Div:
    return floorDiv(Sub(Ops[0]), Sub(Ops[1]));
  case Kind::Mod:
    return floorMod(Sub(Ops[0]), Sub(Ops[1]));
  case Kind::Min:
    return amin(Sub(Ops[0]), Sub(Ops[1]));
  case Kind::Max:
    return amax(Sub(Ops[0]), Sub(Ops[1]));
  default:
    unreachable("covered switch");
  }
}
} // namespace

static AExpr substituteRec(const AExpr &E,
                           const std::unordered_map<unsigned, AExpr> &Subst,
                           SubstMemo &Memo) {
  switch (E->getKind()) {
  case Kind::Cst:
    return E;
  case Kind::Var: {
    auto It = Subst.find(E->getVarId());
    return It == Subst.end() ? E : It->second;
  }
  default:
    break;
  }
  auto Cached = Memo.find(E.get());
  if (Cached != Memo.end())
    return Cached->second;
  AExpr Result =
      rebuild(E, [&](const AExpr &Op) { return substituteRec(Op, Subst, Memo); });
  Memo.emplace(E.get(), Result);
  return Result;
}

AExpr lift::substitute(const AExpr &E,
                       const std::unordered_map<unsigned, AExpr> &Subst) {
  SubstMemo Memo;
  return substituteRec(E, Subst, Memo);
}

Substitution::Substitution(std::vector<unsigned> Vars) : Vars(std::move(Vars)) {
  assert(this->Vars.size() <= 64 && "one bit per variable");
}

std::uint64_t Substitution::reads(const AExpr &E) {
  switch (E->getKind()) {
  case Kind::Cst:
    return 0;
  case Kind::Var: {
    auto It = std::find(Vars.begin(), Vars.end(), E->getVarId());
    return It == Vars.end() ? 0 : std::uint64_t(1) << (It - Vars.begin());
  }
  default:
    break;
  }
  auto Cached = Reads.find(E.get());
  if (Cached != Reads.end())
    return Cached->second.second;
  std::uint64_t Mask = 0;
  for (const AExpr &Op : E->getOperands())
    Mask |= reads(Op);
  Reads.emplace(E.get(), std::make_pair(E, Mask));
  return Mask;
}

std::size_t Substitution::KeyHash::operator()(const Key &K) const {
  std::size_t H = 0;
  for (const AExpr &N : K)
    H = H * 1000003u ^ std::hash<const ArithExpr *>()(N.get());
  return H;
}

AExpr Substitution::rec(const AExpr &E, const std::vector<AExpr> &Values) {
  if (E->getKind() == Kind::Cst)
    return E;
  std::uint64_t Mask = reads(E);
  if (E->getKind() == Kind::Var)
    return Mask ? Values[std::size_t(std::countr_zero(Mask))] : E;
  Key K{E};
  for (std::size_t I = 0; I != Vars.size(); ++I)
    if (Mask >> I & 1)
      K.push_back(Values[I]);
  auto Cached = Memo.find(K);
  if (Cached != Memo.end())
    return Cached->second;
  AExpr Result = rebuild(E, [&](const AExpr &Op) { return rec(Op, Values); });
  Memo.emplace(std::move(K), Result);
  return Result;
}

AExpr Substitution::operator()(const AExpr &E,
                               const std::vector<AExpr> &Values) {
  assert(Values.size() == Vars.size() && "one value per variable");
  return rec(E, Values);
}

void lift::collectVars(const AExpr &E, std::vector<unsigned> &Out) {
  if (E->getKind() == Kind::Var) {
    Out.push_back(E->getVarId());
    return;
  }
  for (const AExpr &Op : E->getOperands())
    collectVars(Op, Out);
}

std::string ArithExpr::toString() const {
  switch (K) {
  case Kind::Cst:
    return std::to_string(CstVal);
  case Kind::Var:
    return VarName;
  case Kind::Add: {
    std::string S = "(";
    for (std::size_t I = 0, E = Operands.size(); I != E; ++I) {
      if (I != 0)
        S += " + ";
      S += Operands[I]->toString();
    }
    return S + ")";
  }
  case Kind::Mul: {
    std::string S = "(";
    for (std::size_t I = 0, E = Operands.size(); I != E; ++I) {
      if (I != 0)
        S += " * ";
      S += Operands[I]->toString();
    }
    return S + ")";
  }
  case Kind::Div:
    return "(" + Operands[0]->toString() + " / " + Operands[1]->toString() +
           ")";
  case Kind::Mod:
    return "(" + Operands[0]->toString() + " % " + Operands[1]->toString() +
           ")";
  case Kind::Min:
    return "min(" + Operands[0]->toString() + ", " + Operands[1]->toString() +
           ")";
  case Kind::Max:
    return "max(" + Operands[0]->toString() + ", " + Operands[1]->toString() +
           ")";
  }
  unreachable("covered switch");
}
