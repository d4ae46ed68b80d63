//===- ArithPropertyTest.cpp - Randomized simplifier properties -----------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//
//
// Property tests for the interned ArithExpr simplifier: random
// expression trees are built both as a plain, unsimplified shadow tree
// and through the simplifying/interning factories, then compared under
// random variable assignments. Seeded RandomSource keeps every run
// reproducible.
//
//===----------------------------------------------------------------------===//

#include "arith/ArithExpr.h"
#include "support/Support.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace lift;

namespace {

//===----------------------------------------------------------------------===//
// Shadow trees: the unsimplified reference semantics
//===----------------------------------------------------------------------===//

/// A plain expression tree mirroring the factory calls, evaluated
/// directly so simplification bugs cannot cancel out.
struct Shadow {
  enum Op { Cst, Var, Add, Sub, Mul, Div, Mod, Min, Max };
  Op K;
  std::int64_t C = 0;        // Cst payload
  std::size_t VarIdx = 0;    // Var payload: index into the variable pool
  std::unique_ptr<Shadow> L, R;
};

std::int64_t evalShadow(const Shadow &S, const std::vector<std::int64_t> &Vals) {
  switch (S.K) {
  case Shadow::Cst:
    return S.C;
  case Shadow::Var:
    return Vals[S.VarIdx];
  case Shadow::Add:
    return evalShadow(*S.L, Vals) + evalShadow(*S.R, Vals);
  case Shadow::Sub:
    return evalShadow(*S.L, Vals) - evalShadow(*S.R, Vals);
  case Shadow::Mul:
    return evalShadow(*S.L, Vals) * evalShadow(*S.R, Vals);
  case Shadow::Div:
    return floorDivInt(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  case Shadow::Mod:
    return floorModInt(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  case Shadow::Min:
    return std::min(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  case Shadow::Max:
    return std::max(evalShadow(*S.L, Vals), evalShadow(*S.R, Vals));
  }
  unreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Random generation
//===----------------------------------------------------------------------===//

/// A pool of variables shared by every generated tree so random trees
/// can have common subexpressions (exercising the intern table).
struct VarPool {
  std::vector<AExpr> Vars;

  explicit VarPool(std::size_t N) {
    // Strictly positive ranges so any variable may appear in a divisor.
    for (std::size_t I = 0; I != N; ++I)
      Vars.push_back(var("v" + std::to_string(I), Range(1, 6)));
  }

  std::vector<std::int64_t> randomAssignment(RandomSource &Rng) const {
    std::vector<std::int64_t> Vals;
    for (const AExpr &V : Vars)
      Vals.push_back(Rng.nextInt(*V->getVarRange().Min, *V->getVarRange().Max));
    return Vals;
  }
};

/// Result of one random build: the shadow tree and the factory-built,
/// simplified and interned equivalent.
struct BuiltExpr {
  std::unique_ptr<Shadow> Ref;
  AExpr E;
};

BuiltExpr randomLeaf(RandomSource &Rng, const VarPool &Pool, bool Positive) {
  auto S = std::make_unique<Shadow>();
  if ((!Positive && Rng.nextInt(0, 2) == 0) ||
      (Positive && Rng.nextInt(0, 1) == 0)) {
    S->K = Shadow::Cst;
    S->C = Rng.nextInt(Positive ? 1 : -4, 4);
    AExpr E = cst(S->C);
    return {std::move(S), std::move(E)};
  }
  S->K = Shadow::Var;
  S->VarIdx = std::size_t(Rng.nextInt(0, std::int64_t(Pool.Vars.size()) - 1));
  AExpr E = Pool.Vars[S->VarIdx];
  return {std::move(S), std::move(E)};
}

/// Builds a random tree of the given depth. \p Positive requests a
/// subtree whose value is guaranteed strictly positive (needed for
/// divisors), which restricts it to positive leaves and Add/Mul/Min/Max
/// combinations of positive subtrees.
BuiltExpr randomTree(RandomSource &Rng, const VarPool &Pool, int Depth,
                     bool Positive) {
  if (Depth == 0)
    return randomLeaf(Rng, Pool, Positive);
  auto S = std::make_unique<Shadow>();
  if (Positive) {
    static const Shadow::Op PosOps[] = {Shadow::Add, Shadow::Mul, Shadow::Min,
                                        Shadow::Max};
    S->K = PosOps[Rng.nextInt(0, 3)];
  } else {
    static const Shadow::Op Ops[] = {Shadow::Add, Shadow::Sub, Shadow::Mul,
                                     Shadow::Div, Shadow::Mod, Shadow::Min,
                                     Shadow::Max};
    S->K = Ops[Rng.nextInt(0, 6)];
  }
  bool RightPositive = Positive || S->K == Shadow::Div || S->K == Shadow::Mod;
  BuiltExpr L = randomTree(Rng, Pool, Depth - 1, Positive);
  BuiltExpr R = randomTree(Rng, Pool, Depth - 1, RightPositive);
  AExpr E;
  switch (S->K) {
  case Shadow::Add: E = add(L.E, R.E); break;
  case Shadow::Sub: E = sub(L.E, R.E); break;
  case Shadow::Mul: E = mul(L.E, R.E); break;
  case Shadow::Div: E = floorDiv(L.E, R.E); break;
  case Shadow::Mod: E = floorMod(L.E, R.E); break;
  case Shadow::Min: E = amin(L.E, R.E); break;
  case Shadow::Max: E = amax(L.E, R.E); break;
  case Shadow::Cst:
  case Shadow::Var: unreachable("leaf op in interior node");
  }
  S->L = std::move(L.Ref);
  S->R = std::move(R.Ref);
  return {std::move(S), std::move(E)};
}

std::unordered_map<unsigned, std::int64_t>
makeEnv(const VarPool &Pool, const std::vector<std::int64_t> &Vals) {
  std::unordered_map<unsigned, std::int64_t> Env;
  for (std::size_t I = 0; I != Pool.Vars.size(); ++I)
    Env[Pool.Vars[I]->getVarId()] = Vals[I];
  return Env;
}

//===----------------------------------------------------------------------===//
// Properties
//===----------------------------------------------------------------------===//

TEST(ArithProperty, SimplifiedFormAgreesWithDirectEvaluation) {
  RandomSource Rng(0x5eed0001);
  VarPool Pool(3);
  for (int Trial = 0; Trial != 300; ++Trial) {
    BuiltExpr B = randomTree(Rng, Pool, Rng.nextInt(1, 4) == 4 ? 4 : 3,
                             /*Positive=*/false);
    for (int Assign = 0; Assign != 5; ++Assign) {
      std::vector<std::int64_t> Vals = Pool.randomAssignment(Rng);
      std::int64_t Want = evalShadow(*B.Ref, Vals);
      std::int64_t Got = B.E->evaluate(makeEnv(Pool, Vals));
      ASSERT_EQ(Got, Want) << "simplified " << B.E->toString()
                           << " disagrees with the unsimplified tree";
    }
  }
}

TEST(ArithProperty, StructuralEqualityCoincidesWithPointerEquality) {
  // Within one arena generation, exprEquals(A, B) must hold exactly
  // when A and B are the same interned node — in both directions.
  RandomSource Rng(0x5eed0002);
  VarPool Pool(2);
  std::vector<AExpr> Exprs;
  for (int Trial = 0; Trial != 120; ++Trial)
    Exprs.push_back(randomTree(Rng, Pool, 3, false).E);
  for (const AExpr &A : Exprs)
    for (const AExpr &B : Exprs) {
      ASSERT_EQ(exprEquals(A, B), A.get() == B.get())
          << A->toString() << " vs " << B->toString();
      if (A.get() == B.get()) {
        ASSERT_EQ(A->hash(), B->hash());
      }
    }
}

TEST(ArithProperty, CompareExprsConsistentWithInterning) {
  // compareExprs is the total order behind canonicalization; its zero
  // class must be exactly the interned-pointer class.
  RandomSource Rng(0x5eed0003);
  VarPool Pool(2);
  std::vector<AExpr> Exprs;
  for (int Trial = 0; Trial != 60; ++Trial)
    Exprs.push_back(randomTree(Rng, Pool, 2, false).E);
  for (const AExpr &A : Exprs)
    for (const AExpr &B : Exprs)
      ASSERT_EQ(compareExprs(A, B) == 0, A.get() == B.get());
}

TEST(ArithProperty, SubstitutionAgreesWithEvaluation) {
  // Substituting every variable by a constant must fold the expression
  // to the literal the evaluator produces.
  RandomSource Rng(0x5eed0004);
  VarPool Pool(3);
  for (int Trial = 0; Trial != 150; ++Trial) {
    BuiltExpr B = randomTree(Rng, Pool, 3, false);
    std::vector<std::int64_t> Vals = Pool.randomAssignment(Rng);
    std::unordered_map<unsigned, AExpr> Subst;
    for (std::size_t I = 0; I != Pool.Vars.size(); ++I)
      Subst[Pool.Vars[I]->getVarId()] = cst(Vals[I]);
    AExpr Folded = substitute(B.E, Subst);
    ASSERT_TRUE(Folded->isCst(B.E->evaluate(makeEnv(Pool, Vals))))
        << B.E->toString() << " substituted to " << Folded->toString();
  }
}

TEST(ArithProperty, MemoizedSubstitutionMatchesSubstitute) {
  // One Substitution over v0 and v1, applied to many trees under value
  // pairs drawn from a few positive candidates (so its memo is hit
  // across calls), must build exactly the nodes substitute() builds.
  RandomSource Rng(0x5eed0006);
  VarPool Pool(3);
  const AExpr &V2 = Pool.Vars[2];
  std::vector<AExpr> Candidates{cst(1), cst(3), V2, add(V2, cst(2)),
                                mul(cst(2), V2), amin(V2, cst(4))};
  Substitution Sub({Pool.Vars[0]->getVarId(), Pool.Vars[1]->getVarId()});
  for (int Trial = 0; Trial != 150; ++Trial) {
    BuiltExpr B = randomTree(Rng, Pool, 3, false);
    for (int Pick = 0; Pick != 3; ++Pick) {
      std::vector<AExpr> Values;
      for (int I = 0; I != 2; ++I)
        Values.push_back(Candidates[std::size_t(
            Rng.nextInt(0, std::int64_t(Candidates.size()) - 1))]);
      AExpr Want = substitute(B.E, {{Pool.Vars[0]->getVarId(), Values[0]},
                                    {Pool.Vars[1]->getVarId(), Values[1]}});
      ASSERT_EQ(Sub(B.E, Values).get(), Want.get())
          << B.E->toString() << " -> " << Want->toString();
    }
  }
}

TEST(ArithProperty, RangeAnalysisBoundsActualValues) {
  // The memoized interval analysis must be conservative: every concrete
  // evaluation lies inside the computed range.
  RandomSource Rng(0x5eed0005);
  VarPool Pool(3);
  for (int Trial = 0; Trial != 150; ++Trial) {
    BuiltExpr B = randomTree(Rng, Pool, 3, false);
    Range R = B.E->getRange();
    for (int Assign = 0; Assign != 4; ++Assign) {
      std::vector<std::int64_t> Vals = Pool.randomAssignment(Rng);
      std::int64_t V = B.E->evaluate(makeEnv(Pool, Vals));
      if (R.Min) {
        ASSERT_LE(*R.Min, V) << B.E->toString();
      }
      if (R.Max) {
        ASSERT_GE(*R.Max, V) << B.E->toString();
      }
    }
  }
}

} // namespace
