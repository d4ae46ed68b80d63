//===- ArithExprTest.cpp - Unit tests for symbolic arithmetic ------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "arith/ArithExpr.h"

#include <gtest/gtest.h>

#include <limits>

using namespace lift;

namespace {

// A large bound standing in for "unbounded above but known non-negative".
constexpr std::int64_t Huge = 1 << 30;

AExpr sizeVar(const char *Name) { return var(Name, Range(1, Huge)); }

TEST(ArithExpr, ConstantFolding) {
  EXPECT_TRUE(add(cst(2), cst(3))->isCst(5));
  EXPECT_TRUE(mul(cst(4), cst(-3))->isCst(-12));
  EXPECT_TRUE(sub(cst(2), cst(7))->isCst(-5));
  EXPECT_TRUE(floorDiv(cst(7), cst(2))->isCst(3));
  EXPECT_TRUE(floorDiv(cst(-7), cst(2))->isCst(-4)); // floor, not trunc
  EXPECT_TRUE(floorMod(cst(-7), cst(2))->isCst(1));  // result in [0, 2)
  EXPECT_TRUE(amin(cst(3), cst(5))->isCst(3));
  EXPECT_TRUE(amax(cst(3), cst(5))->isCst(5));
}

TEST(ArithExpr, AdditionIdentities) {
  AExpr N = sizeVar("n");
  EXPECT_TRUE(exprEquals(add(N, cst(0)), N));
  EXPECT_TRUE(exprEquals(add(cst(0), N), N));
  EXPECT_TRUE(sub(N, N)->isCst(0));
}

TEST(ArithExpr, MultiplicationIdentities) {
  AExpr N = sizeVar("n");
  EXPECT_TRUE(exprEquals(mul(N, cst(1)), N));
  EXPECT_TRUE(mul(N, cst(0))->isCst(0));
  EXPECT_TRUE(exprEquals(mul(cst(1), N), N));
}

TEST(ArithExpr, LikeTermsMerge) {
  AExpr N = sizeVar("n");
  // n + n == 2*n
  AExpr TwoN = add(N, N);
  EXPECT_TRUE(exprEquals(TwoN, mul(cst(2), N)));
  // 2n + 3n - 5n == 0
  AExpr Zero = sub(add(mul(cst(2), N), mul(cst(3), N)), mul(cst(5), N));
  EXPECT_TRUE(Zero->isCst(0));
}

TEST(ArithExpr, SumsAreCommutative) {
  AExpr N = sizeVar("n");
  AExpr M = sizeVar("m");
  EXPECT_TRUE(exprEquals(add(N, M), add(M, N)));
  EXPECT_TRUE(exprEquals(mul(N, M), mul(M, N)));
}

TEST(ArithExpr, DistributesOverSums) {
  AExpr N = sizeVar("n");
  AExpr M = sizeVar("m");
  // (n + 1) * m == n*m + m
  AExpr Left = mul(add(N, cst(1)), M);
  AExpr Right = add(mul(N, M), M);
  EXPECT_TRUE(exprEquals(Left, Right));
}

TEST(ArithExpr, SplitJoinSizeRoundTrips) {
  // join(split(m, in)) has size (n/m)*m. For Lift the split size m must
  // evenly divide n; the canonical Lift identity we rely on is the index
  // form: (i / m) * m + i % m == i cannot be proven without the divisibility
  // assumption, but (n * m) / m == n must fold.
  AExpr N = sizeVar("n");
  AExpr M = sizeVar("m");
  EXPECT_TRUE(exprEquals(floorDiv(mul(N, M), M), N));
}

TEST(ArithExpr, SlideOutputSize) {
  // slide(size=3, step=1) on [T]n produces (n - 3 + 1) / 1 == n - 2.
  AExpr N = sizeVar("n");
  AExpr OutSize = floorDiv(add(sub(N, cst(3)), cst(1)), cst(1));
  EXPECT_TRUE(exprEquals(OutSize, sub(N, cst(2))));
}

TEST(ArithExpr, DivisionTermSplitting) {
  AExpr N = sizeVar("n");
  AExpr I = var("i", Range(0, 3));
  // (4*n + i) / 4 == n + i/4 == n  (since i in [0,3])
  AExpr E = floorDiv(add(mul(cst(4), N), I), cst(4));
  EXPECT_TRUE(exprEquals(E, N));
}

TEST(ArithExpr, ModuloSimplification) {
  AExpr N = sizeVar("n");
  AExpr I = var("i", Range(0, 3));
  // (4*n + i) % 4 == i
  AExpr E = floorMod(add(mul(cst(4), N), I), cst(4));
  EXPECT_TRUE(exprEquals(E, I));
  // (n*m + r) % m == r % m for symbolic m
  AExpr M = sizeVar("m");
  AExpr R = var("r", Range(0, Huge));
  AExpr E2 = floorMod(add(mul(N, M), R), M);
  EXPECT_TRUE(exprEquals(E2, floorMod(R, M)));
}

TEST(ArithExpr, SymbolicDivisorSplitting) {
  AExpr N = sizeVar("n");
  AExpr M = sizeVar("m");
  AExpr J = var("j", Range(0, Huge));
  // (n*m + j) / m == n + j/m
  AExpr E = floorDiv(add(mul(N, M), J), M);
  EXPECT_TRUE(exprEquals(E, add(N, floorDiv(J, M))));
}

TEST(ArithExpr, NestedDivisionCollapses) {
  AExpr N = sizeVar("n");
  // (n / 2) / 4 == n / 8
  AExpr E = floorDiv(floorDiv(N, cst(2)), cst(4));
  EXPECT_TRUE(exprEquals(E, floorDiv(N, cst(8))));
}

TEST(ArithExpr, RangeBasedDivMod) {
  AExpr I = var("i", Range(0, 7));
  EXPECT_TRUE(floorDiv(I, cst(8))->isCst(0));
  EXPECT_TRUE(exprEquals(floorMod(I, cst(8)), I));
}

TEST(ArithExpr, SelfDivision) {
  AExpr N = sizeVar("n");
  EXPECT_TRUE(floorDiv(N, N)->isCst(1));
  EXPECT_TRUE(floorMod(N, N)->isCst(0));
}

TEST(ArithExpr, RangeArithmeticNearInt64MaxDropsOverflowingSide) {
  // Interval endpoints that overflow int64_t must become unknown, never
  // wrap: a wrapped upper bound would "prove" the expression small.
  constexpr std::int64_t Max = std::numeric_limits<std::int64_t>::max();
  AExpr A = var("a", Range(0, Max - 1));
  AExpr B = var("b", Range(0, 2));

  Range Sum = add(A, B)->getRange();
  ASSERT_TRUE(Sum.Min.has_value());
  EXPECT_EQ(*Sum.Min, 0);
  EXPECT_FALSE(Sum.Max.has_value());

  Range Prod = mul(A, B)->getRange();
  ASSERT_TRUE(Prod.Min.has_value());
  EXPECT_EQ(*Prod.Min, 0);
  EXPECT_FALSE(Prod.Max.has_value());

  // Mixed signs: the overflowing corner lies below INT64_MIN, so only
  // the lower side is dropped.
  AExpr C = var("c", Range(-(Max - 1), 1));
  Range Mixed = mul(C, B)->getRange();
  EXPECT_FALSE(Mixed.Min.has_value());
  ASSERT_TRUE(Mixed.Max.has_value());
  EXPECT_EQ(*Mixed.Max, 2);

  // A non-negative factor with no upper bound: the product keeps a
  // lower bound, which must not wrap negative either.
  Range AboveHalf;
  AboveHalf.Min = Max / 2;
  Range Open = mul(var("d", AboveHalf), var("e", Range(3, 4)))->getRange();
  ASSERT_TRUE(Open.Min.has_value());
  EXPECT_GE(*Open.Min, 0);
  EXPECT_FALSE(Open.Max.has_value());
}

TEST(ArithExpr, MinMaxRangeDecided) {
  AExpr I = var("i", Range(0, 3));
  AExpr J = var("j", Range(10, 20));
  EXPECT_TRUE(exprEquals(amin(I, J), I));
  EXPECT_TRUE(exprEquals(amax(I, J), J));
}

TEST(ArithExpr, ClampIndexInRangeIsIdentityLike) {
  // clamp of an index that is already within [0, n-1] stays symbolic but
  // evaluates to the identity.
  AExpr N = sizeVar("n");
  AExpr I = var("i", Range(-1, Huge));
  AExpr Clamped = clampIndex(I, N);
  std::unordered_map<unsigned, std::int64_t> Env{{I->getVarId(), -1},
                                                 {N->getVarId(), 10}};
  EXPECT_EQ(Clamped->evaluate(Env), 0);
  Env[I->getVarId()] = 5;
  EXPECT_EQ(Clamped->evaluate(Env), 5);
  Env[I->getVarId()] = 42;
  EXPECT_EQ(Clamped->evaluate(Env), 9);
}

TEST(ArithExpr, EvaluateMatchesSemantics) {
  AExpr N = sizeVar("n");
  AExpr I = var("i");
  AExpr E = add(mul(N, I), floorDiv(I, cst(3)));
  std::unordered_map<unsigned, std::int64_t> Env{{N->getVarId(), 7},
                                                 {I->getVarId(), 10}};
  EXPECT_EQ(E->evaluate(Env), 7 * 10 + 10 / 3);
}

TEST(ArithExpr, SubstituteRewritesAndSimplifies) {
  AExpr N = sizeVar("n");
  AExpr I = var("i");
  AExpr E = add(mul(cst(4), N), I);
  std::unordered_map<unsigned, AExpr> Subst{{I->getVarId(), mul(cst(-4), N)}};
  EXPECT_TRUE(substitute(E, Subst)->isCst(0));
}

TEST(ArithExpr, HashConsistentWithEquality) {
  AExpr N = sizeVar("n");
  AExpr M = sizeVar("m");
  AExpr A = add(mul(N, M), cst(3));
  AExpr B = add(cst(3), mul(M, N));
  ASSERT_TRUE(exprEquals(A, B));
  EXPECT_EQ(A->hash(), B->hash());
}

TEST(ArithExpr, CollectVars) {
  AExpr N = sizeVar("n");
  AExpr M = sizeVar("m");
  std::vector<unsigned> Vars;
  collectVars(floorDiv(add(N, M), cst(2)), Vars);
  EXPECT_EQ(Vars.size(), 2u);
}

TEST(ArithExpr, ToStringIsStable) {
  AExpr N = sizeVar("n");
  AExpr E = add(mul(cst(2), N), cst(1));
  EXPECT_EQ(E->toString(), "(1 + (2 * n))");
}

//===----------------------------------------------------------------------===//
// Property test: simplification preserves evaluation.
//===----------------------------------------------------------------------===//

/// Builds a random expression over the given variables, returning the
/// unsimplified semantics through direct evaluation of the construction
/// recipe alongside the simplified AExpr.
struct RandomExprGen {
  RandomSource Rand;
  std::vector<AExpr> Vars;
  std::vector<std::int64_t> Values;

  explicit RandomExprGen(std::uint64_t Seed) : Rand(Seed) {
    for (int I = 0; I < 4; ++I) {
      // Keep values small and positive so products stay in range and
      // divisors are valid.
      std::int64_t V = Rand.nextInt(1, 12);
      Vars.push_back(var("v" + std::to_string(I), Range(1, 16)));
      Values.push_back(V);
    }
  }

  /// Returns (expression, ground-truth value) for a random tree.
  std::pair<AExpr, std::int64_t> gen(int Depth) {
    if (Depth == 0 || Rand.nextBool(0.3)) {
      if (Rand.nextBool(0.5)) {
        std::size_t I = Rand.nextInt(0, Vars.size() - 1);
        return {Vars[I], Values[I]};
      }
      std::int64_t C = Rand.nextInt(-8, 8);
      return {cst(C), C};
    }
    auto [A, VA] = gen(Depth - 1);
    auto [B, VB] = gen(Depth - 1);
    switch (Rand.nextInt(0, 5)) {
    case 0:
      return {add(A, B), VA + VB};
    case 1:
      return {sub(A, B), VA - VB};
    case 2:
      return {mul(A, B), VA * VB};
    case 3:
      if (VB == 0)
        return {add(A, B), VA + VB};
      return {floorDiv(A, B), floorDivInt(VA, VB)};
    case 4:
      if (VB == 0)
        return {add(A, B), VA + VB};
      return {floorMod(A, B), floorModInt(VA, VB)};
    default:
      if (Rand.nextBool())
        return {amin(A, B), std::min(VA, VB)};
      return {amax(A, B), std::max(VA, VB)};
    }
  }
};

class ArithProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArithProperty, SimplificationPreservesEvaluation) {
  RandomExprGen Gen(GetParam());
  std::unordered_map<unsigned, std::int64_t> Env;
  for (std::size_t I = 0; I < Gen.Vars.size(); ++I)
    Env[Gen.Vars[I]->getVarId()] = Gen.Values[I];

  for (int Trial = 0; Trial < 50; ++Trial) {
    // Min/max ground truth is easier to recompute than to thread through
    // the generator, so rebuild pairs here.
    auto [A, VA] = Gen.gen(3);
    auto [B, VB] = Gen.gen(3);
    EXPECT_EQ(add(A, B)->evaluate(Env), VA + VB);
    EXPECT_EQ(sub(A, B)->evaluate(Env), VA - VB);
    EXPECT_EQ(mul(A, B)->evaluate(Env), VA * VB);
    EXPECT_EQ(amin(A, B)->evaluate(Env), std::min(VA, VB));
    EXPECT_EQ(amax(A, B)->evaluate(Env), std::max(VA, VB));
    if (VB != 0) {
      EXPECT_EQ(floorDiv(A, B)->evaluate(Env), floorDivInt(VA, VB));
      EXPECT_EQ(floorMod(A, B)->evaluate(Env), floorModInt(VA, VB));
    }
    EXPECT_EQ(A->evaluate(Env), VA);
    EXPECT_EQ(B->evaluate(Env), VB);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArithProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 1234));

} // namespace
