//===- RangeAnalysisTest.cpp - Symbolic range analysis tests --------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/RangeAnalysis.h"

#include "analysis/InteriorSpec.h"
#include "analysis/TileFold.h"
#include "codegen/CodeGen.h"
#include "ir/TypeInference.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "support/Support.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Soundness property: for randomly generated expressions (the fuzz
// generator vocabulary: constants, ranged variables, +, -, *, floor
// div/mod, min, max) and randomly sampled assignments consistent with
// the facts, the symbolic bounds must bracket the concrete value and
// fact-driven simplification must preserve it exactly.
//===----------------------------------------------------------------------===//

struct RandomWorld {
  // Size-like vars (declared positive) and index-like vars (unbounded
  // declared range, refined only through Facts).
  std::vector<AExpr> SizeVars;
  std::vector<AExpr> IdxVars;
  Facts F;
  // Refinements actually imposed, for consistent sampling:
  // idx var -> (constant lo, symbolic hi). Hi may mention size vars.
  std::vector<std::pair<AExpr, AExpr>> IdxBounds; // parallel to IdxVars
};

RandomWorld makeWorld(RandomSource &R) {
  RandomWorld W;
  for (int I = 0; I != 2; ++I)
    W.SizeVars.push_back(var("n" + std::to_string(I), Range(1, 1 << 30)));
  for (int I = 0; I != 2; ++I) {
    AExpr V = var("i" + std::to_string(I));
    AExpr Lo = cst(R.nextInt(0, 2));
    AExpr Hi;
    if (R.nextBool()) {
      // Symbolic bound: i <= n - k.
      const AExpr &N = W.SizeVars[std::size_t(R.nextInt(0, 1))];
      Hi = sub(N, cst(R.nextInt(0, 2)));
    } else {
      Hi = cst(R.nextInt(3, 9));
    }
    W.F = W.F.withBound(V->getVarId(), Lo, Hi);
    W.IdxVars.push_back(V);
    W.IdxBounds.emplace_back(Lo, Hi);
  }
  return W;
}

AExpr randomExpr(RandomSource &R, const RandomWorld &W, int Depth) {
  if (Depth == 0 || R.nextBool(0.35)) {
    switch (R.nextInt(0, 3)) {
    case 0:
      return cst(R.nextInt(-4, 4));
    case 1:
      return W.SizeVars[std::size_t(R.nextInt(0, 1))];
    default:
      return W.IdxVars[std::size_t(R.nextInt(0, 1))];
    }
  }
  AExpr A = randomExpr(R, W, Depth - 1);
  AExpr B = randomExpr(R, W, Depth - 1);
  switch (R.nextInt(0, 6)) {
  case 0:
    return add(A, B);
  case 1:
    return sub(A, B);
  case 2:
    return mul(A, cst(R.nextInt(-3, 3))); // keep growth bounded
  case 3:
    return floorDiv(A, cst(R.nextInt(1, 4)));
  case 4:
    return floorMod(A, cst(R.nextInt(1, 5)));
  case 5:
    return amin(A, B);
  default:
    return amax(A, B);
  }
}

/// Samples an assignment consistent with the world's facts; nullopt
/// when the sampled refinement interval is empty.
std::optional<std::unordered_map<unsigned, std::int64_t>>
sampleEnv(RandomSource &R, const RandomWorld &W) {
  std::unordered_map<unsigned, std::int64_t> Env;
  for (const AExpr &N : W.SizeVars)
    Env[N->getVarId()] = R.nextInt(1, 8);
  for (std::size_t I = 0; I != W.IdxVars.size(); ++I) {
    auto Lo = tryEvaluate(W.IdxBounds[I].first, Env);
    auto Hi = tryEvaluate(W.IdxBounds[I].second, Env);
    if (!Lo || !Hi || *Lo > *Hi)
      return std::nullopt;
    Env[W.IdxVars[I]->getVarId()] = R.nextInt(*Lo, *Hi);
  }
  return Env;
}

TEST(RangeAnalysis, BoundsAndSimplifyAreSoundOnRandomExprs) {
  RandomSource R(20260808);
  unsigned Checked = 0;
  for (int Iter = 0; Iter != 400; ++Iter) {
    RandomWorld W = makeWorld(R);
    AExpr E = randomExpr(R, W, 4);
    AExpr LB = lowerBound(E, W.F);
    AExpr UB = upperBound(E, W.F);
    AExpr S = simplifyWithFacts(E, W.F);
    for (int Sample = 0; Sample != 20; ++Sample) {
      auto Env = sampleEnv(R, W);
      if (!Env)
        continue;
      auto VE = tryEvaluate(E, *Env);
      auto VL = tryEvaluate(LB, *Env);
      auto VU = tryEvaluate(UB, *Env);
      auto VS = tryEvaluate(S, *Env);
      ASSERT_TRUE(VE && VL && VU && VS) << E->toString();
      EXPECT_LE(*VL, *VE) << "lower bound " << LB->toString()
                          << " exceeds " << E->toString();
      EXPECT_GE(*VU, *VE) << "upper bound " << UB->toString()
                          << " below " << E->toString();
      EXPECT_EQ(*VS, *VE) << "simplification changed " << E->toString()
                          << " into " << S->toString();
      ++Checked;
    }
  }
  // The sampler must not have starved the property.
  EXPECT_GT(Checked, 2000u);
}

//===----------------------------------------------------------------------===//
// Boundary-arithmetic elimination: the exact clamp / mirror / wrap
// formulas the view system emits must collapse under interior facts.
//===----------------------------------------------------------------------===//

struct InteriorFixture {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr V = var("i");          // interior loop var
  AExpr J = var("j");          // window offset
  Facts F;

  InteriorFixture() {
    // i in [1, n-2] (interior for halo 1), j in [0, 2], shifted by -1.
    F = F.withBound(V->getVarId(), cst(1), sub(N, cst(2)))
            .withBound(J->getVarId(), cst(0), cst(2));
  }

  AExpr shifted() const { return sub(add(V, J), cst(1)); } // in [0, n-1]
};

TEST(RangeAnalysis, ClampEliminatedOnInterior) {
  InteriorFixture X;
  AExpr Clamped = clampIndex(X.shifted(), X.N);
  EXPECT_TRUE(exprEquals(simplifyWithFacts(Clamped, X.F), X.shifted()))
      << simplifyWithFacts(Clamped, X.F)->toString();
}

TEST(RangeAnalysis, MirrorEliminatedOnInterior) {
  InteriorFixture X;
  // The view system's mirror: J = I mod 2n; index = min(J, 2n - 1 - J).
  AExpr TwoN = mul(cst(2), X.N);
  AExpr J = floorMod(X.shifted(), TwoN);
  AExpr Mirror = amin(J, sub(sub(TwoN, cst(1)), J));
  EXPECT_TRUE(exprEquals(simplifyWithFacts(Mirror, X.F), X.shifted()))
      << simplifyWithFacts(Mirror, X.F)->toString();
}

TEST(RangeAnalysis, WrapEliminatedOnInterior) {
  InteriorFixture X;
  AExpr Wrap = floorMod(X.shifted(), X.N);
  EXPECT_TRUE(exprEquals(simplifyWithFacts(Wrap, X.F), X.shifted()));
}

TEST(RangeAnalysis, FlatRowMajorIndexProvablyInBounds) {
  // The 2D store/load pattern: i0 * n1 + i1 with i0 < n0, i1 < n1 must
  // be provably within [0, n0 * n1) purely by cancellation — neither
  // size is numerically bounded.
  AExpr N0 = var("n0", Range(1, 1 << 30));
  AExpr N1 = var("n1", Range(1, 1 << 30));
  AExpr I0 = var("i0");
  AExpr I1 = var("i1");
  Facts F = Facts()
                .withLoopVar(I0, N0)
                .withLoopVar(I1, N1);
  AExpr Flat = add(mul(I0, N1), I1);
  EXPECT_TRUE(provablyInBounds(Flat, cst(0), mul(N0, N1), F));
  // And one past the end is not provable.
  EXPECT_FALSE(provablyInBounds(add(Flat, cst(1)), cst(0), mul(N0, N1), F));
}

TEST(RangeAnalysis, CheckFactSolvesForInnermostVar) {
  // Learning 0 <= i + j - 1 < n while j in [0, 2] must bound the
  // *later-created* variable (j here) and make j + i - 1 in bounds.
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i");
  AExpr J = var("j");
  AExpr Shifted = sub(add(I, J), cst(1));
  Facts F = Facts().withCheckFact(Shifted, cst(0), N);
  EXPECT_TRUE(provablyInBounds(Shifted, cst(0), N, F));
}

TEST(RangeAnalysis, TileCountFloorRule) {
  // Tile index w of nT = 1 + floor((n - 1) / 16) tiles, guarded to the
  // strictly interior tiles 1 <= w < nT - 1: the clamped tile start
  // min(n - 16, 16 * w) is 16 * w, because 16 * floor((n - 1) / 16)
  // <= n - 1 -- at a symbolic n.
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr W = var("w");
  AExpr NT = add(cst(1), floorDiv(sub(N, cst(1)), cst(16)));
  Facts Loop = Facts().withLoopVar(W, NT);
  Facts Guard = Loop.withCheckFact(W, cst(1), sub(NT, cst(1)));
  AExpr Start = amin(sub(N, cst(16)), mul(cst(16), W));
  EXPECT_TRUE(provablyLE(mul(cst(16), W), sub(N, cst(16)), Guard));
  EXPECT_TRUE(exprEquals(simplifyWithFacts(Start, Guard), mul(cst(16), W)))
      << simplifyWithFacts(Start, Guard)->toString();
  // The last tile is not interior: without the guard the clamp stays.
  EXPECT_FALSE(provablyLE(mul(cst(16), W), sub(N, cst(16)), Loop));
  // And a halo of two past the last interior tile is not provable
  // under 1 <= w < nT - 1 (n = 16k + 1 reaches n), but is under
  // 1 <= w < nT - 2.
  AExpr Reach = add(mul(cst(16), W), cst(17));
  EXPECT_FALSE(provablyLE(Reach, sub(N, cst(1)), Guard));
  Facts Narrow = Loop.withCheckFact(W, cst(1), sub(NT, cst(2)));
  EXPECT_TRUE(provablyLE(Reach, sub(N, cst(1)), Narrow));
}

TEST(RangeAnalysis, JoinKeepsOnlyCommonFacts) {
  AExpr I = var("i");
  Facts A = Facts().withBound(I->getVarId(), cst(0), cst(4));
  Facts B = Facts().withBound(I->getVarId(), cst(2), cst(9));
  Facts J = A.join(B);
  // i <= 9 and i >= 0 hold on the join; the tighter per-side bounds
  // must not survive.
  EXPECT_TRUE(provablyLE(I, cst(9), J));
  EXPECT_TRUE(provablyLE(cst(0), I, J));
  EXPECT_FALSE(provablyLE(I, cst(4), J));
  EXPECT_FALSE(provablyLE(cst(2), I, J));
}

TEST(RangeAnalysis, TryEvaluateFloorSemanticsAndUnbound) {
  AExpr V = var("x");
  std::unordered_map<unsigned, std::int64_t> Env{{V->getVarId(), -7}};
  EXPECT_EQ(tryEvaluate(floorDiv(V, cst(2)), Env), -4);
  EXPECT_EQ(tryEvaluate(floorMod(V, cst(2)), Env), 1);
  AExpr Other = var("y");
  EXPECT_FALSE(tryEvaluate(add(V, Other), Env).has_value());
}

//===----------------------------------------------------------------------===//
// Split-divisibility refutation
//===----------------------------------------------------------------------===//

TEST(RangeAnalysis, RefutesSplitOnIndivisibleConcreteSize) {
  AExpr N = var("n", Range(1, 1 << 30));
  ir::ParamPtr A = ir::param("A", ir::arrayT(ir::floatT(), N));
  ir::Program P = ir::makeProgram({A}, ir::join(ir::split(cst(4), A)));
  ASSERT_NE(ir::inferTypes(P), nullptr);

  std::unordered_map<unsigned, std::int64_t> Env{{N->getVarId(), 10}};
  auto Why = refuteSplitDivisibility(P, Env);
  ASSERT_TRUE(Why.has_value());
  EXPECT_NE(Why->find("split(4)"), std::string::npos) << *Why;

  Env[N->getVarId()] = 12;
  EXPECT_FALSE(refuteSplitDivisibility(P, Env).has_value());

  // Unbound size: nothing concrete to refute against.
  EXPECT_FALSE(refuteSplitDivisibility(P, {}).has_value());
}

//===----------------------------------------------------------------------===//
// Static kernel bounds checking
//===----------------------------------------------------------------------===//

TEST(RangeAnalysis, AllBenchmarkKernelsCheckClean) {
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    stencil::BenchmarkInstance I = B.Build();
    std::string Why;
    ir::Program Low = rewrite::lowerStencil(I.P, rewrite::LoweringOptions(),
                                            &Why);
    ASSERT_NE(Low, nullptr) << B.Name << ": " << Why;
    codegen::Compiled C = codegen::compileProgram(Low, B.Name);
    auto V = checkKernelBounds(C.K);
    EXPECT_TRUE(V.empty()) << B.Name << ":\n" << describeViolations(V);
  }
}

TEST(RangeAnalysis, TiledLocalKernelsCheckCleanAtTargetExtents) {
  // The kernels the native backend compiles for tiled16-local, folded
  // into grid nests and split, at the paper's target grids, and the
  // tiled kernels the simulator runs. Acoustic's constant-pad loads are
  // guarded per axis by Selects whose facts refine one index in terms
  // of another; proving them needs those refinements kept symbolic.
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    stencil::BenchmarkInstance I = B.Build();
    rewrite::LoweringOptions O;
    O.Tile = true;
    O.TileOutputs = 16;
    O.UseLocalMem = true;
    O.OutputExtents.assign(B.SmallExtents.begin(), B.SmallExtents.end());
    ir::Program Low = rewrite::lowerStencil(I.P, O);
    ASSERT_NE(Low, nullptr) << B.Name;
    codegen::Compiled C = codegen::compileProgram(Low, B.Name);
    SpecStats S;
    ocl::Kernel K = specializeInterior(foldTiles(C.K, &S));
    EXPECT_EQ(S.TilesFolded, 1u) << B.Name;
    auto Sizes = stencil::makeSizeEnv(I, B.SmallExtents);
    for (const ocl::Kernel *Checked : {&C.K, &K}) {
      auto V = checkKernelBounds(*Checked, &Sizes);
      EXPECT_TRUE(V.empty()) << B.Name << ":\n" << describeViolations(V);
    }
  }
}

TEST(RangeAnalysis, BoundsProductsOfSeveralRefinedFactors) {
  // The tiled store offset d1 * min(d0 - 16, 16 * w) under the launch
  // preconditions d0, d1 >= 16: both factors are refined. The lower
  // bound keeps the size variable d1 and bounds the clamp by 0; a
  // product of two refined nonnegative factors is bounded by the
  // product of their bounds.
  AExpr D0 = var("d0", Range(1, 1 << 20));
  AExpr D1 = var("d1", Range(1, 1 << 20));
  AExpr W = var("w", Range(0, 1 << 20));
  Facts F = Facts()
                .withBound(D0->getVarId(), cst(16), nullptr)
                .withBound(D1->getVarId(), cst(16), nullptr)
                .withLoopVar(W, add(cst(1), floorDiv(sub(D0, cst(1)),
                                                     cst(16))));
  AExpr Offset = mul(D1, amin(sub(D0, cst(16)), mul(cst(16), W)));
  EXPECT_TRUE(provablyLE(cst(0), Offset, F)) << lowerBound(Offset, F);
  // Two refined factors that are not plain variables: each is bounded.
  AExpr V = var("v", Range(0, 1 << 20));
  Facts FV = F.withBound(V->getVarId(), cst(2), cst(5))
                 .withBound(W->getVarId(), cst(3), nullptr);
  AExpr Prod = mul(amin(W, cst(7)), amin(V, cst(9)));
  EXPECT_TRUE(lowerBound(Prod, FV)->isCst(6)) << lowerBound(Prod, FV);
  // One refined factor next to an unrefined one: as before, only it is
  // bounded.
  EXPECT_TRUE(exprEquals(upperBound(mul(D0, V), FV), mul(cst(5), D0)));
  // A factor that may be negative leaves the product unbounded.
  AExpr S = var("s", Range(-4, 4));
  Facts FS = FV.withBound(S->getVarId(), cst(-1), cst(3));
  AExpr Signed = mul(amin(S, cst(8)), amin(V, cst(9)));
  EXPECT_TRUE(exprEquals(upperBound(Signed, FS), Signed));
}

TEST(RangeAnalysis, BoundsNestedProductsInLinearTime) {
  // Each factor's bounds are computed once per query: a chain of
  // products nested under clamps, each factor refined, must not blow
  // up exponentially with its depth.
  Facts F;
  AExpr E = cst(1);
  for (int I = 0; I != 40; ++I) {
    AExpr X = var("x" + std::to_string(I), Range(0, 1 << 20));
    F = F.withBound(X->getVarId(), cst(1), cst(2));
    E = amin(cst(1 << 20), mul(X, add(E, cst(1))));
  }
  EXPECT_TRUE(provablyLE(cst(1), E, F));
}

TEST(RangeAnalysis, SimplifiesConstantQuotients) {
  // Tile coordinates from a flat index: floor((19 + i) / 18) is 1 and
  // (19 + i) mod 18 is 1 + i for i in [0, 15].
  AExpr I = var("i", Range(0, 1 << 20));
  Facts F = Facts().withLoopVar(I, cst(16));
  AExpr R = add(cst(19), I);
  EXPECT_TRUE(simplifyWithFacts(floorDiv(R, cst(18)), F)->isCst(1));
  EXPECT_TRUE(exprEquals(simplifyWithFacts(floorMod(R, cst(18)), F),
                         add(cst(1), I)));
  // Bounds straddling a multiple of the divisor keep the floor.
  Facts Wide = Facts().withLoopVar(I, cst(18));
  EXPECT_EQ(simplifyWithFacts(floorDiv(R, cst(18)), Wide)->getKind(),
            ArithExpr::Kind::Div);
}

TEST(RangeAnalysis, LaunchPreconditionsAreFacts) {
  // A symbolic tiled kernel stores at d1 * min(d0 - 16, 16 * w): only
  // the recorded launch preconditions d0, d1 >= 16 keep that offset
  // nonnegative, and the checker proves every tiled16-local kernel of
  // a 2D benchmark with them.
  for (const char *Name : {"Jacobi2D5pt", "Gaussian", "Hotspot2D"}) {
    const stencil::Benchmark &B = stencil::findBenchmark(Name);
    stencil::BenchmarkInstance I = B.Build();
    rewrite::LoweringOptions O;
    O.Tile = true;
    O.TileOutputs = 16;
    O.UseLocalMem = true;
    ir::Program Low = rewrite::lowerStencil(I.P, O);
    ASSERT_NE(Low, nullptr) << Name;
    codegen::Compiled C = codegen::compileProgram(Low, B.Name);
    ASSERT_FALSE(C.K.MinExtents.empty()) << Name;
    auto V = checkKernelBounds(C.K);
    EXPECT_TRUE(V.empty()) << Name << ":\n" << describeViolations(V);
    ocl::Kernel NoFacts = C.K;
    NoFacts.MinExtents.clear();
    EXPECT_FALSE(checkKernelBounds(NoFacts).empty()) << Name;
  }
}

TEST(RangeAnalysis, CatchesOutOfBoundsStore) {
  // A hand-built kernel storing one past the end must be flagged.
  AExpr N = var("n", Range(1, 1 << 30));
  ocl::Kernel K;
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float,
                       ocl::MemSpace::Global, N, false, true});
  AExpr V = var("i");
  K.Body.push_back(ocl::sLoop(
      ocl::LoopKind::Glb, 0, V, N,
      {ocl::sStore(0, add(V, cst(1)), ocl::kConst(ir::Scalar(1.0f)))}));
  auto Viol = checkKernelBounds(K);
  ASSERT_EQ(Viol.size(), 1u);
  EXPECT_TRUE(Viol[0].IsStore);
  EXPECT_EQ(Viol[0].BufferName, "out");
  EXPECT_FALSE(describeViolations(Viol).empty());

  // The in-bounds version of the same kernel is clean.
  ocl::Kernel OK = K;
  OK.Body.clear();
  OK.Body.push_back(ocl::sLoop(
      ocl::LoopKind::Glb, 0, V, N,
      {ocl::sStore(0, V, ocl::kConst(ir::Scalar(1.0f)))}));
  EXPECT_TRUE(checkKernelBounds(OK).empty());
}

} // namespace
