//===- InteriorSpecTest.cpp - Interior/edge specialization tests ----------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"

#include "analysis/RangeAnalysis.h"
#include "codegen/Runner.h"
#include "native/CEmitter.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace lift;
using namespace lift::analysis;

namespace {

struct Lowered {
  stencil::BenchmarkInstance I;
  codegen::Compiled C;
};

Lowered lower(const stencil::Benchmark &B,
              const rewrite::LoweringOptions &O = {}) {
  Lowered L{B.Build(), {}};
  std::string Why;
  ir::Program Low = rewrite::lowerStencil(L.I.P, O, &Why);
  EXPECT_NE(Low, nullptr) << B.Name << ": " << Why;
  L.C = codegen::compileProgram(Low, B.Name);
  return L;
}

/// Runs original and specialized kernels on the simulator and requires
/// bit-identical outputs over the given extents.
void expectBitIdentical(const stencil::Benchmark &B,
                        const stencil::Extents &E) {
  Lowered L = lower(B);
  SpecStats S;
  codegen::Compiled Spec = L.C;
  Spec.K = specializeInterior(L.C.K, &S);

  auto Env = stencil::makeSizeEnv(L.I, E);
  auto Inputs = stencil::makeBenchmarkInputs(B, E);
  auto Ref = codegen::runCompiled(L.C, Inputs, Env);
  auto Got = codegen::runCompiled(Spec, Inputs, Env);
  ASSERT_EQ(Ref.Output.size(), Got.Output.size()) << B.Name;
  for (std::size_t I = 0; I != Ref.Output.size(); ++I)
    ASSERT_EQ(Ref.Output[I], Got.Output[I])
        << B.Name << " differs at flat index " << I
        << " (split " << S.LoopsSplit << " loops)";
}

/// The grid loops with no grid loop nested inside, in program order.
std::vector<const ocl::Stmt *> innermostGridLoops(const ocl::Kernel &K) {
  std::vector<const ocl::Stmt *> Out;
  std::function<bool(const ocl::Stmt &)> Walk = [&](const ocl::Stmt &S) {
    if (S.K != ocl::Stmt::Kind::Loop)
      return false;
    bool Nested = false;
    for (const ocl::StmtPtr &C : S.Body)
      Nested |= Walk(*C);
    bool Grid = S.LK == ocl::LoopKind::Glb;
    if (Grid && !Nested)
      Out.push_back(&S);
    return Grid || Nested;
  };
  for (const ocl::StmtPtr &S : K.Body)
    Walk(*S);
  return Out;
}

/// True when \p E holds a min/max/mod node over variable \p Id.
bool hasBoundaryOpOn(const AExpr &E, unsigned Id) {
  if (!E)
    return false;
  ArithExpr::Kind Kd = E->getKind();
  if (Kd == ArithExpr::Kind::Min || Kd == ArithExpr::Kind::Max ||
      Kd == ArithExpr::Kind::Mod) {
    std::vector<unsigned> Vars;
    collectVars(E, Vars);
    for (unsigned V : Vars)
      if (V == Id)
        return true;
  }
  for (const AExpr &Op : E->getOperands())
    if (hasBoundaryOpOn(Op, Id))
      return true;
  return false;
}

/// True when no index, count or pad guard under \p Body carries
/// boundary arithmetic on variable \p Id.
bool clampFreeOn(const std::vector<ocl::StmtPtr> &Body, unsigned Id) {
  auto Mentions = [&](const AExpr &E) {
    std::vector<unsigned> Vars;
    if (E)
      collectVars(E, Vars);
    return std::find(Vars.begin(), Vars.end(), Id) != Vars.end();
  };
  std::function<bool(const ocl::KExprPtr &)> Expr =
      [&](const ocl::KExprPtr &E) {
        if (!E)
          return true;
        if (hasBoundaryOpOn(E->Index, Id))
          return false;
        for (const ocl::BoundsCheck &B : E->Checks)
          if (Mentions(B.Idx) || Mentions(B.Lo) || Mentions(B.Hi))
            return false;
        for (const ocl::KExprPtr &A : E->Args)
          if (!Expr(A))
            return false;
        return Expr(E->Then) && Expr(E->Else);
      };
  std::function<bool(const ocl::Stmt &)> Stmt = [&](const ocl::Stmt &S) {
    if (hasBoundaryOpOn(S.Index, Id) || hasBoundaryOpOn(S.Count, Id) ||
        !Expr(S.Value))
      return false;
    for (const ocl::StmtPtr &C : S.Body)
      if (!Stmt(*C))
        return false;
    return true;
  };
  for (const ocl::StmtPtr &S : Body)
    if (!Stmt(*S))
      return false;
  return true;
}

/// True when no index, count or pad guard under \p Loop carries
/// boundary arithmetic on the loop's own variable.
bool clampFree(const ocl::Stmt &Loop) {
  return clampFreeOn(Loop.Body, Loop.LoopVar->getVarId());
}

rewrite::LoweringOptions tiled16Local() {
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  return O;
}

/// The innermost Wrg loop of \p K (the work-group loop whose body holds
/// the tile fill and the compute nest), or nullptr.
const ocl::Stmt *innermostWrg(const ocl::Kernel &K) {
  const ocl::Stmt *Found = nullptr;
  std::function<void(const ocl::Stmt &)> Walk = [&](const ocl::Stmt &S) {
    if (S.K != ocl::Stmt::Kind::Loop)
      return;
    if (S.LK == ocl::LoopKind::Wrg)
      Found = &S;
    for (const ocl::StmtPtr &C : S.Body)
      Walk(*C);
  };
  for (const ocl::StmtPtr &S : K.Body)
    Walk(*S);
  return Found;
}

/// True when the innermost Lcl loops under \p Body (a reduction's Seq
/// loop may sit inside one) all carry Simd.
bool innermostLoopsSimd(const std::vector<ocl::StmtPtr> &Body) {
  auto IsLcl = [](const ocl::StmtPtr &S) {
    return S->K == ocl::Stmt::Kind::Loop && S->LK == ocl::LoopKind::Lcl;
  };
  bool Ok = true;
  std::function<void(const ocl::Stmt &)> Walk = [&](const ocl::Stmt &S) {
    bool Nested = false;
    for (const ocl::StmtPtr &C : S.Body)
      if (IsLcl(C)) {
        Nested = true;
        Walk(*C);
      }
    if (!Nested)
      Ok &= S.Simd;
  };
  for (const ocl::StmtPtr &S : Body)
    if (IsLcl(S))
      Walk(*S);
  return Ok;
}

TEST(InteriorSpec, SplitsEveryUntiledBenchmarkGridLoop) {
  // Every untiled benchmark lowering is a pure global-memory loop nest,
  // so the innermost grid loop of each nest must split, and its
  // interior must be clamp-free — every constant-pad Select / clamp
  // chain on its variable dissolved — and marked Simd. Outer grid
  // loops stay whole.
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    Lowered L = lower(B);
    SpecStats S;
    ocl::Kernel K = specializeInterior(L.C.K, &S);
    std::size_t Inner = innermostGridLoops(L.C.K).size();
    ASSERT_GE(Inner, 1u) << B.Name;
    EXPECT_EQ(S.LoopsSplit, Inner) << B.Name;
    std::vector<const ocl::Stmt *> After = innermostGridLoops(K);
    EXPECT_EQ(After.size(), 3 * Inner) << B.Name;
    std::size_t Interiors = 0;
    for (const ocl::Stmt *Loop : After) {
      if (!Loop->Simd)
        continue;
      ++Interiors;
      EXPECT_TRUE(clampFree(*Loop))
          << B.Name << ": interior " << Loop->LoopVar->getVarName();
    }
    EXPECT_EQ(Interiors, Inner) << B.Name;
    // Any registers used under split loops get fresh interior/right
    // clones (register-free kernels have nothing to duplicate).
    if (!L.C.K.Registers.empty())
      EXPECT_GT(K.Registers.size(), L.C.K.Registers.size()) << B.Name;
  }
}

/// iterate(Steps, step) over \p B's one-step program: the multi-phase
/// kernel shape, one loop nest per time step.
Lowered lowerIterated(const stencil::Benchmark &B, int Steps) {
  Lowered L{B.Build(), {}};
  const ir::ParamPtr &A = L.I.P->getParams().front();
  ir::ExprPtr StepBody = L.I.P->getBody();
  ir::LambdaPtr Step = ir::lam("xs", [&](ir::ExprPtr Xs) {
    return ir::substituteParams(StepBody, {{A.get(), Xs}});
  });
  ir::ParamPtr In = ir::param("A", A->getDeclaredType());
  L.I.P = ir::makeProgram({In}, ir::iterate(Steps, Step, In));
  std::string Why;
  ir::Program Low = rewrite::lowerStencil(L.I.P, {}, &Why);
  EXPECT_NE(Low, nullptr) << B.Name << ": " << Why;
  L.C = codegen::compileProgram(Low, B.Name);
  return L;
}

TEST(InteriorSpec, SecondPassIsIdentity) {
  // The native backend specializes every kernel it compiles, including
  // kernels a caller already specialized: a second pass must split and
  // version nothing and emit byte-identical C -- for the untiled
  // kernels, the iterated kernel and the 14 tiled16-local kernels.
  std::vector<Lowered> Kernels;
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    Kernels.push_back(lower(B));
    Kernels.push_back(lower(B, tiled16Local()));
  }
  Kernels.push_back(
      lowerIterated(stencil::findBenchmark("Jacobi2D5pt"), 8));
  for (const Lowered &L : Kernels) {
    SpecStats First, Second;
    ocl::Kernel Once = specializeInterior(L.C.K, &First);
    ocl::Kernel Twice = specializeInterior(Once, &Second);
    EXPECT_TRUE(First.changed()) << L.C.K.Name;
    EXPECT_FALSE(Second.changed()) << L.C.K.Name;
    EXPECT_EQ(Second.SelectsResolved, 0u) << L.C.K.Name;
    EXPECT_EQ(native::emitC(Twice), native::emitC(Once)) << L.C.K.Name;
  }
}

TEST(InteriorSpec, IteratedKernelSplitsOneLoopPerPhase) {
  Lowered L = lowerIterated(stencil::findBenchmark("Jacobi2D5pt"), 8);
  SpecStats S;
  specializeInterior(L.C.K, &S);
  EXPECT_EQ(S.LoopsSplit, innermostGridLoops(L.C.K).size());
  EXPECT_GE(S.LoopsSplit, 8u);
}

TEST(InteriorSpec, BitIdenticalOnProxyGrids) {
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    stencil::Extents E = B.MeasureExtents.empty() ? B.SmallExtents
                                                  : B.MeasureExtents;
    expectBitIdentical(B, E);
  }
}

TEST(InteriorSpec, BitIdenticalOnDegenerateGrids) {
  // Grids smaller than the halo exercise the empty-interior partition:
  // left edge takes everything, interior and right edge run zero times.
  const stencil::Benchmark &B = stencil::findBenchmark("Jacobi2D5pt");
  for (std::int64_t N : {1, 2, 3, 5}) {
    expectBitIdentical(B, {N, N});
  }
}

TEST(InteriorSpec, VersionsEveryTiledLocalFill) {
  // tiled16-local of every benchmark: no grid loop splits (there are
  // none), but each tile fill in the innermost work-group loop becomes
  //   if (1 <= w < tiles - M) clean fill else original fill
  // whose then-branch is clamp-free on the work-group variable w with
  // Simd innermost loops, while the else-branch keeps the clamps. The
  // compute nest stays one copy with a Simd innermost loop.
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    Lowered L = lower(B, tiled16Local());
    SpecStats S;
    ocl::Kernel K = specializeInterior(L.C.K, &S);
    EXPECT_EQ(S.LoopsSplit, 0u) << B.Name;
    EXPECT_GE(S.FillsVersioned, 1u) << B.Name;
    const ocl::Stmt *Wrg = innermostWrg(K);
    ASSERT_NE(Wrg, nullptr) << B.Name;
    unsigned W = Wrg->LoopVar->getVarId();
    unsigned Guards = 0, Computes = 0;
    for (const ocl::StmtPtr &C : Wrg->Body) {
      if (C->K == ocl::Stmt::Kind::If) {
        ++Guards;
        ASSERT_EQ(C->Checks.size(), 1u) << B.Name;
        EXPECT_EQ(C->Checks[0].Idx, Wrg->LoopVar) << B.Name;
        EXPECT_TRUE(C->Checks[0].Lo->isCst(1)) << B.Name;
        EXPECT_TRUE(clampFreeOn(C->Body, W)) << B.Name;
        EXPECT_FALSE(clampFreeOn(C->ElseBody, W)) << B.Name;
        EXPECT_TRUE(innermostLoopsSimd(C->Body)) << B.Name;
      } else if (C->K == ocl::Stmt::Kind::Loop) {
        ++Computes;
        EXPECT_TRUE(innermostLoopsSimd({C})) << B.Name;
      }
    }
    EXPECT_EQ(Guards, S.FillsVersioned) << B.Name;
    EXPECT_GE(Computes, 1u) << B.Name;
  }
}

TEST(InteriorSpec, VersionedFillsBitIdenticalOnRaggedGrids) {
  // Both simulators execute the guarded fill. The innermost extent 49 =
  // 3 * 16 + 1 puts the last clean tile's halo on the grid edge, the
  // shape that needs the wider guard for halos of two (Gaussian,
  // Jacobi3D13pt).
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    Lowered L = lower(B, tiled16Local());
    codegen::Compiled Spec = L.C;
    Spec.K = specializeInterior(L.C.K);
    stencil::Extents E = B.SmallExtents.size() == 3
                             ? stencil::Extents{17, 18, 49}
                             : stencil::Extents{19, 49};
    auto Env = stencil::makeSizeEnv(L.I, E);
    auto Inputs = stencil::makeBenchmarkInputs(B, E);
    auto Ref = codegen::runCompiled(L.C, Inputs, Env);
    auto Got = codegen::runCompiled(Spec, Inputs, Env, ocl::CacheConfig(),
                                    /*Jobs=*/2);
    ASSERT_EQ(Ref.Output, Got.Output) << B.Name;
    ocl::Executor Seq(Spec.K, Env);
    for (std::size_t I = 0; I != Inputs.size(); ++I)
      Seq.bindInput(Spec.InputBufferIds[I], Inputs[I]);
    Seq.run();
    EXPECT_EQ(Seq.bufferContents(Spec.OutputBufferId), Ref.Output) << B.Name;
  }
}

TEST(InteriorSpec, InteriorBodyIsClampFree) {
  // After specialization, the innermost interior loop nest must carry
  // no Min/Max/Mod on its own loop variables — that is the whole point.
  // Verified indirectly: the specialized kernel still bounds-checks
  // clean (the interior loads are in bounds *without* the clamps).
  for (const char *Name : {"Jacobi2D5pt", "Jacobi3D7pt", "Heat"}) {
    Lowered L = lower(stencil::findBenchmark(Name));
    ocl::Kernel K = specializeInterior(L.C.K);
    auto V = checkKernelBounds(K);
    EXPECT_TRUE(V.empty()) << Name << ":\n" << describeViolations(V);
  }
}

} // namespace
