//===- InteriorSpecTest.cpp - Interior/edge specialization tests ----------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"

#include "analysis/RangeAnalysis.h"
#include "analysis/TileFold.h"
#include "codegen/Runner.h"
#include "native/CEmitter.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "tuner/Tuner.h"

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

/// The kernel the native backend compiles (native::specializeForNative):
/// tiled nests folded, then grid loops split.
ocl::Kernel forNative(const ocl::Kernel &K, SpecStats *S = nullptr) {
  return specializeInterior(foldTiles(K, S), S);
}

/// True when some loop under \p Body is a work-group or local loop.
bool hasTileLoop(const std::vector<ocl::StmtPtr> &Body) {
  for (const ocl::StmtPtr &S : Body)
    if (S->K == ocl::Stmt::Kind::Loop &&
        (S->LK == ocl::LoopKind::Wrg || S->LK == ocl::LoopKind::Lcl ||
         hasTileLoop(S->Body)))
      return true;
  return false;
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
  // kernels a caller already specialized: a second pass must fold and
  // split nothing and emit byte-identical C -- for the untiled kernels,
  // the iterated kernel and the 14 tiled16-local kernels.
  std::vector<Lowered> Kernels;
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    Kernels.push_back(lower(B));
    Kernels.push_back(lower(B, tiled16Local()));
  }
  Kernels.push_back(
      lowerIterated(stencil::findBenchmark("Jacobi2D5pt"), 8));
  for (const Lowered &L : Kernels) {
    SpecStats First, Second;
    ocl::Kernel Once = forNative(L.C.K, &First);
    ocl::Kernel Twice = forNative(Once, &Second);
    EXPECT_TRUE(First.changed()) << L.C.K.Name;
    EXPECT_EQ(First.TilesUnfolded, 0u) << L.C.K.Name;
    EXPECT_FALSE(Second.changed()) << L.C.K.Name;
    EXPECT_EQ(Second.TilesUnfolded, 0u) << L.C.K.Name;
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

TEST(InteriorSpec, FoldsEveryTiledKernel) {
  // Every tiling of Lift's space -- tiles of 8, 16, 32 and 64 outputs,
  // with and without local memory, every tile coarsening -- lowered at
  // the measurement grid as the tuner lowers it, minus the ones the
  // tuner refutes there: the native kernel has no local buffer, no
  // work-group or local loop, and a Simd interior loop; the fold leaves
  // no tiled nest behind.
  tuner::TuningSpace Space = tuner::liftSpace();
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    stencil::BenchmarkInstance I = B.Build();
    auto Sizes = stencil::makeSizeEnv(I, B.MeasureExtents);
    for (std::int64_t T : Space.TileOutputs)
      for (bool Local : {false, true})
        for (std::int64_t TC : Space.TileCoarsenFactors) {
          if (TC > T || T % TC != 0)
            continue;
          rewrite::LoweringOptions O;
          O.Tile = true;
          O.TileOutputs = T;
          O.UseLocalMem = Local;
          O.TileCoarsen = TC;
          O.OutputExtents.assign(B.MeasureExtents.begin(),
                                 B.MeasureExtents.end());
          std::string What = B.Name + " " + O.describe();
          ir::Program Low = rewrite::lowerStencil(I.P, O);
          ASSERT_NE(Low, nullptr) << What;
          if (refuteSplitDivisibility(Low, Sizes))
            continue; // the tuner prunes it: a chunk misses the grid
          codegen::Compiled C = codegen::compileProgram(Low, B.Name);
          SpecStats S;
          ocl::Kernel K = forNative(C.K, &S);
          EXPECT_EQ(S.TilesFolded, 1u) << What;
          EXPECT_EQ(S.TilesUnfolded, 0u) << What;
          for (const ocl::BufferDecl &Buf : K.Buffers)
            EXPECT_EQ(Buf.Space, ocl::MemSpace::Global) << What;
          EXPECT_FALSE(hasTileLoop(K.Body)) << What;
          std::vector<const ocl::Stmt *> Inner = innermostGridLoops(K);
          EXPECT_TRUE(std::any_of(Inner.begin(), Inner.end(),
                                  [](const ocl::Stmt *L) { return L->Simd; }))
              << What;
        }
  }
}

TEST(InteriorSpec, FoldedKernelsBitIdenticalOnRaggedGrids) {
  // tiled16-local of every benchmark on grids whose innermost extent is
  // 16k + 1 or prime, so the last tile overlaps its neighbour: the
  // folded kernel, on the simulator, matches the tiled kernel on both
  // simulators bit for bit.
  for (const stencil::Benchmark &B : stencil::allBenchmarks()) {
    for (std::int64_t Inner : {49, 53}) {
      stencil::Extents E = B.SmallExtents.size() == 3
                               ? stencil::Extents{17, 18, Inner}
                               : stencil::Extents{19, Inner};
      rewrite::LoweringOptions O = tiled16Local();
      O.OutputExtents.assign(E.begin(), E.end());
      Lowered L = lower(B, O);
      codegen::Compiled Folded = L.C;
      SpecStats S;
      Folded.K = forNative(L.C.K, &S);
      ASSERT_EQ(S.TilesFolded, 1u) << B.Name;
      auto Env = stencil::makeSizeEnv(L.I, E);
      auto Inputs = stencil::makeBenchmarkInputs(B, E);
      ocl::Executor Seq(L.C.K, Env);
      for (std::size_t I = 0; I != Inputs.size(); ++I)
        Seq.bindInput(L.C.InputBufferIds[I], Inputs[I]);
      Seq.run();
      std::vector<float> Ref = Seq.bufferContents(L.C.OutputBufferId);
      EXPECT_EQ(codegen::runCompiled(L.C, Inputs, Env, ocl::CacheConfig(),
                                     /*Jobs=*/2)
                    .Output,
                Ref)
          << B.Name << " " << Inner;
      EXPECT_EQ(codegen::runCompiled(Folded, Inputs, Env).Output, Ref)
          << B.Name << " " << Inner;
    }
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
