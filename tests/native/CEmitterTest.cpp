//===- CEmitterTest.cpp - Unit tests for the kernel-AST -> C emitter -------===//
//
// Part of the liftcpp project.
//
// Exercises the emitter on hand-built kernels where each property is
// isolated: loop structure and iteration counts, OpenMP pragma
// placement and the sequential fallback, boundary-clamp index
// rendering through the floor-division helpers, local-memory tile
// declarations and their per-thread privatization, and the exact
// float-literal formatting the bit-identity contract depends on.
//
//===----------------------------------------------------------------------===//

#include "native/CEmitter.h"

#include "codegen/CodeGen.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

using namespace lift;
using namespace lift::ocl;

namespace {

/// in0[i] summed over a Glb loop: the smallest parallelizable kernel.
Kernel simpleGlbKernel() {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "simple";
  K.Buffers.push_back({0, "in0", ir::ScalarKind::Float, MemSpace::Global, N,
                       /*IsInput=*/true, /*IsOutput=*/false});
  K.Buffers.push_back({1, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       /*IsInput=*/false, /*IsOutput=*/true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N, {sStore(1, I, kLoad(0, I))}));
  return K;
}

std::string emitDefault(const Kernel &K) { return native::emitC(K); }

TEST(CEmitter, LoopStructureAndAbi) {
  std::string Src = emitDefault(simpleGlbKernel());
  // Positional ABI: buffers unpacked in declaration order, sizes in
  // SizeArgs order, threads last.
  EXPECT_NE(Src.find("void simple(void **lift_bufs, const long long "
                     "*lift_sizes, int lift_threads)"),
            std::string::npos);
  EXPECT_NE(Src.find("float *restrict in0 = (float *)lift_bufs[0];"),
            std::string::npos);
  EXPECT_NE(Src.find("float *restrict out = (float *)lift_bufs[1];"),
            std::string::npos);
  EXPECT_NE(Src.find("const long long n = lift_sizes[0];"),
            std::string::npos);
  // Loops match the simulator's semantics: 0..count-1 regardless of
  // the NDRange kind.
  EXPECT_NE(Src.find("for (long long i = 0; i < n; ++i) {"),
            std::string::npos);
  EXPECT_NE(Src.find("out[i] = in0[i];"), std::string::npos);
}

TEST(CEmitter, OpenMpPragmaOnOutermostGlbLoopOnly) {
  Kernel K = simpleGlbKernel();
  std::string Src = emitDefault(K);
  std::size_t Pragma = Src.find("#pragma omp parallel for");
  ASSERT_NE(Pragma, std::string::npos);
  EXPECT_EQ(Src.find("#pragma omp", Pragma + 1), std::string::npos)
      << "only the root loop may carry the pragma";
  // The pragma must immediately precede the root loop.
  std::size_t Loop = Src.find("for (long long i = 0;");
  EXPECT_LT(Pragma, Loop);
}

TEST(CEmitter, OpenMpCanBeDisabled) {
  native::CEmitOptions O;
  O.OpenMP = false;
  std::string Src = native::emitC(simpleGlbKernel(), O);
  EXPECT_EQ(Src.find("#pragma omp"), std::string::npos);
}

TEST(CEmitter, NestedGlbLoopGetsNoPragma) {
  // Only the outermost Glb/Wrg loop is a parallel root; the inner one
  // stays sequential inside each thread (matching the simulator's
  // sequential per-iteration semantics).
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "nested";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global,
                       mul(N, N), false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i"), J = var("j");
  K.Body.push_back(sLoop(
      LoopKind::Glb, 0, I, N,
      {sLoop(LoopKind::Glb, 1, J, N,
             {sStore(0, add(mul(I, N), J), kConst(ir::Scalar(1.0f)))})}));
  std::string Src = emitDefault(K);
  std::size_t First = Src.find("#pragma omp parallel for");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Src.find("#pragma omp", First + 1), std::string::npos);
}

/// Glb(i) { Glb(j, Simd) { out[i*n + j] = buf[j] } }, buf being in0 or
/// (\p LoadOut) out itself: a split interior loop nested in its outer
/// grid loop.
Kernel simdInteriorKernel(bool LoadOut) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "interior";
  K.Buffers.push_back({0, "in0", ir::ScalarKind::Float, MemSpace::Global,
                       mul(N, N), true, false});
  K.Buffers.push_back({1, "out", ir::ScalarKind::Float, MemSpace::Global,
                       mul(N, N), false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i"), J = var("j");
  K.Body.push_back(sLoop(
      LoopKind::Glb, 0, I, N,
      {sLoop(LoopKind::Glb, 1, J, N,
             {sStore(1, add(mul(I, N), J), kLoad(LoadOut ? 1 : 0, J))},
             /*Unroll=*/false, /*Simd=*/true)}));
  return K;
}

TEST(CEmitter, SimdInteriorOfPureStoreStreamGetsOmpSimd) {
  Kernel K = simdInteriorKernel(/*LoadOut=*/false);
  std::string Src = emitDefault(K);
  std::size_t Par = Src.find("#pragma omp parallel for schedule");
  ASSERT_NE(Par, std::string::npos) << Src;
  std::size_t Simd = Src.find("#pragma omp simd\n");
  ASSERT_NE(Simd, std::string::npos) << Src;
  EXPECT_LT(Par, Simd);
  EXPECT_NE(Src.find("for (long long j = 0;", Simd), std::string::npos);

  native::CEmitOptions Seq;
  Seq.OpenMP = false;
  EXPECT_EQ(native::emitC(K, Seq).find("#pragma omp"), std::string::npos);
}

TEST(CEmitter, SimdInteriorLoadingItsStoreBufferGetsNoOmpSimd) {
  // out[i*n + j] = out[j]: a lane could read what another lane wrote,
  // so the loop stays scalar.
  Kernel K = simdInteriorKernel(/*LoadOut=*/true);
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_EQ(Src.find("simd"), std::string::npos) << Src;
}

TEST(CEmitter, TopLevelSimdInteriorGetsParallelForSimd) {
  Kernel K = simpleGlbKernel();
  const Stmt &L = *K.Body[0];
  K.Body[0] = sLoop(L.LK, L.Dim, L.LoopVar, L.Count, L.Body, L.Unroll,
                    /*Simd=*/true);
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("#pragma omp parallel for simd schedule(static)"),
            std::string::npos)
      << Src;
}

TEST(CEmitter, UserFunctionsAreForceInlined) {
  const stencil::Benchmark &B = stencil::findBenchmark("Jacobi2D5pt");
  stencil::BenchmarkInstance I = B.Build();
  ir::Program Low = rewrite::lowerStencil(I.P, {});
  ASSERT_TRUE(bool(Low));
  std::string Src = emitDefault(codegen::compileProgram(Low, B.Name).K);
  EXPECT_NE(Src.find("static inline __attribute__((always_inline)) float "
                     "Jacobi2D5pt_f("),
            std::string::npos)
      << Src;
}

TEST(CEmitter, RegisterSharedAcrossRootsForcesSequentialFallback) {
  // An accumulator register written under two different parallel
  // roots cannot be privatized into either; the emitter must fall
  // back to fully sequential code rather than emit a data race.
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "shared_reg";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.Registers.push_back({0, "acc", ir::ScalarKind::Float});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i"), J = var("j");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N, {sAssign(0, kConst(ir::Scalar(0.0f)))}));
  K.Body.push_back(sLoop(LoopKind::Glb, 0, J, N, {sStore(0, J, kReadVar(0))}));
  std::string Src = emitDefault(K);
  EXPECT_EQ(Src.find("#pragma omp"), std::string::npos)
      << "register live across two roots must disable parallelism";
  EXPECT_NE(Src.find("float acc = 0;"), std::string::npos);
}

TEST(CEmitter, RegisterUsedUnderOneRootIsPrivatized) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "priv_reg";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.Registers.push_back({0, "acc", ir::ScalarKind::Float});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(sLoop(LoopKind::Glb, 0, I, N,
                         {sAssign(0, kConst(ir::Scalar(2.0f))),
                          sStore(0, I, kReadVar(0))}));
  std::string Src = emitDefault(K);
  ASSERT_NE(Src.find("#pragma omp parallel for"), std::string::npos);
  // The register declaration must be *inside* the root loop body (per
  // OpenMP-thread private), i.e. after the root's opening line.
  std::size_t Loop = Src.find("for (long long i = 0;");
  std::size_t Decl = Src.find("float acc = 0;");
  ASSERT_NE(Loop, std::string::npos);
  ASSERT_NE(Decl, std::string::npos);
  EXPECT_LT(Loop, Decl);
}

TEST(CEmitter, BoundaryClampRendersThroughHelpers) {
  // clampIndex(i - 1, n) must render with lift_max/lift_min, never
  // C's truncating operators or int-typed min/max.
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "clamped";
  K.Buffers.push_back({0, "in0", ir::ScalarKind::Float, MemSpace::Global, N,
                       true, false});
  K.Buffers.push_back({1, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N,
            {sStore(1, I, kLoad(0, clampIndex(sub(I, cst(1)), N)))}));
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("lift_max(0, lift_min((-1 + n), (-1 + i)))"),
            std::string::npos)
      << Src;
}

TEST(CEmitter, FloorDivisionNeverUsesTruncatingOperators) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "divmod";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N,
            {sStore(0, add(floorDiv(I, cst(3)), floorMod(I, cst(3))),
                    kConst(ir::Scalar(1.0f)))}));
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("lift_fdiv(i, 3)"), std::string::npos) << Src;
  EXPECT_NE(Src.find("lift_fmod(i, 3)"), std::string::npos) << Src;
}

TEST(CEmitter, FloatLiteralsRoundTrip) {
  auto Lit = [](float V) {
    Kernel K;
    AExpr N = var("n", Range(1, 1 << 30));
    K.Name = "lit";
    K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global,
                         N, false, true});
    K.SizeArgs.push_back({N->getVarId(), "n"});
    AExpr I = var("i");
    K.Body.push_back(
        sLoop(LoopKind::Seq, 0, I, N, {sStore(0, I, kConst(ir::Scalar(V)))}));
    return native::emitC(K);
  };
  // %.9g round-trips every finite float; integral values still get a
  // decimal point so the literal parses as floating.
  EXPECT_NE(Lit(0.1f).find("0.100000001f"), std::string::npos);
  EXPECT_NE(Lit(1.0f).find("1.0f"), std::string::npos);
  EXPECT_NE(Lit(-1.0e30f).find("-1.00000002e+30f"), std::string::npos);
  EXPECT_NE(Lit(1.0f / 6.0f).find("0.166666672f"), std::string::npos);
}

TEST(CEmitter, LocalTileEmission) {
  // The paper's tiled+local Stencil2D: the staged tile becomes a
  // plain C array with a constant extent, zero-initialized, declared
  // inside the parallel root (one tile per OpenMP thread), and the
  // work-group barrier is elided to a comment.
  using namespace lift::stencil;
  const Benchmark &B = findBenchmark("Stencil2D");
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  ir::Program Low = rewrite::lowerStencil(I.P, O);
  ASSERT_TRUE(Low);
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  std::string Src = native::emitC(C.K);
  ASSERT_NE(Src.find("#pragma omp parallel for"), std::string::npos);
  std::size_t Root = Src.find("for (long long i0 = 0;");
  std::size_t Tile = Src.find("float lcl0[324] = {0};");
  ASSERT_NE(Root, std::string::npos) << Src;
  ASSERT_NE(Tile, std::string::npos) << Src;
  EXPECT_LT(Root, Tile) << "tile must be private to the parallel root";
  EXPECT_NE(Src.find("/* work-group barrier: implicit (loop completed) */"),
            std::string::npos);
  EXPECT_EQ(Src.find("barrier("), std::string::npos);
}

TEST(CEmitter, UnrolledSeqLoopGetsUnrollPragma) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  K.Name = "unrolled";
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(sLoop(LoopKind::Seq, 0, I, cst(3),
                         {sStore(0, I, kConst(ir::Scalar(1.0f)))},
                         /*Unroll=*/true));
  std::string Src = emitDefault(K);
  EXPECT_NE(Src.find("#pragma GCC unroll 3"), std::string::npos) << Src;
}

TEST(CEmitter, KernelNameSanitizedAndCollisionFree) {
  Kernel K = simpleGlbKernel();
  K.Name = "1bad name!";
  std::string Src = native::emitC(K);
  EXPECT_EQ(Src.find("void 1bad"), std::string::npos);
  EXPECT_NE(Src.find("void v_1bad_name_(void **lift_bufs"),
            std::string::npos)
      << Src;
}

} // namespace
