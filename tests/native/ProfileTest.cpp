//===- ProfileTest.cpp - In-kernel profiling tests -------------------------===//
//
// Part of the liftcpp project.
//
// The profiling contract, bottom to top:
//
//  * profileRegions: which loop nests become timed regions (one per
//    top-level nest; the sub-loops of a tiled kernel's work-group body
//    become separate tile-fill / compute regions).
//  * staticRegionWork: bytes/FLOP counts pinned against hand-computed
//    values for a 3-point 1D stencil, where every number is checkable
//    on paper.
//  * Bit-identity: the instrumented kernel's output is byte-for-byte
//    the output of the uninstrumented kernel — timers wrap loops, they
//    never touch per-iteration computation.
//  * runNativeProfiled/profileKernel: region seconds come back
//    non-negative and sum to roughly the total; the joined
//    obs::Profile carries the static counts.
//
//===----------------------------------------------------------------------===//

#include "native/Profiler.h"

#include "codegen/AccessAnalysis.h"
#include "codegen/CodeGen.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "native/CEmitter.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

using namespace lift;
using namespace lift::native;
using namespace lift::ocl;
using namespace lift::stencil;

namespace {

bool haveToolchain() {
  try {
    probeToolchain();
    return true;
  } catch (const NativeError &) {
    return false;
  }
}

#define REQUIRE_TOOLCHAIN()                                                  \
  if (!haveToolchain())                                                      \
  GTEST_SKIP() << "no usable host C compiler; skipping native test"

/// out[i] = add(add(in0[clamp(i-1)], in0[i]), in0[clamp(i+1)]) over a
/// Glb loop of N iterations: the smallest kernel where every static
/// count is checkable by hand. ufAddFloat costs 1 FLOP, so:
///   Iterations  = N
///   BytesRead   = 3 loads * 4 bytes * N
///   BytesWritten= 1 store * 4 bytes * N
///   Flops       = 2 adds  * 1 FLOP  * N
Kernel stencil1d3pt(AExpr &NOut) {
  Kernel K;
  AExpr N = var("n", Range(1, 1 << 30));
  NOut = N;
  K.Name = "stencil1d3pt";
  K.Buffers.push_back({0, "in0", ir::ScalarKind::Float, MemSpace::Global, N,
                       /*IsInput=*/true, /*IsOutput=*/false});
  K.Buffers.push_back({1, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       /*IsInput=*/false, /*IsOutput=*/true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  ir::UserFunPtr Add = ir::ufAddFloat();
  K.noteUserFun(Add);
  KExprPtr Sum = kCallUF(
      Add, {kCallUF(Add, {kLoad(0, clampIndex(sub(I, cst(1)), N)),
                          kLoad(0, I)}),
            kLoad(0, clampIndex(add(I, cst(1)), N))});
  K.Body.push_back(sLoop(LoopKind::Glb, 0, I, N, {sStore(1, I, Sum)}));
  return K;
}

codegen::Compiled wrap(Kernel K) {
  codegen::Compiled C;
  C.K = std::move(K);
  for (const BufferDecl &B : C.K.Buffers) {
    if (B.IsInput)
      C.InputBufferIds.push_back(B.Id);
    if (B.IsOutput)
      C.OutputBufferId = B.Id;
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Region discovery
//===----------------------------------------------------------------------===//

TEST(ProfileRegions, UntiledKernelIsOneRegion) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(I.P, {}, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  std::vector<KernelRegion> R = profileRegions(C.K);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Kind, "glb");
  EXPECT_EQ(R[0].Name.rfind("glb.", 0), 0u);
  EXPECT_EQ(R[0].Loop, C.K.Body[0].get());
}

TEST(ProfileRegions, TiledLocalKernelSplitsFillAndCompute) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  std::vector<KernelRegion> R = profileRegions(C.K);
  // Local-tile fill and the per-tile compute loop time separately; the
  // barrier between them belongs to neither.
  ASSERT_EQ(R.size(), 2u);
  EXPECT_NE(R[0].Name, R[1].Name);
  for (const KernelRegion &Reg : R) {
    ASSERT_NE(Reg.Loop, nullptr);
    EXPECT_EQ(Reg.Loop->K, Stmt::Kind::Loop);
  }
}

TEST(ProfileRegions, DuplicateLoopVarNamesAreDisambiguated) {
  Kernel K;
  AExpr N = var("n", Range(1, 1024));
  K.Buffers.push_back({0, "out", ir::ScalarKind::Float, MemSpace::Global, N,
                       false, true});
  K.SizeArgs.push_back({N->getVarId(), "n"});
  AExpr I = var("i");
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N, {sStore(0, I, kConst(ir::Scalar(1.0f)))}));
  K.Body.push_back(
      sLoop(LoopKind::Glb, 0, I, N, {sStore(0, I, kConst(ir::Scalar(2.0f)))}));
  std::vector<KernelRegion> R = profileRegions(K);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_NE(R[0].Name, R[1].Name);
}

//===----------------------------------------------------------------------===//
// Static work counts — hand-computed for the 3-point 1D stencil
//===----------------------------------------------------------------------===//

TEST(StaticRegionWork, ThreePointStencilCountsMatchHandComputation) {
  AExpr N;
  Kernel K = stencil1d3pt(N);
  const std::int64_t Elems = 1000;
  SizeEnv Sizes;
  Sizes[N->getVarId()] = Elems;
  codegen::RegionWork W =
      codegen::staticRegionWork(K, *K.Body[0], Sizes);
  EXPECT_EQ(W.Iterations, std::uint64_t(Elems));
  EXPECT_EQ(W.BytesRead, std::uint64_t(3 * 4 * Elems));
  EXPECT_EQ(W.BytesWritten, std::uint64_t(4 * Elems));
  // Two ufAddFloat applications per point, 1 FLOP each.
  EXPECT_EQ(W.Flops, std::uint64_t(2 * ir::ufAddFloat()->getFlopCost() *
                                   Elems));
}

TEST(StaticRegionWork, LocalMemoryTrafficIsNotDramTraffic) {
  // A tiled Jacobi2D: the fill region reads global and writes local
  // (write side must be 0); the compute region reads local and writes
  // global (read side must be 0). The roofline convention counts DRAM
  // only.
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  Extents E = {256, 256};
  SizeEnv Sizes = makeSizeEnv(I, E);
  std::vector<KernelRegion> R = profileRegions(C.K);
  ASSERT_EQ(R.size(), 2u);
  codegen::RegionWork Fill =
      codegen::staticRegionWork(C.K, *R[0].Loop, Sizes);
  codegen::RegionWork Compute =
      codegen::staticRegionWork(C.K, *R[1].Loop, Sizes);
  EXPECT_GT(Fill.BytesRead, 0u);
  EXPECT_EQ(Fill.BytesWritten, 0u);
  EXPECT_EQ(Compute.BytesRead, 0u);
  // Exactly one float store per output point.
  EXPECT_EQ(Compute.BytesWritten, std::uint64_t(4 * 256 * 256));
}

TEST(StaticRegionWork, FoldedTileMatchesUntiledWork) {
  // The native backend folds the tiled kernel into the grid nest it
  // tiles: one region, with the untiled kernel's name and static work,
  // since the forwarded fill reads global memory directly.
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = 16;
  O.UseLocalMem = true;
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  ir::Program Flat = rewrite::lowerStencil(I.P, {}, &WhyNot);
  ASSERT_TRUE(bool(Flat)) << WhyNot;
  codegen::Compiled U = codegen::compileProgram(Flat, B.Name);
  Kernel Folded = specializeForNative(C.K);
  Kernel Untiled = specializeForNative(U.K);
  SizeEnv Sizes = makeSizeEnv(I, {256, 256});
  std::vector<KernelRegion> Got = profileRegions(Folded);
  std::vector<KernelRegion> Want = profileRegions(Untiled);
  ASSERT_EQ(Got.size(), 1u);
  ASSERT_EQ(Want.size(), 1u);
  EXPECT_EQ(Got[0].Name, Want[0].Name);
  EXPECT_EQ(Got[0].Kind, "glb");
  codegen::RegionWork W0 = codegen::staticRegionWork(Untiled, *Want[0].Loop,
                                                     Sizes);
  codegen::RegionWork W1 = codegen::staticRegionWork(Folded, *Got[0].Loop,
                                                     Sizes);
  EXPECT_EQ(W1.Iterations, W0.Iterations);
  EXPECT_EQ(W1.BytesRead, W0.BytesRead);
  EXPECT_EQ(W1.BytesWritten, std::uint64_t(4 * 256 * 256));
  EXPECT_EQ(W1.BytesWritten, W0.BytesWritten);
  EXPECT_EQ(W1.Flops, W0.Flops);
  // The emitted profile-mode C times exactly that region.
  CEmitOptions PO;
  PO.Profile = true;
  std::string Src = emitC(Folded, PO);
  EXPECT_NE(Src.find("lift_prof[0] +="), std::string::npos);
  EXPECT_EQ(Src.find("lift_prof[1]"), std::string::npos);
}

TEST(StaticRegionWork, UnknownRegionRootIsFatal) {
  AExpr N;
  Kernel K = stencil1d3pt(N);
  SizeEnv Sizes;
  Sizes[N->getVarId()] = 16;
  AExpr I = var("i");
  StmtPtr Foreign = sLoop(LoopKind::Seq, 0, I, cst(4), {});
  EXPECT_DEATH(codegen::staticRegionWork(K, *Foreign, Sizes), "region");
}

//===----------------------------------------------------------------------===//
// Instrumented execution
//===----------------------------------------------------------------------===//

TEST(ProfiledRun, OutputBitIdenticalToUnprofiledRun) {
  REQUIRE_TOOLCHAIN();
  AExpr N;
  codegen::Compiled C = wrap(stencil1d3pt(N));
  const std::int64_t Elems = 512;
  SizeEnv Sizes;
  Sizes[N->getVarId()] = Elems;
  std::vector<std::vector<float>> Inputs(1);
  Inputs[0].resize(std::size_t(Elems));
  for (std::size_t X = 0; X != Inputs[0].size(); ++X)
    Inputs[0][X] = 0.25f * float(X) - 17.0f;

  const std::uint64_t Hash = 0x1234567ULL;
  NativeKernelPtr Plain = KernelCache::global().getOrCompile(Hash, C.K);
  NativeRunResult R = runNative(C, *Plain, Inputs, Sizes);

  ProfiledKernelRun P = profileKernel(C, Hash, Inputs, Sizes,
                                      /*Warmup=*/0, /*Repeats=*/1);
  ASSERT_EQ(P.Output.size(), R.Output.size());
  EXPECT_EQ(std::memcmp(P.Output.data(), R.Output.data(),
                        R.Output.size() * sizeof(float)),
            0)
      << "instrumentation must not perturb results";
}

TEST(ProfiledRun, BenchmarkKernelsBitIdenticalProfiledVsUnprofiled) {
  REQUIRE_TOOLCHAIN();
  for (bool Tiled : {false, true}) {
    const Benchmark &B = findBenchmark("Jacobi2D5pt");
    BenchmarkInstance I = B.Build();
    rewrite::LoweringOptions O;
    if (Tiled) {
      O.Tile = true;
      O.TileOutputs = 16;
      O.UseLocalMem = true;
    }
    std::string WhyNot;
    ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
    ASSERT_TRUE(bool(Low)) << WhyNot;
    codegen::Compiled C = codegen::compileProgram(Low, B.Name);
    Extents E = {64, 64};
    SizeEnv Sizes = makeSizeEnv(I, E);
    std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, E);
    std::uint64_t Hash = ir::structuralHash(Low);
    NativeKernelPtr Plain = KernelCache::global().getOrCompile(Hash, C.K);
    NativeRunResult R = runNative(C, *Plain, Inputs, Sizes);
    ProfiledKernelRun P =
        profileKernel(C, Hash, Inputs, Sizes, /*Warmup=*/0, /*Repeats=*/1);
    ASSERT_EQ(P.Output.size(), R.Output.size());
    EXPECT_EQ(std::memcmp(P.Output.data(), R.Output.data(),
                          R.Output.size() * sizeof(float)),
              0)
        << (Tiled ? "tiled" : "untiled");
  }
}

TEST(ProfiledRun, RegionSecondsAreSaneAndJoinedWithStaticCounts) {
  REQUIRE_TOOLCHAIN();
  AExpr N;
  codegen::Compiled C = wrap(stencil1d3pt(N));
  const std::int64_t Elems = 4096;
  SizeEnv Sizes;
  Sizes[N->getVarId()] = Elems;
  std::vector<std::vector<float>> Inputs(1);
  Inputs[0].assign(std::size_t(Elems), 1.0f);

  MachinePeaks Peaks;
  Peaks.GBPerSec = 10.0;
  Peaks.GFlopsPerSec = 5.0;
  ProfiledKernelRun P =
      profileKernel(C, /*LoweredHash=*/0xfeedULL, Inputs, Sizes,
                    /*Warmup=*/1, /*Repeats=*/3, {}, &Peaks);
  ASSERT_EQ(P.P.Regions.size(), 1u);
  const obs::ProfileRegion &R = P.P.Regions[0];
  EXPECT_GE(R.Seconds, 0.0);
  // The single region accounts for (almost) the entire kernel.
  EXPECT_LE(R.Seconds, P.P.TotalSeconds + 1e-9);
  EXPECT_EQ(R.BytesRead, std::uint64_t(3 * 4 * Elems));
  EXPECT_EQ(R.BytesWritten, std::uint64_t(4 * Elems));
  EXPECT_EQ(P.P.PeakGBPerSec, 10.0);
  EXPECT_EQ(P.P.PeakGFlopsPerSec, 5.0);
  // Output is still the right stencil: interior point = 3.0.
  EXPECT_EQ(P.Output[std::size_t(Elems / 2)], 3.0f);
}

TEST(ProfiledRun, ProfiledAbiIsRejectedByPlainEntryAccessor) {
  REQUIRE_TOOLCHAIN();
  AExpr N;
  codegen::Compiled C = wrap(stencil1d3pt(N));
  NativeOptions O;
  O.Profile = true;
  NativeKernelPtr Kern =
      KernelCache::global().getOrCompile(0xabcdULL, C.K, O);
  ASSERT_TRUE(Kern->profiled());
  EXPECT_DEATH((void)Kern->entry(), "profil");
}

TEST(ProfiledRun, EmittedSourceTimesEveryRegionOnce) {
  AExpr N;
  Kernel K = stencil1d3pt(N);
  CEmitOptions O;
  O.Profile = true;
  std::string Src = emitC(K, O);
  // One region: one accumulation slot, the timer helper, the extended
  // ABI, and no OpenMP pragma (timers are not thread-safe).
  EXPECT_NE(Src.find("double *lift_prof"), std::string::npos);
  EXPECT_NE(Src.find("lift_prof_now()"), std::string::npos);
  EXPECT_NE(Src.find("lift_prof[0] +="), std::string::npos);
  EXPECT_EQ(Src.find("lift_prof[1]"), std::string::npos);
  EXPECT_EQ(Src.find("#pragma omp"), std::string::npos);
}

} // namespace
