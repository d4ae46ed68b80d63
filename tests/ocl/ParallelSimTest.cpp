//===- ParallelSimTest.cpp - Parallel-vs-sequential simulator equivalence -===//
//
// Part of the liftcpp project.
//
// The compiled, sharded ParallelExecutor -- the engine behind
// codegen::runCompiled and so behind the tuner -- promises
// *bit-identical* counters and outputs to the sequential tree-walking
// Executor, the reference oracle, for any thread count (see
// ParallelSim.h for the merge contract). These tests hold it to that
// promise field-for-field on every paper benchmark, untiled and
// tiled16-local (plus a few extra tilings), at jobs 1, 2 and 8; under
// the default cache, the tuner's scaled cache and a direct-mapped one;
// and on hand-built kernels that probe the index-program cache.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "ocl/ParallelSim.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace lift;
using namespace lift::ocl;
using namespace lift::stencil;

namespace {

void expectCountersEqual(const ExecCounters &A, const ExecCounters &B,
                         const std::string &What) {
  EXPECT_EQ(A.GlobalLoads, B.GlobalLoads) << What;
  EXPECT_EQ(A.GlobalStores, B.GlobalStores) << What;
  EXPECT_EQ(A.GlobalLoadLineMisses, B.GlobalLoadLineMisses) << What;
  EXPECT_EQ(A.LocalLoads, B.LocalLoads) << What;
  EXPECT_EQ(A.LocalStores, B.LocalStores) << What;
  EXPECT_EQ(A.PrivateAccesses, B.PrivateAccesses) << What;
  EXPECT_EQ(A.Flops, B.Flops) << What;
  EXPECT_EQ(A.UserFunCalls, B.UserFunCalls) << What;
  EXPECT_EQ(A.LoopIterations, B.LoopIterations) << What;
  EXPECT_EQ(A.Barriers, B.Barriers) << What;
  EXPECT_EQ(A.SelectEvals, B.SelectEvals) << What;
}

/// The cache geometry a case is simulated with.
enum class Geometry {
  Default, ///< CacheConfig(): 1.25 MB, 4-way, 320 sets
  /// What the tuner simulates: the K20c cache scaled from the small
  /// target down to the measurement grid (80 sets of 4 ways for
  /// Jacobi2D5pt at 128^2), so sets conflict often.
  Tuner,
  DirectMapped, ///< the Tuner geometry with Ways = 1
};

/// One benchmark configuration the engines are compared on.
struct SimCase {
  const char *Bench;
  bool Tile = false;
  std::int64_t TileOutputs = 16;
  bool Local = false;
  bool Unroll = false;
  /// Lower at the measurement grid (OutputExtents), as the tuner does;
  /// otherwise at symbolic extents, where a tiling keeps clamped tails
  /// in size variables.
  bool Concrete = false;
  Geometry Cache = Geometry::Default;
  std::int64_t TileCoarsen = 1;
};

rewrite::LoweringOptions loweringOptions(const SimCase &Case) {
  rewrite::LoweringOptions O;
  O.Tile = Case.Tile;
  O.TileOutputs = Case.TileOutputs;
  O.UseLocalMem = Case.Local;
  O.UnrollReduce = Case.Unroll;
  O.TileCoarsen = Case.TileCoarsen;
  return O;
}

CacheConfig cacheFor(const SimCase &Case, const Benchmark &B) {
  if (Case.Cache == Geometry::Default)
    return CacheConfig();
  CacheConfig C = tuner::scaledCache(deviceNvidiaK20c().Cache,
                                     B.MeasureExtents, B.SmallExtents);
  if (Case.Cache == Geometry::DirectMapped)
    C.Ways = 1;
  return C;
}

const char *geometryName(Geometry G) {
  switch (G) {
  case Geometry::Default:
    return "";
  case Geometry::Tuner:
    return "_tuner_cache";
  case Geometry::DirectMapped:
    return "_direct_mapped";
  }
  return "";
}

/// Runs \p K on the reference Executor and on the ParallelExecutor at
/// jobs 1, 2 and 8, and asserts equal counters and equal \p Output.
void expectEnginesAgree(const Kernel &K, const SizeEnv &Sizes,
                        const CacheConfig &Cache,
                        const std::vector<std::pair<int, std::vector<float>>>
                            &Inputs,
                        int Output, const std::string &Name) {
  Executor Seq(K, Sizes, Cache);
  for (const auto &In : Inputs)
    Seq.bindInput(In.first, In.second);
  Seq.run();
  std::vector<float> SeqOut = Seq.bufferContents(Output);

  for (unsigned Jobs : {1u, 2u, 8u}) {
    ParallelExecutor Par(K, Sizes, Cache, Jobs);
    for (const auto &In : Inputs)
      Par.bindInput(In.first, In.second);
    Par.run();

    std::string What = Name + " jobs=" + std::to_string(Jobs);
    expectCountersEqual(Seq.counters(), Par.counters(), What);

    std::vector<float> ParOut = Par.bufferContents(Output);
    ASSERT_EQ(SeqOut.size(), ParOut.size()) << What;
    for (std::size_t X = 0; X != SeqOut.size(); ++X)
      ASSERT_EQ(SeqOut[X], ParOut[X]) << What << ", element " << X;
  }
}

/// Lowers one benchmark configuration, runs the sequential Executor and
/// the ParallelExecutor at jobs 1/2/8, and asserts exact equivalence of
/// every counter field and every output element.
class ParallelSim : public ::testing::TestWithParam<SimCase> {};

TEST_P(ParallelSim, MatchesSequentialExecutor) {
  const SimCase &Case = GetParam();
  const Benchmark &B = findBenchmark(Case.Bench);
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O = loweringOptions(Case);
  if (Case.Concrete)
    O.OutputExtents.assign(B.MeasureExtents.begin(), B.MeasureExtents.end());
  ir::Program Low = rewrite::lowerStencil(I.P, O);
  ASSERT_TRUE(Low) << Case.Bench << ": lowering failed";

  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  auto Sizes = makeSizeEnv(I, B.MeasureExtents);
  auto Inputs = makeBenchmarkInputs(B, B.MeasureExtents);
  std::vector<std::pair<int, std::vector<float>>> Bound;
  for (std::size_t X = 0; X != Inputs.size(); ++X)
    Bound.emplace_back(C.InputBufferIds[X], Inputs[X]);
  expectEnginesAgree(C.K, Sizes, cacheFor(Case, B), Bound, C.OutputBufferId,
                     std::string(Case.Bench) + "/" + O.describe() +
                         geometryName(Case.Cache));
}

/// Every paper benchmark untiled, and tiled16-local both at the
/// measurement grid and -- where no axis of that grid is shorter than
/// the tile, which only a concrete extent can clamp -- at symbolic
/// extents. Plus, at symbolic extents, the tilings the suite pinned
/// before: tiled16-local with unrolled reductions, tile 8 on a
/// 13-point 3D stencil, and global-memory tiling of a two-input (zip)
/// stencil.
std::vector<SimCase> simCases() {
  std::vector<SimCase> Cases;
  for (const Benchmark &B : allBenchmarks()) {
    Cases.push_back({B.Name.c_str()});
    SimCase Tiled{B.Name.c_str(), /*Tile=*/true, 16, /*Local=*/true};
    if (std::all_of(B.MeasureExtents.begin(), B.MeasureExtents.end(),
                    [](std::int64_t E) { return E >= 16; }))
      Cases.push_back(Tiled);
    Tiled.Concrete = true;
    Cases.push_back(Tiled);
  }
  Cases.push_back({"Jacobi2D5pt", true, 16, true, /*Unroll=*/true});
  Cases.push_back({"Jacobi3D13pt", true, 8, true});
  Cases.push_back({"Hotspot2D", true, 16, false});

  // What the tuner simulates: the scaled cache (set conflicts for the
  // trace filter to survive), a direct-mapped variant of it, and the
  // tiledN-coarsenN tilings, all at the measurement grid.
  for (Geometry G : {Geometry::Tuner, Geometry::DirectMapped}) {
    for (const char *Name : {"Jacobi2D5pt", "Jacobi2D9pt", "Hotspot3D"}) {
      SimCase Untiled{Name};
      Untiled.Concrete = true;
      Untiled.Cache = G;
      Cases.push_back(Untiled);
      SimCase Tiled{Name, /*Tile=*/true, 8, /*Local=*/true};
      Tiled.Concrete = true;
      Tiled.Cache = G;
      Cases.push_back(Tiled);
    }
  }
  for (auto [Name, Tile, Coarsen, Local] :
       {std::tuple{"Jacobi2D5pt", 16, 4, true},
        std::tuple{"Jacobi2D9pt", 32, 8, true},
        std::tuple{"Poisson", 16, 16, false},
        std::tuple{"Hotspot3D", 8, 2, true}}) {
    SimCase Coarse{Name, /*Tile=*/true, Tile, Local};
    Coarse.Concrete = true;
    Coarse.Cache = Geometry::Tuner;
    Coarse.TileCoarsen = Coarsen;
    Cases.push_back(Coarse);
  }
  return Cases;
}

void PrintTo(const SimCase &Case, std::ostream *OS) {
  *OS << Case.Bench << "/" << loweringOptions(Case).describe()
      << (Case.Concrete ? " at the measurement grid" : "")
      << geometryName(Case.Cache);
}

std::string caseName(const ::testing::TestParamInfo<SimCase> &Info) {
  std::string Name = std::string(Info.param.Bench) + "_" +
                     loweringOptions(Info.param).describe() +
                     (Info.param.Concrete ? "_measure_grid" : "") +
                     geometryName(Info.param.Cache);
  std::replace(Name.begin(), Name.end(), '-', '_');
  return Name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParallelSim,
                         ::testing::ValuesIn(simCases()), caseName);

BufferDecl globalBuffer(int Id, const char *Name, const AExpr &NumElems) {
  BufferDecl B;
  B.Id = Id;
  B.Name = Name;
  B.Space = MemSpace::Global;
  B.NumElems = NumElems;
  return B;
}

/// out[i] = in[i + j] over a parallel nest whose inner level j has
/// extent 1: j's value never changes, but the cached i + j is keyed on
/// j (the deepest slot it reads), so every move of i must re-stamp j.
/// A second nest, over its own variables, reads the first one's output
/// in reverse the same way.
TEST(ParallelSimCache, ExtentOneInnerRegionLevel) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  AExpr J = var("j", Range(0, 1 << 30));
  AExpr W = var("w", Range(0, 1 << 30));
  AExpr L = var("l", Range(0, 1 << 30));
  Kernel K;
  K.Name = "extent_one";
  K.Buffers.push_back(globalBuffer(0, "in0", N));
  K.Buffers.push_back(globalBuffer(1, "out", N));
  K.SizeArgs.emplace_back(N->getVarId(), "n");
  K.Body.push_back(sLoop(LoopKind::Glb, 1, I, N,
                         {sLoop(LoopKind::Glb, 0, J, cst(1),
                                {sStore(1, add(I, J),
                                        kLoad(0, add(I, J)))})}));
  AExpr Mirror = sub(sub(N, cst(1)), add(W, L));
  K.Body.push_back(sLoop(
      LoopKind::Wrg, 1, W, N,
      {sLoop(LoopKind::Wrg, 0, L, cst(1),
             {sStore(1, Mirror,
                     kCallUF(ir::ufAddFloat(),
                             {kLoad(1, Mirror), kLoad(0, add(W, L))}))})}));
  std::vector<float> In(37);
  for (std::size_t X = 0; X != In.size(); ++X)
    In[X] = float(X * X % 11);
  SizeEnv Sizes{{N->getVarId(), std::int64_t(In.size())}};
  expectEnginesAgree(K, Sizes, CacheConfig{16, 16 * 2 * 3, 2}, {{0, In}}, 1,
                     "extent-1 inner level");
}

/// The cache statistics account for every access: each global load is
/// either traced or filtered as a repeat, and both caches do work on a
/// plain stencil.
TEST(ParallelSimCache, StatsAccountForEveryGlobalLoad) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  BenchmarkInstance I = B.Build();
  ir::Program Low = rewrite::lowerStencil(I.P, rewrite::LoweringOptions());
  codegen::Compiled C = codegen::compileProgram(Low, B.Name);
  auto Sizes = makeSizeEnv(I, B.MeasureExtents);
  auto Inputs = makeBenchmarkInputs(B, B.MeasureExtents);
  for (unsigned Jobs : {1u, 2u, 8u}) {
    ParallelExecutor Par(C.K, Sizes, CacheConfig(), Jobs);
    for (std::size_t X = 0; X != Inputs.size(); ++X)
      Par.bindInput(C.InputBufferIds[X], Inputs[X]);
    Par.run();
    const ParallelExecutor::CacheStats &St = Par.stats();
    EXPECT_EQ(St.TraceLines + St.TraceFiltered, Par.counters().GlobalLoads)
        << "jobs=" << Jobs;
    EXPECT_GT(St.TraceFiltered, 0u) << "jobs=" << Jobs;
    EXPECT_GT(St.IndexReused, 0u) << "jobs=" << Jobs;
    EXPECT_GT(St.IndexEvals, 0u) << "jobs=" << Jobs;
  }
}

/// Reading a loop variable after its loop has ended must stop the
/// simulation even when the same index was cached inside the loop.
TEST(ParallelSimCacheDeathTest, LoopVariableReadAfterItsLoop) {
  AExpr N = var("n", Range(1, 1 << 30));
  AExpr I = var("i", Range(0, 1 << 30));
  AExpr J = var("j", Range(0, 1 << 30));
  SizeEnv Sizes{{N->getVarId(), 8}};
  auto MakeKernel = [&](bool InRegion) {
    Kernel K;
    K.Name = "stale_read";
    K.Buffers.push_back(globalBuffer(0, "in0", N));
    K.Buffers.push_back(globalBuffer(1, "out", N));
    K.SizeArgs.emplace_back(N->getVarId(), "n");
    std::vector<StmtPtr> Body{
        sLoop(LoopKind::Seq, 0, J, N, {sStore(1, J, kLoad(0, J))}),
        sStore(1, cst(0), kLoad(0, J))};
    if (InRegion)
      Body = {sLoop(LoopKind::Glb, 0, I, N, std::move(Body))};
    K.Body = std::move(Body);
    return K;
  };
  for (bool InRegion : {false, true}) {
    Kernel K = MakeKernel(InRegion);
    EXPECT_DEATH(
        {
          Executor Ex(K, Sizes);
          Ex.run();
        },
        "unbound variable 'j'");
    for (unsigned Jobs : {1u, 2u, 8u})
      EXPECT_DEATH(
          {
            ParallelExecutor Ex(K, Sizes, CacheConfig(), Jobs);
            Ex.run();
          },
          "unbound variable 'j'")
          << (InRegion ? "in a region" : "at the top level")
          << " jobs=" << Jobs;
  }
}

} // namespace
