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
// tiled16-local (plus a few extra tilings), at jobs 1, 2 and 8.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "ocl/ParallelSim.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>

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
};

rewrite::LoweringOptions loweringOptions(const SimCase &Case) {
  rewrite::LoweringOptions O;
  O.Tile = Case.Tile;
  O.TileOutputs = Case.TileOutputs;
  O.UseLocalMem = Case.Local;
  O.UnrollReduce = Case.Unroll;
  return O;
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
  CacheConfig Cache; // default geometry, same for both engines

  Executor Seq(C.K, Sizes, Cache);
  for (std::size_t X = 0; X != Inputs.size(); ++X)
    Seq.bindInput(C.InputBufferIds[X], Inputs[X]);
  Seq.run();
  std::vector<float> SeqOut = Seq.bufferContents(C.OutputBufferId);

  for (unsigned Jobs : {1u, 2u, 8u}) {
    ParallelExecutor Par(C.K, Sizes, Cache, Jobs);
    for (std::size_t X = 0; X != Inputs.size(); ++X)
      Par.bindInput(C.InputBufferIds[X], Inputs[X]);
    Par.run();

    std::string What = std::string(Case.Bench) + "/" + O.describe() +
                       " jobs=" + std::to_string(Jobs);
    expectCountersEqual(Seq.counters(), Par.counters(), What);

    std::vector<float> ParOut = Par.bufferContents(C.OutputBufferId);
    ASSERT_EQ(SeqOut.size(), ParOut.size()) << What;
    for (std::size_t X = 0; X != SeqOut.size(); ++X)
      ASSERT_EQ(SeqOut[X], ParOut[X]) << What << ", element " << X;
  }
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
  return Cases;
}

void PrintTo(const SimCase &Case, std::ostream *OS) {
  *OS << Case.Bench << "/" << loweringOptions(Case).describe()
      << (Case.Concrete ? " at the measurement grid" : "");
}

std::string caseName(const ::testing::TestParamInfo<SimCase> &Info) {
  std::string Name = std::string(Info.param.Bench) + "_" +
                     loweringOptions(Info.param).describe() +
                     (Info.param.Concrete ? "_measure_grid" : "");
  std::replace(Name.begin(), Name.end(), '-', '_');
  return Name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParallelSim,
                         ::testing::ValuesIn(simCases()), caseName);

} // namespace
