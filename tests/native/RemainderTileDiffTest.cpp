//===- RemainderTileDiffTest.cpp - Ragged-grid tiling differential ---------===//
//
// Part of the liftcpp project.
//
// The definition of done for the remainder-tile lowering: on prime
// grid extents (no tile size divides them) the tiled + local-memory
// pipeline must agree bit for bit across
//
//   * the interpreter on the high-level program,
//   * the untiled lowering (the semantic reference),
//   * the sequential NDRange simulator,
//   * the compiled, sharded parallel simulator,
//   * both simulators on the kernel the native backend compiles (the
//     tiled nest folded into a grid nest, analysis/TileFold.h, then
//     split), and
//   * the native C backend (emit, compile, dlopen, run),
//
// for every boundary kind (clamp / mirror / wrap / constant), with and
// without local memory. A short-axis case covers the shape extent <
// tile (Hotspot3D's 4-deep z axis) where the per-dimension clamp
// shrinks the tile to the axis; grids of one, two and three tiles along
// the innermost axis, and innermost extents 16k + 1, cover a last tile
// that overlaps its neighbour by all but one output.
//
//===----------------------------------------------------------------------===//

#include "analysis/TileFold.h"
#include "codegen/Runner.h"
#include "interp/Interpreter.h"
#include "native/NativeRunner.h"
#include "rewrite/Lowering.h"
#include "stencil/StencilOps.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::ir;
using namespace lift::stencil;

namespace {

bool haveToolchain() {
  try {
    native::probeToolchain();
    return true;
  } catch (const native::NativeError &) {
    return false;
  }
}

/// A 3^n-point box-sum stencil over one grid with the given boundary,
/// on concrete extents \p Ext (outermost first), plus deterministic
/// input data. Window 3, step 1, pad 1/1 keeps output extents == Ext.
struct Fixture {
  Program P;
  std::vector<std::vector<float>> Inputs;
  ocl::SizeEnv Sizes;
};

Fixture makeFixture(Boundary B, const std::vector<std::int64_t> &Ext) {
  static const char *Names[3] = {"d0", "d1", "d2"};
  unsigned N = static_cast<unsigned>(Ext.size());
  std::vector<AExpr> SV;
  for (unsigned D = 0; D != N; ++D)
    SV.push_back(var(Names[D], Range(1, 1 << 30)));
  TypePtr T = floatT();
  for (auto It = SV.rbegin(); It != SV.rend(); ++It)
    T = arrayT(T, *It);
  ParamPtr A = param("A", T);
  ExprPtr Body =
      stencilNd(N, sumNeighborhood(N), cst(3), cst(1), cst(1), cst(1), B, A);

  Fixture F;
  F.P = makeProgram({A}, std::move(Body));
  std::int64_t Total = 1;
  for (unsigned D = 0; D != N; ++D) {
    F.Sizes[SV[D]->getVarId()] = Ext[D];
    Total *= Ext[D];
  }
  std::vector<float> In(static_cast<std::size_t>(Total));
  std::uint64_t S = 0x9E3779B97F4A7C15ull;
  for (float &V : In) {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    V = 0.25f + static_cast<float>((S >> 33) % 1024) / 1024.0f;
  }
  F.Inputs.push_back(std::move(In));
  return F;
}

bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

/// Lowers \p F untiled (reference) and tiled-with-remainder, then
/// checks every execution engine produces the reference bits.
void checkRaggedAgreement(Boundary B, const std::vector<std::int64_t> &Ext,
                          std::int64_t Tile, bool Local = true) {
  Fixture F = makeFixture(B, Ext);
  std::string What = std::string("boundary=") + B.name() + " tile=" +
                     std::to_string(Tile) + (Local ? " local" : "");

  rewrite::LoweringOptions Plain;
  ir::Program RefLow = rewrite::lowerStencil(F.P, Plain);
  ASSERT_TRUE(bool(RefLow)) << What;
  codegen::Compiled RefC = codegen::compileProgram(RefLow, "ref");
  std::vector<float> Ref =
      codegen::runCompiled(RefC, F.Inputs, F.Sizes).Output;

  interp::Value In =
      Ext.size() == 2
          ? interp::makeFloatArray2D(F.Inputs[0], std::size_t(Ext[0]),
                                     std::size_t(Ext[1]))
          : interp::makeFloatArray3D(F.Inputs[0], std::size_t(Ext[0]),
                                     std::size_t(Ext[1]),
                                     std::size_t(Ext[2]));
  std::vector<float> Interp;
  interp::flattenValue(interp::evalProgram(F.P, {In}, F.Sizes), Interp);
  EXPECT_TRUE(bitIdentical(Interp, Ref))
      << What << ": untiled reference diverged from the interpreter";

  rewrite::LoweringOptions O;
  O.Tile = true;
  O.TileOutputs = Tile;
  O.UseLocalMem = Local;
  O.OutputExtents.assign(Ext.begin(), Ext.end());
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(F.P, O, &WhyNot);
  ASSERT_TRUE(bool(Low)) << What << ": " << WhyNot;
  codegen::Compiled C = codegen::compileProgram(Low, "tiled");

  // The tree-walking reference simulator; runCompiled below always
  // runs the compiled engine.
  ocl::Executor SeqEx(C.K, F.Sizes);
  for (std::size_t I = 0; I != F.Inputs.size(); ++I)
    SeqEx.bindInput(C.InputBufferIds[I], F.Inputs[I]);
  SeqEx.run();
  std::vector<float> Seq = SeqEx.bufferContents(C.OutputBufferId);
  EXPECT_TRUE(bitIdentical(Seq, Ref))
      << What << ": tiled sequential sim diverged from untiled reference";

  std::vector<float> Par =
      codegen::runCompiled(C, F.Inputs, F.Sizes, ocl::CacheConfig(),
                           /*Jobs=*/4)
          .Output;
  EXPECT_TRUE(bitIdentical(Par, Ref))
      << What << ": parallel sim diverged from untiled reference";

  // The kernel the native backend compiles, on both simulators: the
  // tiled nest must fold, and run like the emitted C does.
  codegen::Compiled Spec = C;
  analysis::SpecStats SS;
  Spec.K = native::specializeForNative(C.K, &SS);
  EXPECT_EQ(SS.TilesFolded, 1u) << What;
  EXPECT_EQ(SS.TilesUnfolded, 0u) << What;
  ocl::Executor SpecEx(Spec.K, F.Sizes);
  for (std::size_t I = 0; I != F.Inputs.size(); ++I)
    SpecEx.bindInput(Spec.InputBufferIds[I], F.Inputs[I]);
  SpecEx.run();
  EXPECT_TRUE(bitIdentical(SpecEx.bufferContents(Spec.OutputBufferId), Ref))
      << What << ": sequential sim of the specialized kernel diverged";
  EXPECT_TRUE(bitIdentical(codegen::runCompiled(Spec, F.Inputs, F.Sizes,
                                                ocl::CacheConfig(),
                                                /*Jobs=*/4)
                               .Output,
                           Ref))
      << What << ": parallel sim of the specialized kernel diverged";

  if (!haveToolchain())
    return; // sim cross-check still ran; native needs a host compiler
  native::NativeKernelPtr Kern = native::compileKernel(C.K);
  native::NativeRunResult NR =
      native::runNative(C, *Kern, F.Inputs, F.Sizes, /*Threads=*/3);
  EXPECT_TRUE(bitIdentical(NR.Output, Ref))
      << What << ": native backend diverged from untiled reference";
}

// 53 and 47 are prime: no tile size >= 2 divides either extent, so
// every dimension ends in a remainder tile (53 = 3*16 + 5, 47 = 2*16
// + 15).

TEST(RemainderTileDiff, ClampBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::clamp(), {53, 47}, 16);
}

TEST(RemainderTileDiff, MirrorBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::mirror(), {53, 47}, 16);
}

TEST(RemainderTileDiff, WrapBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::wrap(), {53, 47}, 16);
}

TEST(RemainderTileDiff, ConstantBoundaryPrimeGrid) {
  checkRaggedAgreement(Boundary::constant(0.75f), {53, 47}, 16);
}

// Extent smaller than the tile (Hotspot3D's 4-deep z axis under tile
// 16): the per-dimension clamp issues one full-width tile for the
// short axis instead of refusing the configuration.
TEST(RemainderTileDiff, ShortAxisTileWiderThanExtent) {
  checkRaggedAgreement(Boundary::clamp(), {5, 47}, 16);
}

// One, two and three 16-wide tiles along the innermost axis (extents
// 16, 29 and 33): the folded grid loop must cover exactly the outputs
// the overlapping tiles wrote.
TEST(RemainderTileDiff, OneTwoThreeTilesAlongInnermostAxis) {
  for (std::int64_t Inner : {16, 29, 33})
    for (Boundary B : {Boundary::clamp(), Boundary::mirror(), Boundary::wrap(),
                       Boundary::constant(0.75f)})
      checkRaggedAgreement(B, {21, Inner}, 16);
}

// Innermost extents 16k + 1 (the last tile starts one output after its
// neighbour) and a prime, with and without local memory: the fold
// forwards fills and folds tiles alike for both.
TEST(RemainderTileDiff, FoldedTilesOnRaggedInnermostExtents) {
  for (std::int64_t Inner : {17, 49, 61})
    for (Boundary B : {Boundary::clamp(), Boundary::mirror(), Boundary::wrap(),
                       Boundary::constant(0.75f)})
      for (bool Local : {false, true})
        checkRaggedAgreement(B, {19, Inner}, 16, Local);
  checkRaggedAgreement(Boundary::mirror(), {5, 11, 33}, 16, /*Local=*/true);
}

// A ragged 3D grid exercises the transpose-reordering path of the
// per-dimension clamped slide in all three dimensions at once.
TEST(RemainderTileDiff, ThreeDimensionalPrimeGrid) {
  checkRaggedAgreement(Boundary::clamp(), {7, 13, 19}, 8);
}

} // namespace
