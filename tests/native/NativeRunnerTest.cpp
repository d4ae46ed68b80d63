//===- NativeRunnerTest.cpp - Compile/dlopen/run backend tests -------------===//
//
// Part of the liftcpp project.
//
// Exercises the native execution backend end to end (bit-identity
// against the simulator, thread-count determinism, the compiled-kernel
// cache) and each recoverable error path: compiler not found, compile
// failure with diagnostics, missing entry symbol. Also pins the temp
// hygiene contract — a private $TMPDIR is left empty after both
// successful and failing compilations.
//
//===----------------------------------------------------------------------===//

#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "native/NativeRunner.h"
#include "obs/Metrics.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace lift;
using namespace lift::native;
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

/// A benchmark lowered, compiled and ready to execute on either
/// backend at its measurement grid.
struct Built {
  codegen::Compiled C;
  std::vector<std::vector<float>> Inputs;
  ocl::SizeEnv Sizes;
  std::uint64_t LowHash = 0;
};

Built buildBench(const std::string &Name, bool Tiled) {
  const Benchmark &B = findBenchmark(Name);
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  if (Tiled) {
    O.Tile = true;
    O.TileOutputs = 16;
    O.UseLocalMem = true;
  }
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
  if (!Low)
    throw std::runtime_error("lowering failed: " + WhyNot);
  Built R;
  R.C = codegen::compileProgram(Low, B.Name);
  R.Inputs = makeBenchmarkInputs(B, B.MeasureExtents);
  R.Sizes = makeSizeEnv(I, B.MeasureExtents);
  R.LowHash = ir::structuralHash(Low);
  return R;
}

/// Bit-exact float comparison (0.0f == -0.0f and NaN != NaN under
/// operator==, so memcmp is the honest check).
bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

std::size_t countDirEntries(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return std::size_t(-1);
  std::size_t N = 0;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      ++N;
  }
  ::closedir(D);
  return N;
}

const char *TrivialEntry =
    "\nvoid tiny_entry(void **bufs, const long long *sizes, int threads)"
    " { (void)bufs; (void)sizes; (void)threads; }\n";

//===----------------------------------------------------------------------===//
// End-to-end execution
//===----------------------------------------------------------------------===//

TEST(NativeRunner, UntiledMatchesSimulatorBitExactly) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  codegen::RunResult Sim = codegen::runCompiled(B.C, B.Inputs, B.Sizes);

  NativeKernelPtr Kern = compileKernel(B.C.K);
  for (unsigned Threads : {1u, 3u}) {
    NativeRunResult NR =
        runNative(B.C, *Kern, B.Inputs, B.Sizes, Threads);
    EXPECT_TRUE(bitIdentical(NR.Output, Sim.Output))
        << "native output diverged from simulator at " << Threads
        << " thread(s)";
    EXPECT_GT(NR.Seconds, 0.0);
  }
}

TEST(NativeRunner, TiledLocalMatchesSimulatorBitExactly) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/true);
  codegen::RunResult Sim = codegen::runCompiled(B.C, B.Inputs, B.Sizes);

  NativeKernelPtr Kern = compileKernel(B.C.K);
  NativeRunResult NR =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/3);
  EXPECT_TRUE(bitIdentical(NR.Output, Sim.Output));
}

TEST(NativeRunner, WarmupAndRepeatsKeepOutputStable) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  NativeKernelPtr Kern = compileKernel(B.C.K);
  NativeRunResult Once =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/1);
  NativeRunResult Timed =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/1,
                /*Warmup=*/2, /*Repeats=*/3);
  // Re-running on the same buffers must not perturb the result (the
  // kernels read inputs and write the output; no accumulation).
  EXPECT_TRUE(bitIdentical(Timed.Output, Once.Output));
  EXPECT_GT(Timed.Seconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Kernel cache
//===----------------------------------------------------------------------===//

TEST(NativeRunner, CacheReturnsIdenticalKernelOnHit) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  KernelCache &C = KernelCache::global();
  C.clear();
  NativeKernelPtr K1 = C.getOrCompile(B.LowHash, B.C.K);
  NativeKernelPtr K2 = C.getOrCompile(B.LowHash, B.C.K);
  EXPECT_EQ(K1.get(), K2.get()) << "cache hit must share the mapping";
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.hits(), 1u);

  // Collision resolution is by emitted source, not by trusting the
  // hash: an independently built instance of the same benchmark emits
  // byte-identical C (deterministic emission), so under the same
  // bucket key it shares the compiled kernel rather than recompiling.
  Built B2 = buildBench("Stencil2D", /*Tiled=*/false);
  NativeKernelPtr K3 = C.getOrCompile(B.LowHash, B2.C.K);
  EXPECT_EQ(K3.get(), K1.get());
  EXPECT_EQ(C.hits(), 2u);
  C.clear();
}

TEST(NativeRunner, CacheKeysOnCompileFlags) {
  REQUIRE_TOOLCHAIN();
  // The compile command (compiler, opt level, ISA flag, OpenMP) is part
  // of both cache levels: the same kernel at two opt levels costs two
  // compiles, the same options twice cost one.
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  KernelCache &C = KernelCache::global();
  C.clear();
  obs::Counter &Compiles = obs::Registry::global().counter("native.compiles");
  std::uint64_t Before = Compiles.value();
  NativeOptions O2;
  NativeOptions O0;
  O0.OptLevel = 0;
  NativeKernelPtr K2 = C.getOrCompile(B.LowHash, B.C.K, O2);
  NativeKernelPtr K0 = C.getOrCompile(B.LowHash, B.C.K, O0);
  EXPECT_NE(K0.get(), K2.get()) << "-O0 request got the -O2 binary";
  EXPECT_EQ(Compiles.value() - Before, 2u);
  EXPECT_EQ(C.getOrCompile(B.LowHash, B.C.K, O0).get(), K0.get());
  EXPECT_EQ(C.getOrCompile(B.LowHash, B.C.K, O2).get(), K2.get());
  EXPECT_EQ(Compiles.value() - Before, 2u);
  NativeOptions NoOmp;
  NoOmp.OpenMP = false;
  EXPECT_NE(C.getOrCompile(B.LowHash, B.C.K, NoOmp).get(), K2.get());
  EXPECT_EQ(Compiles.value() - Before, 3u);
  EXPECT_EQ(C.misses(), 3u);
  EXPECT_EQ(C.hits(), 2u);
  C.clear();
}

TEST(NativeRunner, CompileCommandNamesEveryFlag) {
  REQUIRE_TOOLCHAIN();
  NativeOptions O;
  O.OptLevel = 1;
  std::string Cmd = compileCommand(O);
  EXPECT_EQ(Cmd.rfind(findCompiler(O), 0), 0u) << Cmd;
  for (const char *Flag : {" -O1", " -ffp-contract=off", " -fopenmp"})
    EXPECT_NE(Cmd.find(Flag), std::string::npos) << Flag << " in " << Cmd;
  O.OpenMP = false;
  EXPECT_EQ(compileCommand(O).find("-fopenmp"), std::string::npos);
}

TEST(NativeRunner, CacheSharesBinaryAcrossKernelsWithEqualFinalSource) {
  REQUIRE_TOOLCHAIN();
  // The backend specializes on a first-level miss, so a kernel and its
  // already-specialized form (a different first-level key) end in the
  // same final C and share one binary through the second level.
  Built B = buildBench("Jacobi2D5pt", /*Tiled=*/false);
  KernelCache &C = KernelCache::global();
  C.clear();
  NativeKernelPtr Generic = C.getOrCompile(B.LowHash, B.C.K);
  ocl::Kernel Spec = specializeForNative(B.C.K);
  NativeKernelPtr Pre = C.getOrCompile(B.LowHash ^ 1, Spec);
  EXPECT_EQ(Generic.get(), Pre.get());
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(Generic->source(), emitNativeC(B.C.K));
  EXPECT_EQ(Generic->source(), emitC(Spec));

  // clear() empties both levels: the same kernel compiles afresh.
  C.clear();
  NativeKernelPtr Again = C.getOrCompile(B.LowHash ^ 1, Spec);
  EXPECT_NE(Again.get(), Generic.get());
  C.clear();
}

TEST(NativeRunner, ConcurrentRequestsShareOneCompileAcrossLevels) {
  REQUIRE_TOOLCHAIN();
  // Two first-level keys, two threads each, one final source: every
  // request must get the one binary, whichever thread compiles it.
  Built B = buildBench("Jacobi2D5pt", /*Tiled=*/false);
  ocl::Kernel Spec = specializeForNative(B.C.K);
  KernelCache &C = KernelCache::global();
  C.clear();
  std::vector<NativeKernelPtr> Got(4);
  std::vector<std::thread> Threads;
  for (std::size_t T = 0; T != Got.size(); ++T)
    Threads.emplace_back([&, T] {
      Got[T] = T % 2 ? C.getOrCompile(B.LowHash ^ 1, Spec)
                     : C.getOrCompile(B.LowHash, B.C.K);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const NativeKernelPtr &K : Got)
    EXPECT_EQ(K.get(), Got[0].get());
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.hits(), 2u);
  C.clear();
}

TEST(NativeRunner, SpecializedKernelsKeepTheirProfileRegions) {
  // A split loop's three loops are one region, so the specialized form
  // of an untiled kernel keeps its regions; a tiled kernel folds into a
  // grid nest and takes the regions of the untiled kernel.
  rewrite::LoweringOptions Tiled;
  Tiled.Tile = true;
  Tiled.UseLocalMem = true;
  for (const Benchmark &Bench : allBenchmarks())
    for (const rewrite::LoweringOptions &LO : {rewrite::LoweringOptions(),
                                               Tiled}) {
      BenchmarkInstance I = Bench.Build();
      ir::Program Low = rewrite::lowerStencil(I.P, LO);
      ASSERT_TRUE(bool(Low)) << Bench.Name;
      codegen::Compiled C = codegen::compileProgram(Low, Bench.Name);
      ocl::Kernel Spec = specializeForNative(C.K);
      codegen::Compiled U = codegen::compileProgram(
          rewrite::lowerStencil(I.P, rewrite::LoweringOptions()), Bench.Name);
      std::vector<KernelRegion> Before = profileRegions(U.K);
      std::vector<KernelRegion> After = profileRegions(Spec);
      ASSERT_EQ(After.size(), Before.size()) << Bench.Name << LO.describe();
      for (std::size_t R = 0; R != Before.size(); ++R)
        EXPECT_EQ(After[R].Name, Before[R].Name)
            << Bench.Name << LO.describe();
    }
}

//===----------------------------------------------------------------------===//
// OpenMP runtime lifetime
//===----------------------------------------------------------------------===//

/// Compiles a distinct multi-threaded kernel per index, runs it on
/// four threads and drops it (dlclose), \p N times over.
void loadAndUnloadOpenMPKernels(int N) {
  for (int K = 0; K != N; ++K) {
    std::string Name = "omp_cycle_" + std::to_string(K);
    std::string Src =
        "void " + Name +
        "(void **bufs, const long long *sizes, int threads) {\n"
        "  float *out = (float *)bufs[0];\n"
        "  #pragma omp parallel for num_threads(threads)\n"
        "  for (long long i = 0; i < sizes[0]; ++i)\n"
        "    out[i] = (float)i * " +
        std::to_string(K + 1) + ".0f;\n}\n";
    std::vector<float> Out(4096);
    void *Bufs[1] = {Out.data()};
    long long Sizes[1] = {(long long)Out.size()};
    NativeKernelPtr Kern = compileCSource(Src, Name);
    Kern->entry()(Bufs, Sizes, 4);
    if (Out[4095] != 4095.0f * float(K + 1))
      std::exit(2);
  }
  // Give parked pool threads time to wake into whatever is mapped.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
}

TEST(NativeRunnerDeathTest, UnloadingOpenMPKernelsKeepsTheRuntimeMapped) {
  REQUIRE_TOOLCHAIN();
  // Kernels are dlopen()ed RTLD_LOCAL and bring the OpenMP runtime in
  // as a dependency; unloading the last one used to unmap it under its
  // parked pool threads and crash the process. The threadsafe death
  // test style re-executes the binary, so the check runs in a fresh
  // process that has not loaded the runtime yet.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        loadAndUnloadOpenMPKernels(4);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

//===----------------------------------------------------------------------===//
// Error paths (all RecoverableError subclasses; never asserts)
//===----------------------------------------------------------------------===//

TEST(NativeRunner, SymbolicTilingRefusesAxisShorterThanItsTile) {
  // Hotspot3D tiled16-local lowered without OutputExtents assumes every
  // axis holds a full 16-output tile; its 4-deep measurement grid does
  // not, and the clamped tail start min(16 * w, n - 16) would load
  // in0[-49152]. Both runners refuse the launch instead, naming the
  // axis, its extent and the tile.
  Built B = buildBench("Hotspot3D", /*Tiled=*/true);
  ASSERT_FALSE(B.C.K.MinExtents.empty());
  auto ExpectRefusal = [](const std::function<void()> &Run) {
    try {
      Run();
      ADD_FAILURE() << "launch below the tile was not refused";
    } catch (const RecoverableError &Ex) {
      std::string Msg = Ex.what();
      EXPECT_NE(Msg.find("axis d0 = 4"), std::string::npos) << Msg;
      EXPECT_NE(Msg.find("tile of 16"), std::string::npos) << Msg;
    }
  };
  ExpectRefusal([&] { codegen::runCompiled(B.C, B.Inputs, B.Sizes); });
  if (!haveToolchain())
    return;
  NativeKernelPtr Kern = compileKernel(B.C.K);
  ExpectRefusal([&] { runNative(B.C, *Kern, B.Inputs, B.Sizes); });
}

TEST(NativeRunner, ExplicitBadCompilerPathIsCompilerNotFound) {
  NativeOptions O;
  O.CompilerPath = "/nonexistent/lift-test-cc";
  EXPECT_THROW(findCompiler(O), CompilerNotFoundError);
  EXPECT_THROW(compileCSource(TrivialEntry, "tiny_entry", O),
               CompilerNotFoundError);
}

TEST(NativeRunner, CompilerNotFoundIsRecoverable) {
  NativeOptions O;
  O.CompilerPath = "/nonexistent/lift-test-cc";
  try {
    findCompiler(O);
    FAIL() << "expected CompilerNotFoundError";
  } catch (const RecoverableError &Ex) {
    EXPECT_NE(std::string(Ex.what()).find("/nonexistent/lift-test-cc"),
              std::string::npos)
        << "message should name the missing compiler";
  }
}

TEST(NativeRunner, CompileFailureCarriesDiagnosticsAndSource) {
  REQUIRE_TOOLCHAIN();
  const std::string Broken = "\nvoid broken(void) { this is not C\n";
  try {
    compileCSource(Broken, "broken");
    FAIL() << "expected CompileFailedError";
  } catch (const CompileFailedError &Ex) {
    EXPECT_FALSE(Ex.Diagnostics.empty())
        << "compiler stderr must be captured";
    EXPECT_EQ(Ex.Source, Broken)
        << "the failing source must ride along for artifacts";
    EXPECT_NE(std::string(Ex.what()).find("failed"), std::string::npos);
  }
}

TEST(NativeRunner, MissingEntrySymbolIsSymbolNotFound) {
  REQUIRE_TOOLCHAIN();
  EXPECT_THROW(compileCSource(TrivialEntry, "no_such_symbol"),
               SymbolNotFoundError);
}

TEST(NativeRunner, TempDirLeftEmptyOnSuccessAndFailure) {
  REQUIRE_TOOLCHAIN();

  // Point the backend at a private TMPDIR so this test observes only
  // its own compilations.
  char Priv[] = "/tmp/lift-native-test-XXXXXX";
  ASSERT_NE(::mkdtemp(Priv), nullptr);
  const char *OldTmp = std::getenv("TMPDIR");
  std::string Saved = OldTmp ? OldTmp : "";
  ::setenv("TMPDIR", Priv, 1);

  NativeKernelPtr Kern = compileCSource(TrivialEntry, "tiny_entry");
  EXPECT_EQ(countDirEntries(Priv), 0u)
      << "successful compile left files behind";

  EXPECT_THROW(compileCSource("\nvoid nope( {\n", "nope"),
               CompileFailedError);
  EXPECT_EQ(countDirEntries(Priv), 0u)
      << "failed compile left files behind";

  // The mapping survives the deletion of its backing file: the kernel
  // is still callable after its .so was unlinked.
  void *Bufs[1] = {nullptr};
  long long Sz[1] = {0};
  Kern->entry()(Bufs, Sz, 1);

  if (OldTmp)
    ::setenv("TMPDIR", Saved.c_str(), 1);
  else
    ::unsetenv("TMPDIR");
  ::rmdir(Priv);
}

} // namespace
