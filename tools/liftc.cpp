//===- liftc.cpp - Command-line driver for the Lift stencil compiler -------===//
//
// Part of the liftcpp project, a C++ reproduction of "High Performance
// Stencil Code Generation with Lift" (CGO 2018).
//
// A small driver exposing the pipeline on the command line:
//
//   liftc list
//   liftc show  <benchmark>
//   liftc lower <benchmark> [variant options]
//   liftc emit  <benchmark> [variant options]
//   liftc run   <benchmark> [variant options] [--extents a,b,c]
//   liftc tune  <benchmark> [--device <name>] [--large] [--jobs <n>]
//   liftc profile <benchmark> [variant options] [--extents a,b,c]
//
// Variant options: --tile <v> --local --unroll --coarsen <c>
//                  --tile-coarsen <c>
//
// Observability (every command): --trace=<file> --metrics=<file>
//                                --calibration=<file> --obs-report
//
//===----------------------------------------------------------------------===//

#include "analysis/RangeAnalysis.h"
#include "codegen/AccessAnalysis.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "ir/TypeInference.h"
#include "native/NativeRunner.h"
#include "native/Peaks.h"
#include "native/Profiler.h"
#include "obs/Obs.h"
#include "ocl/Emitter.h"
#include "rewrite/Exploration.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::stencil;
using namespace lift::rewrite;
using namespace lift::codegen;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: liftc <command> [args]\n"
      "  list                          list available benchmarks\n"
      "  show <bench>                  print the high-level Lift IR\n"
      "  lower <bench> [variant]       print the lowered (OpenCL-level) IR\n"
      "  emit <bench> [variant]        print generated OpenCL C\n"
      "  analyze <bench> [variant]     coalescing report per access\n"
      "  run <bench> [variant] [--extents a,b,c]\n"
      "                                execute on the simulator\n"
      "  tune <bench> [--device <NvidiaK20c|AmdHd7970|MaliT628>] [--large]\n"
      "               [--jobs <n>]      search the implementation space on\n"
      "                                n workers (0 = all)\n"
      "  profile <bench> [variant] [--extents a,b,c] [--json <file>]\n"
      "                                per-region timers + static work\n"
      "                                counts + roofline report (native)\n"
      "variant: --tile <v> [--local] [--tile-coarsen <c>] | --coarsen <c>;"
      " plus [--unroll]\n"
      "backend (emit/run/tune): --backend <sim|native>. native emits C,\n"
      "  compiles it with the host compiler, dlopens and executes for\n"
      "  real; 'run' then reports wall-clock time (--warmup W untimed +\n"
      "  --repeats R timed executions, fastest wins; --jobs = OpenMP\n"
      "  threads), and 'tune' ranks candidates by measured seconds\n"
      "  instead of the device model (it compiles the candidates on\n"
      "  --jobs workers, then times each distinct binary once with\n"
      "  --jobs OpenMP threads). The native backend folds every tiled\n"
      "  kernel back into the grid loops it tiles (tile fills read\n"
      "  straight from global memory, no local buffer), splits every\n"
      "  innermost grid loop into edge loops and a clamp-free,\n"
      "  vectorized interior loop, and compiles for the host ISA\n"
      "  (-march=native when the compiler accepts it)\n"
      "analysis (emit/run): --check-bounds statically proves every buffer\n"
      "  access in bounds of the kernel the backend runs (prints a\n"
      "  violation report and exits 1 otherwise; 'run' and --extents make\n"
      "  the check concrete, plain 'emit' is symbolic)\n"
      "profiling: 'profile' (or --profile on run/tune with the native\n"
      "  backend) recompiles the kernel with per-region monotonic timers\n"
      "  and reports seconds, bytes, FLOPs, GB/s, GFLOP/s and arithmetic\n"
      "  intensity per loop-nest region against STREAM-style machine\n"
      "  peaks (--no-peaks skips the probe); --json <file> writes the\n"
      "  same report as JSON\n"
      "observability (any command): --trace=<file> (Chrome trace_event\n"
      "  JSON for chrome://tracing / ui.perfetto.dev), --metrics=<file>\n"
      "  (metrics + tuner flight records as JSON), --calibration=<file>\n"
      "  (modeled-vs-measured tuner calibration as JSON), --obs-report\n");
  return 1;
}

struct Args {
  std::string Command;
  std::string Bench;
  LoweringOptions Options;
  Extents ExtentsOverride;
  std::string Device = "NvidiaK20c";
  bool Large = false;
  unsigned Jobs = 1;
  std::string Backend = "sim";
  unsigned Warmup = 1;
  unsigned Repeats = 3;
  bool CheckBounds = false;
  bool Profile = false;
  bool NoPeaks = false;
  std::string ProfileJson;
  obs::ObsOptions Obs;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc < 2)
    return false;
  A.Command = Argv[1];
  int I = 2;
  if (A.Command != "list") {
    if (I >= Argc)
      return false;
    A.Bench = Argv[I++];
  }
  for (; I < Argc; ++I) {
    std::string Opt = Argv[I];
    auto NextInt = [&](std::int64_t &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = std::atoll(Argv[++I]);
      return true;
    };
    if (obs::parseObsFlag(Argv[I], A.Obs)) {
      continue;
    } else if (Opt == "--backend" || Opt.rfind("--backend=", 0) == 0) {
      if (Opt == "--backend") {
        if (I + 1 >= Argc)
          return false;
        A.Backend = Argv[++I];
      } else {
        A.Backend = Opt.substr(std::strlen("--backend="));
      }
      if (A.Backend != "sim" && A.Backend != "native") {
        std::fprintf(stderr, "unknown backend '%s' (sim|native)\n",
                     A.Backend.c_str());
        return false;
      }
    } else if (Opt == "--warmup") {
      std::int64_t N = 0;
      if (!NextInt(N) || N < 0)
        return false;
      A.Warmup = unsigned(N);
    } else if (Opt == "--repeats") {
      std::int64_t N = 0;
      if (!NextInt(N) || N < 1)
        return false;
      A.Repeats = unsigned(N);
    } else if (Opt == "--jobs") {
      std::int64_t N = 0;
      if (!NextInt(N) || N < 0)
        return false;
      A.Jobs = unsigned(N);
    } else if (Opt == "--tile") {
      A.Options.Tile = true;
      if (!NextInt(A.Options.TileOutputs))
        return false;
    } else if (Opt == "--local") {
      A.Options.UseLocalMem = true;
    } else if (Opt == "--unroll") {
      A.Options.UnrollReduce = true;
    } else if (Opt == "--coarsen") {
      if (!NextInt(A.Options.Coarsen))
        return false;
    } else if (Opt == "--tile-coarsen") {
      if (!NextInt(A.Options.TileCoarsen))
        return false;
    } else if (Opt == "--profile") {
      A.Profile = true;
    } else if (Opt == "--no-peaks") {
      A.NoPeaks = true;
    } else if (Opt == "--json") {
      if (I + 1 >= Argc)
        return false;
      A.ProfileJson = Argv[++I];
    } else if (Opt == "--check-bounds") {
      A.CheckBounds = true;
    } else if (Opt == "--large") {
      A.Large = true;
    } else if (Opt == "--device") {
      if (I + 1 >= Argc)
        return false;
      A.Device = Argv[++I];
    } else if (Opt == "--extents") {
      if (I + 1 >= Argc)
        return false;
      std::string S = Argv[++I];
      std::size_t Pos = 0;
      while (Pos < S.size()) {
        std::size_t Comma = S.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = S.size();
        A.ExtentsOverride.push_back(
            std::atoll(S.substr(Pos, Comma - Pos).c_str()));
        Pos = Comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", Opt.c_str());
      return false;
    }
  }
  return true;
}

ocl::DeviceSpec findDevice(const std::string &Name) {
  for (const ocl::DeviceSpec &D : ocl::paperDevices())
    if (D.Name == Name)
      return D;
  std::fprintf(stderr, "unknown device %s, using NvidiaK20c\n",
               Name.c_str());
  return ocl::deviceNvidiaK20c();
}

int cmdList() {
  std::printf("%-14s %-4s %-4s %-7s %s\n", "name", "dim", "pts", "grids",
              "sizes");
  for (const Benchmark &B : allBenchmarks()) {
    std::string Sizes;
    for (std::size_t D = 0; D != B.SmallExtents.size(); ++D)
      Sizes += (D ? "x" : "") + std::to_string(B.SmallExtents[D]);
    std::printf("%-14s %-4u %-4d %-7d %s\n", B.Name.c_str(), B.Dims,
                B.Points, B.NumGrids, Sizes.c_str());
  }
  return 0;
}

ir::Program lowerOrDie(const Benchmark &B, const BenchmarkInstance &I,
                       const LoweringOptions &O) {
  std::string WhyNot;
  ir::Program Low = lowerStencil(I.P, O, &WhyNot);
  if (!Low) {
    std::fprintf(stderr,
                 "error: options '%s' do not apply to benchmark %s: %s\n",
                 O.describe().c_str(), B.Name.c_str(), WhyNot.c_str());
    std::exit(1);
  }
  return Low;
}

/// Applies --check-bounds to a compiled kernel: the kernel the backend
/// actually runs, i.e. its interior-specialized form under the native
/// backend and 'profile'. Returns false — with the violation report already printed —
/// when the check cannot discharge every access; \p Sizes null means a
/// fully symbolic check.
bool applyAnalysis(const Args &A, const Compiled &C,
                   const std::unordered_map<unsigned, std::int64_t> *Sizes) {
  if (A.CheckBounds) {
    bool Native = A.Backend == "native" || A.Command == "profile";
    std::vector<analysis::BoundsViolation> V = analysis::checkKernelBounds(
        Native ? native::specializeForNative(C.K) : C.K, Sizes);
    if (!V.empty()) {
      std::fprintf(stderr, "%s", analysis::describeViolations(V).c_str());
      std::fprintf(stderr,
                   "check-bounds: %zu access%s not provably in bounds\n",
                   V.size(), V.size() == 1 ? "" : "es");
      return false;
    }
    std::fprintf(stderr, "check-bounds: all accesses provably in bounds\n");
  }
  return true;
}

std::string extentsString(const Extents &E) {
  std::string S;
  for (std::size_t D = 0; D != E.size(); ++D)
    S += (D ? "x" : "") + std::to_string((long long)E[D]);
  return S;
}

/// Shared core of `liftc profile` and `--profile` on run/tune:
/// recompiles \p C in profile mode, executes it, joins the region
/// timers with static work counts, validates against the golden
/// implementation and renders the roofline report (text to stdout,
/// JSON to --json when given, Chrome-trace spans into --trace).
int profileCompiled(const Args &A, const Benchmark &B,
                    const BenchmarkInstance &I, const ir::Program &Low,
                    const Compiled &C, const Extents &E,
                    const std::vector<std::vector<float>> &Inputs,
                    const std::string &Variant) {
  native::ProfiledKernelRun Run;
  try {
    native::probeToolchain();
    std::size_t Hash = ir::structuralHash(Low);
    native::MachinePeaks Peaks;
    const native::MachinePeaks *PeaksPtr = nullptr;
    if (!A.NoPeaks) {
      Peaks = native::probeMachinePeaks();
      PeaksPtr = &Peaks;
    }
    Run = native::profileKernel(C, Hash, Inputs, makeSizeEnv(I, E),
                                A.Warmup, A.Repeats, {}, PeaksPtr);
  } catch (const native::NativeError &Ex) {
    std::fprintf(stderr, "error: profiling failed: %s\n", Ex.what());
    return 1;
  }
  Run.P.Variant = Variant;
  Run.P.Grid = extentsString(E);

  std::vector<float> Want = B.Golden(Inputs, E);
  double MaxErr = 0;
  for (std::size_t X = 0; X != Want.size(); ++X)
    MaxErr = std::max(MaxErr, double(std::abs(Run.Output[X] - Want[X])));

  std::printf("%s", Run.P.toText().c_str());
  std::printf("max |err| vs golden  %.3g\n", MaxErr);
  if (!A.ProfileJson.empty()) {
    std::FILE *F = std::fopen(A.ProfileJson.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   A.ProfileJson.c_str());
      return 1;
    }
    std::string Json = Run.P.toJsonString();
    std::fwrite(Json.data(), 1, Json.size(), F);
    std::fclose(F);
  }
  Run.P.emitTraceSpans();
  return MaxErr < 1e-3 ? 0 : 1;
}

int cmdProfile(const Args &A) {
  const Benchmark &B = findBenchmark(A.Bench);
  BenchmarkInstance I = B.Build();
  Extents E = A.ExtentsOverride.empty() ? B.MeasureExtents
                                        : A.ExtentsOverride;
  if (E.size() != B.Dims) {
    std::fprintf(stderr, "error: %s needs %u extents\n", B.Name.c_str(),
                 B.Dims);
    return 1;
  }
  // Lower at the concrete extents so the clamped tiling scheme can
  // clamp per-dimension tiles to short extents.
  rewrite::LoweringOptions LO = A.Options;
  LO.OutputExtents.assign(E.begin(), E.end());
  ir::Program Low = lowerOrDie(B, I, LO);
  Compiled C = compileProgram(Low, B.Name);
  auto Env = makeSizeEnv(I, E);
  if (!applyAnalysis(A, C, &Env))
    return 1;
  std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, E);
  return profileCompiled(A, B, I, Low, C, E, Inputs,
                         A.Options.describe());
}

/// run --backend native: compile the emitted C, execute for real and
/// report wall-clock time alongside the golden validation.
int cmdRunNative(const Args &A, const Benchmark &B,
                 const BenchmarkInstance &I, const ir::Program &Low,
                 const Compiled &C, const Extents &E,
                 const std::vector<std::vector<float>> &Inputs) {
  native::NativeRunResult R;
  try {
    std::size_t Hash = ir::structuralHash(Low);
    native::NativeKernelPtr Kern =
        native::KernelCache::global().getOrCompile(Hash, C.K);
    R = native::runNative(C, *Kern, Inputs, makeSizeEnv(I, E), A.Jobs,
                          A.Warmup, A.Repeats);
  } catch (const native::NativeError &Ex) {
    std::fprintf(stderr, "error: native backend failed: %s\n", Ex.what());
    return 1;
  }

  std::vector<float> Want = B.Golden(Inputs, E);
  double MaxErr = 0;
  for (std::size_t X = 0; X != Want.size(); ++X)
    MaxErr = std::max(MaxErr, double(std::abs(R.Output[X] - Want[X])));

  std::printf("variant           %s\n", A.Options.describe().c_str());
  std::printf("backend           native (%u thread%s, %u warmup + %u "
              "timed)\n",
              A.Jobs, A.Jobs == 1 ? "" : "s", A.Warmup, A.Repeats);
  std::printf("grid              ");
  for (std::size_t D = 0; D != E.size(); ++D)
    std::printf("%s%lld", D ? "x" : "", (long long)E[D]);
  std::printf(" (%lld points)\n", (long long)totalElems(E));
  std::printf("max |err| vs golden  %.3g\n", MaxErr);
  std::printf("wall time         %.3f ms (best of %u)\n", R.Seconds * 1e3,
              A.Repeats);
  std::printf("throughput        %.3f GElem/s\n",
              double(totalElems(E)) / R.Seconds / 1e9);
  int RC = MaxErr < 1e-3 ? 0 : 1;
  if (A.Profile) {
    int PRC = profileCompiled(A, B, I, Low, C, E, Inputs,
                              A.Options.describe());
    RC = RC ? RC : PRC;
  }
  return RC;
}

int cmdRun(const Args &A) {
  const Benchmark &B = findBenchmark(A.Bench);
  BenchmarkInstance I = B.Build();
  Extents E = A.ExtentsOverride.empty() ? B.MeasureExtents
                                        : A.ExtentsOverride;
  if (E.size() != B.Dims) {
    std::fprintf(stderr, "error: %s needs %u extents\n", B.Name.c_str(),
                 B.Dims);
    return 1;
  }
  // Lower at the concrete extents (see cmdProfile).
  rewrite::LoweringOptions LO = A.Options;
  LO.OutputExtents.assign(E.begin(), E.end());
  ir::Program Low = lowerOrDie(B, I, LO);
  Compiled C = compileProgram(Low, B.Name);
  auto Env = makeSizeEnv(I, E);
  if (!applyAnalysis(A, C, &Env))
    return 1;
  std::vector<std::vector<float>> Inputs = makeBenchmarkInputs(B, E);
  if (A.Backend == "native")
    return cmdRunNative(A, B, I, Low, C, E, Inputs);
  RunResult R = runCompiled(C, Inputs, Env, ocl::CacheConfig(), A.Jobs);

  // Validate against the independent golden implementation.
  std::vector<float> Want = B.Golden(Inputs, E);
  double MaxErr = 0;
  for (std::size_t X = 0; X != Want.size(); ++X)
    MaxErr = std::max(MaxErr, double(std::abs(R.Output[X] - Want[X])));

  std::printf("variant           %s\n", A.Options.describe().c_str());
  std::printf("grid              ");
  for (std::size_t D = 0; D != E.size(); ++D)
    std::printf("%s%lld", D ? "x" : "", (long long)E[D]);
  std::printf(" (%lld points)\n", (long long)totalElems(E));
  std::printf("max |err| vs golden  %.3g\n", MaxErr);
  const ocl::ExecCounters &Ct = R.Counters;
  std::printf("global loads      %llu (line misses %llu)\n",
              (unsigned long long)Ct.GlobalLoads,
              (unsigned long long)Ct.GlobalLoadLineMisses);
  std::printf("global stores     %llu\n",
              (unsigned long long)Ct.GlobalStores);
  std::printf("local accesses    %llu\n",
              (unsigned long long)(Ct.LocalLoads + Ct.LocalStores));
  std::printf("user-fun flops    %llu\n", (unsigned long long)Ct.Flops);
  std::printf("barriers          %llu\n", (unsigned long long)Ct.Barriers);
  int RC = MaxErr < 1e-3 ? 0 : 1;
  if (A.Profile) {
    // Profiling always runs through the native backend, regardless of
    // which backend executed the validation run above.
    int PRC = profileCompiled(A, B, I, Low, C, E, Inputs,
                              A.Options.describe());
    RC = RC ? RC : PRC;
  }
  return RC;
}

int cmdTune(const Args &A) {
  const Benchmark &B = findBenchmark(A.Bench);
  ocl::DeviceSpec Dev = findDevice(A.Device);
  tuner::TuningProblem P = tuner::makeProblem(B, A.Large);

  // A bounded exploration pre-pass over the rewrite space: confirms the
  // high-level program admits rewrites and surfaces the rule engine
  // (explore span, per-rule match/apply counters) in tuning traces.
  ExplorationOptions EO;
  EO.MaxDepth = 2;
  EO.MaxPrograms = 64;
  std::vector<Derivation> Ds =
      explore(P.Instance.P, stencilExplorationRules(), EO);
  std::printf("explored %zu rewrite variants of %s (depth <= %d)\n",
              Ds.size(), B.Name.c_str(), EO.MaxDepth);

  tuner::TuneOptions TO;
  TO.Jobs = A.Jobs;
  const bool Measured = A.Backend == "native";
  if (Measured) {
    TO.Obj = tuner::Objective::Measured;
    TO.MeasureThreads = A.Jobs;
    TO.MeasureWarmup = A.Warmup;
    TO.MeasureRepeats = A.Repeats;
    try {
      native::probeToolchain();
    } catch (const native::NativeError &Ex) {
      std::fprintf(stderr, "error: --backend native unavailable: %s\n",
                   Ex.what());
      return 1;
    }
  }
  tuner::TuneResult R = tuner::tuneStencil(P, Dev, tuner::liftSpace(), TO);
  std::sort(R.All.begin(), R.All.end(),
            [Measured](const tuner::Evaluated &X, const tuner::Evaluated &Y) {
              return Measured
                         ? X.MeasuredGElemsPerSec > Y.MeasuredGElemsPerSec
                         : X.GElemsPerSec > Y.GElemsPerSec;
            });
  std::printf("tuning %s on %s (target ", B.Name.c_str(), Dev.Name.c_str());
  for (std::size_t D = 0; D != P.Target.size(); ++D)
    std::printf("%s%lld", D ? "x" : "", (long long)P.Target[D]);
  if (Measured) {
    std::printf(", objective: measured wall clock)\n%-30s %14s %12s\n",
                "variant", "meas GElem/s", "model GElem/s");
    for (const tuner::Evaluated &E : R.All)
      std::printf("%-30s %14.3f %12.3f%s\n", E.C.describe().c_str(),
                  E.MeasuredGElemsPerSec, E.GElemsPerSec,
                  &E == &R.All.front() ? "   <-- best" : "");
  } else {
    std::printf(")\n%-30s %12s\n", "variant", "GElem/s");
    for (const tuner::Evaluated &E : R.All)
      std::printf("%-30s %12.3f%s\n", E.C.describe().c_str(), E.GElemsPerSec,
                  &E == &R.All.front() ? "   <-- best" : "");
  }
  std::printf("pruned %llu of %zu candidates (%s), %llu memo hits\n",
              (unsigned long long)R.Prunes.total(),
              R.All.size() + std::size_t(R.Prunes.total()),
              R.Prunes.describe().c_str(),
              (unsigned long long)R.MemoHits);
  if (A.Profile && !R.All.empty()) {
    // Profile the winning candidate on the tuning target grid.
    const tuner::Candidate &Best = R.All.front().C;
    std::printf("\nprofiling best candidate %s\n", Best.describe().c_str());
    ir::Program Low = lowerOrDie(B, P.Instance, Best.Options);
    Compiled C = compileProgram(Low, B.Name);
    std::vector<std::vector<float>> Inputs =
        makeBenchmarkInputs(B, P.Target);
    return profileCompiled(A, B, P.Instance, Low, C, P.Target, Inputs,
                           Best.describe());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage();

  obs::ObsSession Session(A.Obs);
  auto Done = [&Session](int RC) {
    int ObsRC = Session.finish();
    return RC ? RC : ObsRC;
  };

  if (A.Command == "list")
    return Done(cmdList());

  if (A.Command == "show") {
    const Benchmark &B = findBenchmark(A.Bench);
    BenchmarkInstance I = B.Build();
    ir::TypePtr T = ir::inferTypes(I.P);
    std::printf("%s\n\nresult type: %s\n", ir::toString(I.P).c_str(),
                T->toString().c_str());
    return Done(0);
  }

  if (A.Command == "lower") {
    const Benchmark &B = findBenchmark(A.Bench);
    BenchmarkInstance I = B.Build();
    ir::Program Low = lowerOrDie(B, I, A.Options);
    std::printf("%s\n", ir::toString(Low).c_str());
    return Done(0);
  }

  if (A.Command == "emit") {
    const Benchmark &B = findBenchmark(A.Bench);
    BenchmarkInstance I = B.Build();
    // With --extents the emission is concrete end to end: the lowering
    // clamps per-dimension tiles to short extents and the bounds
    // checker sees the same sizes. Without it, emission is symbolic.
    rewrite::LoweringOptions LO = A.Options;
    if (!A.ExtentsOverride.empty() && A.ExtentsOverride.size() == B.Dims)
      LO.OutputExtents.assign(A.ExtentsOverride.begin(),
                              A.ExtentsOverride.end());
    ir::Program Low = lowerOrDie(B, I, LO);
    Compiled C = compileProgram(Low, B.Name);
    std::unordered_map<unsigned, std::int64_t> Env;
    const std::unordered_map<unsigned, std::int64_t> *Sizes = nullptr;
    if (!A.ExtentsOverride.empty()) {
      if (A.ExtentsOverride.size() != B.Dims) {
        std::fprintf(stderr, "error: %s needs %u extents\n",
                     B.Name.c_str(), B.Dims);
        return Done(1);
      }
      Env = makeSizeEnv(I, A.ExtentsOverride);
      Sizes = &Env;
    }
    if (!applyAnalysis(A, C, Sizes))
      return Done(1);
    if (A.Backend == "native")
      std::printf("%s", native::emitNativeC(C.K).c_str());
    else
      std::printf("%s", ocl::emitOpenCL(C.K).c_str());
    return Done(0);
  }

  if (A.Command == "analyze") {
    const Benchmark &B = findBenchmark(A.Bench);
    BenchmarkInstance I = B.Build();
    ir::Program Low = lowerOrDie(B, I, A.Options);
    Compiled C = compileProgram(Low, B.Name);
    Extents E = A.ExtentsOverride.empty() ? B.MeasureExtents
                                          : A.ExtentsOverride;
    AccessReport R = analyzeAccesses(C.K, makeSizeEnv(I, E));
    std::printf("%-6s %-8s %-12s %8s  %s\n", "kind", "buffer", "pattern",
                "stride", "index");
    for (const AccessSite &S : R.Sites)
      std::printf("%-6s %-8s %-12s %8lld  %s\n",
                  S.IsStore ? "store" : "load", S.BufferName.c_str(),
                  accessPatternName(S.Pattern), (long long)S.Stride,
                  S.Index->toString().c_str());
    std::printf("summary: %d coalesced, %d uniform, %d strided, "
                "%d irregular, %d sequential -> %s\n",
                R.count(AccessPattern::Coalesced),
                R.count(AccessPattern::Uniform),
                R.count(AccessPattern::Strided),
                R.count(AccessPattern::Irregular),
                R.count(AccessPattern::Sequential),
                R.fullyCoalesced() ? "fully coalesced" : "NOT coalesced");
    return Done(0);
  }

  if (A.Command == "run")
    return Done(cmdRun(A));
  if (A.Command == "tune")
    return Done(cmdTune(A));
  if (A.Command == "profile")
    return Done(cmdProfile(A));

  return usage();
}
