//===- perfbench.cpp - The repository benchmark ---------------------------===//
//
// Part of the liftcpp project.
//
// Drives the stencil pipeline from outside, through the public entry
// point of each layer, and reports end-to-end and per-layer metrics
// for one workload per process:
//
//   modeled-sweep   tuneStencil(Objective::Modeled) over liftSpace() on
//                   NvidiaK20c for all 14 benchmarks, Jobs = nproc (<= 4),
//                   each problem tuned twice in a row per pass; the tuned
//                   Jacobi2D5pt and Jacobi3D7pt winners run natively at
//                   their target grids between passes.
//   target-run      19 fixed kernels executed natively at the paper's
//                   target grids on one thread: {global,
//                   global+specializeInterior, tiled16-local} x six
//                   benchmarks, plus iterate(8, Jacobi2D5pt step) at
//                   4096^2 lowered untiled.
//
// Every executed output is compared with the benchmark's independent
// straight-loop Benchmark::Golden (applied T times for iterate).
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See perfbench/README.md for the metric definitions.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--smoke]
//
//===----------------------------------------------------------------------===//

#include "analysis/InteriorSpec.h"
#include "codegen/CodeGen.h"
#include "ir/StructuralHash.h"
#include "native/NativeRunner.h"
#include "native/Peaks.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "ocl/Device.h"
#include "rewrite/Exploration.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "support/ThreadPool.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace lift;
using namespace lift::stencil;
using namespace lift::tuner;
namespace fs = std::filesystem;
namespace json = lift::obs::json;

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point T0) {
  return std::chrono::duration<double>(SteadyClock::now() - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

std::string gridName(const Extents &E) {
  std::string S;
  for (std::size_t I = 0; I != E.size(); ++I)
    S += (I ? "x" : "") + std::to_string(E[I]);
  return S;
}

std::string firstLineOf(const std::string &Command) {
  std::string Out;
  if (std::FILE *P = ::popen((Command + " 2>/dev/null").c_str(), "r")) {
    char Buf[512];
    if (std::fgets(Buf, sizeof(Buf), P))
      Out = Buf;
    ::pclose(P);
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out;
}

std::string cpuModel() {
  std::ifstream IS("/proc/cpuinfo");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("model name", 0) == 0) {
      std::size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(" \t", Colon + 1));
    }
  return "unknown";
}

/// Size in bytes of the highest-level CPU cache, read from sysfs; 0 when
/// unavailable.
std::int64_t lastLevelCacheBytes() {
  int BestLevel = -1;
  std::int64_t Bytes = 0;
  fs::path Dir = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    if (E.path().filename().string().rfind("index", 0) != 0)
      continue;
    int Level = -1;
    std::string Size;
    std::ifstream(E.path() / "level") >> Level;
    std::ifstream(E.path() / "size") >> Size;
    if (Size.empty() || Level <= BestLevel)
      continue;
    std::int64_t V = std::atoll(Size.c_str());
    char Unit = Size.back();
    if (Unit == 'K')
      V <<= 10;
    else if (Unit == 'M')
      V <<= 20;
    BestLevel = Level;
    Bytes = V;
  }
  return Bytes;
}

/// The CPUs the process may run on, read before any pinning.
const std::vector<int> &allowedCpus() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> V;
    cpu_set_t Set;
    if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          V.push_back(C);
    return V;
  }();
  return Cpus;
}

/// Pins the calling thread, and the threads and processes it starts
/// later, to \p Cpu, or lets it run on every allowed CPU again when
/// \p Cpu is negative.
void pinThread(int Cpu) {
  if (allowedCpus().empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (Cpu >= 0)
    CPU_SET(Cpu, &Set);
  else
    for (int C : allowedCpus())
      CPU_SET(C, &Set);
  ::sched_setaffinity(0, sizeof(Set), &Set);
}

/// Peak resident set size of this process so far, in MiB.
double peakRssMb() {
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

//===----------------------------------------------------------------------===//
// Correctness accounting
//===----------------------------------------------------------------------===//

/// Counts operations (tuning sweeps, kernel compiles, kernel executions)
/// and the ones that failed: golden mismatches, NativeErrors, candidates
/// pruned because the native backend failed.
struct Outcome {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few messages

  void ok() { ++Attempted; }
  void fail(const std::string &What) {
    ++Attempted;
    ++Failed;
    if (Failures.size() < 16)
      Failures.push_back(What);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
  }
};

/// Maximum absolute error against the golden output (infinity on a
/// size mismatch).
double maxAbsError(const std::vector<float> &Got,
                   const std::vector<float> &Want) {
  if (Got.size() != Want.size())
    return INFINITY;
  double M = 0;
  for (std::size_t I = 0; I != Want.size(); ++I)
    M = std::max(M, double(std::fabs(Got[I] - Want[I])));
  return M;
}

/// The tolerance the repository's harnesses use against Golden.
constexpr double GoldenTolerance = 1e-3;

void checkOutput(Outcome &Out, const std::string &What,
                 const std::vector<float> &Got,
                 const std::vector<float> &Want) {
  double Err = maxAbsError(Got, Want);
  if (Err < GoldenTolerance)
    Out.ok();
  else
    Out.fail(What + ": golden mismatch (max |err| " + std::to_string(Err) +
             ")");
}

//===----------------------------------------------------------------------===//
// Private temporary directories
//===----------------------------------------------------------------------===//

/// Points $TMPDIR (used by the native backend and by the host compiler
/// it spawns) at a fresh directory under the work directory, so no
/// on-disk state carries over between cold sweeps or between runs.
class PrivateTmp {
public:
  explicit PrivateTmp(const fs::path &WorkDir) {
    static unsigned Seq = 0;
    Dir = WorkDir / ("tmp-" + std::to_string(::getpid()) + "-" +
                     std::to_string(Seq++));
    fs::create_directories(Dir);
    if (const char *Old = std::getenv("TMPDIR"))
      Previous = Old;
    ::setenv("TMPDIR", Dir.c_str(), 1);
  }
  ~PrivateTmp() {
    if (Previous.empty())
      ::unsetenv("TMPDIR");
    else
      ::setenv("TMPDIR", Previous.c_str(), 1);
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  PrivateTmp(const PrivateTmp &) = delete;
  PrivateTmp &operator=(const PrivateTmp &) = delete;

private:
  fs::path Dir;
  std::string Previous;
};

//===----------------------------------------------------------------------===//
// Tracing: benchmark-side spans plus harvesting of the program's spans
//===----------------------------------------------------------------------===//

/// A span recorded from the benchmark's own code around a call into a
/// layer's public entry point (category "perfbench").
struct BenchSpan : obs::Span {
  explicit BenchSpan(const char *Name) : obs::Span(Name, "perfbench") {}
};

/// Per-span-name totals of one phase of the run.
struct SpanTotals {
  struct Sum {
    double Ms = 0;
    std::uint64_t Count = 0;
  };
  std::map<std::string, Sum> ByName;

  double ms(const std::string &N) const {
    auto It = ByName.find(N);
    return It == ByName.end() ? 0 : It->second.Ms;
  }
  std::uint64_t count(const std::string &N) const {
    auto It = ByName.find(N);
    return It == ByName.end() ? 0 : It->second.Count;
  }
};

/// Collects the program's and the benchmark's spans phase by phase.
/// Tracer::enable() drops earlier events, so each traced segment is
/// exported and folded into the totals of its phase when it ends; the
/// events of all segments are also kept (shifted onto one time line)
/// for the run's Chrome trace file.
class TraceHarvester {
public:
  explicit TraceHarvester(bool On) : On(On), Start(SteadyClock::now()) {}

  bool on() const { return On; }

  /// Starts a traced segment.
  void begin() {
    if (!On)
      return;
    SegmentStartUs = secondsSince(Start) * 1e6;
    obs::Tracer::global().enable();
  }

  /// Ends the current segment and adds its spans to phase \p Phase.
  void end(const std::string &Phase) {
    if (!On)
      return;
    obs::Tracer &T = obs::Tracer::global();
    T.disable();
    json::Value Doc;
    std::string Err;
    if (!json::parse(T.exportChromeJson(), Doc, &Err)) {
      std::fprintf(stderr, "perfbench: cannot parse trace: %s\n",
                   Err.c_str());
      ParseErrors++;
      return;
    }
    T.clear();
    SpanTotals &Tot = Phases[Phase];
    const json::Value *Events = Doc.find("traceEvents");
    if (!Events)
      return;
    for (const json::Value &E : Events->array()) {
      const json::Value *Ph = E.find("ph");
      if (!Ph || Ph->asString() != "X")
        continue;
      const std::string &Name = E.find("name")->asString();
      SpanTotals::Sum &S = Tot.ByName[Name];
      S.Ms += E.find("dur")->asNumber() * 1e-3;
      S.Count++;
      // Re-serialize with the timestamp moved onto the run's time line.
      json::Value Copy = json::Value::makeObject();
      for (const auto &KV : E.object())
        Copy.set(KV.first,
                 KV.first == "ts"
                     ? json::Value::number(KV.second.asNumber() +
                                           SegmentStartUs)
                     : KV.second);
      AllEvents.push_back(Copy.serialize());
    }
  }

  const SpanTotals &phase(const std::string &P) const {
    static const SpanTotals Empty;
    auto It = Phases.find(P);
    return It == Phases.end() ? Empty : It->second;
  }

  bool writeChromeTrace(const fs::path &Path) const {
    std::ofstream OS(Path);
    if (!OS)
      return false;
    OS << "{\"traceEvents\":[\n";
    for (std::size_t I = 0; I != AllEvents.size(); ++I)
      OS << AllEvents[I] << (I + 1 == AllEvents.size() ? "\n" : ",\n");
    OS << "],\"displayTimeUnit\":\"ms\"}\n";
    return bool(OS);
  }

  unsigned ParseErrors = 0;

private:
  bool On;
  SteadyClock::time_point Start;
  double SegmentStartUs = 0;
  std::map<std::string, SpanTotals> Phases;
  std::vector<std::string> AllEvents;
};

//===----------------------------------------------------------------------===//
// Shared kernel plumbing
//===----------------------------------------------------------------------===//

/// Distinguishes interior-specialized kernels from their generic source
/// lowering in the kernel cache (the same convention as liftc and
/// bench_native_backend).
constexpr std::uint64_t SpecializedHashSalt = 0xA5A5A5A5A5A5A5A5ULL;

/// One kernel of a workload: the recipe that prepares it from its spec,
/// and its executions at a concrete grid.
struct ReadyKernel {
  std::string Label; ///< "Jacobi2D5pt/tiled16-local"
  const Benchmark *B = nullptr;
  const ir::Program *Spec = nullptr; ///< the high-level program
  rewrite::LoweringOptions LO;
  bool Specialize = false; ///< apply analysis::specializeInterior
  Extents Grid;
  double ElemsPerRun = 0; ///< grid points x time steps
  codegen::Compiled C;
  native::NativeKernelPtr Kern;
  ocl::SizeEnv Env;
  const std::vector<std::vector<float>> *Inputs = nullptr;
  const std::vector<float> *Want = nullptr;
  double ComputedBytes = 0; ///< compulsory DRAM traffic of one run
  double IOBytes = 0;       ///< inputs plus output
  double TempBytes = 0;     ///< materialized global temporaries
  std::vector<double> Seconds; ///< one entry per runNative call
};

/// Bytes of global buffers that are neither inputs nor the output.
double temporaryBytes(const codegen::Compiled &C, const ocl::SizeEnv &Env) {
  double Bytes = 0;
  for (const ocl::BufferDecl &B : C.K.Buffers)
    if (B.Space == ocl::MemSpace::Global && !B.IsInput && !B.IsOutput)
      Bytes += 4.0 * double(B.NumElems->evaluate(Env));
  return Bytes;
}

/// Lowers, generates, optionally specializes and compiles one kernel
/// through the public entry points, each wrapped in a benchmark span.
/// Returns false (after recording the failure) when any layer fails.
bool prepareKernel(ReadyKernel &RK, Outcome &Out) {
  ir::Program Low;
  {
    BenchSpan S("bench.lower");
    std::string Why;
    Low = rewrite::lowerStencil(*RK.Spec, RK.LO, &Why);
    if (!Low) {
      Out.fail(RK.Label + ": lowering failed: " + Why);
      return false;
    }
  }
  {
    BenchSpan S("bench.codegen");
    RK.C = codegen::compileProgram(Low, RK.B->Name);
  }
  std::uint64_t Hash = ir::structuralHash(Low);
  if (RK.Specialize) {
    BenchSpan S("bench.specialize");
    RK.C.K = analysis::specializeInterior(RK.C.K);
    Hash ^= SpecializedHashSalt;
  }
  try {
    BenchSpan S("bench.compile");
    RK.Kern = native::KernelCache::global().getOrCompile(Hash, RK.C.K);
    Out.ok();
  } catch (const native::NativeError &Ex) {
    RK.Kern.reset();
    Out.fail(RK.Label + ": native compile failed: " + Ex.what());
    return false;
  }
  RK.TempBytes = temporaryBytes(RK.C, RK.Env);
  return true;
}

/// Executes \p RK once through runNative on one thread, records the
/// kernel seconds it reports and checks the output against the golden
/// result.
void executeKernel(ReadyKernel &RK, Outcome &Out) {
  if (!RK.Kern)
    return; // its preparation failed and was counted
  try {
    native::NativeRunResult R;
    {
      BenchSpan S("bench.run");
      R = native::runNative(RK.C, *RK.Kern, *RK.Inputs, RK.Env,
                            /*Threads=*/1, /*Warmup=*/0, /*Repeats=*/1);
    }
    RK.Seconds.push_back(R.Seconds);
    checkOutput(Out, RK.Label, R.Output, *RK.Want);
  } catch (const native::NativeError &Ex) {
    Out.fail(RK.Label + ": native run failed: " + Ex.what());
  }
}

/// The kernel time a run reports: the geometric mean of its executions,
/// which are spread over the whole run. On a shared host a kernel runs
/// at one of two speeds, up to 2x apart, for seconds at a time (in-cache
/// kernels too), so a run's few executions of one kernel fall in either;
/// their mean weighs both by how often they occur, where the median
/// jumps between them. Over five runs of modeled-sweep the geometric
/// mean spread 6% between quartiles, the median 10%, the minimum 8%.
double kernelSeconds(const ReadyKernel &RK) {
  double LogSum = 0;
  for (double X : RK.Seconds)
    LogSum += std::log(X);
  return std::exp(LogSum / double(RK.Seconds.size()));
}

double kernelGElems(const ReadyKernel &RK) {
  return RK.ElemsPerRun / kernelSeconds(RK) / 1e9;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  fs::path WorkDir = ".bench_build/perfbench-work";
};

/// What a workload reports back to main().
struct Report {
  std::vector<double> SetupSeconds;
  /// tune_s / retune_s samples: one series per tuning problem
  /// (modeled-sweep), or one cold series and one warm series per CPU
  /// (target-run).
  std::vector<std::vector<double>> TuneSeconds, RetuneSeconds;
  double TuneMetric = 0, RetuneMetric = 0; ///< set by the workload
  std::vector<double> KernelGElems; ///< one entry per executed kernel
  double PeakRssMb = 0;
  unsigned Passes = 0;        ///< timed passes run (traced and untraced)
  unsigned TracedPasses = 0;  ///< of which traced
  std::vector<double> TracedPassSeconds, UntracedPassSeconds;
  unsigned Jobs = 1;
  /// Units of work traced per timed phase ("tune", "retune", "run"):
  /// the per-layer metrics of a phase are its span totals divided by
  /// these.
  std::map<std::string, double> TracedUnits;
  // Layer counters gathered outside the trace.
  std::uint64_t CacheHitsCold = 0, CacheLookupsCold = 0;
  std::uint64_t CacheHitsWarm = 0, CacheLookupsWarm = 0;
  std::uint64_t MemoHits = 0, MemoEvaluations = 0;
  double SourceBytes = 0, TempBytes = 0;
  std::vector<ReadyKernel *> Executed; ///< kernels behind KernelGElems
  std::vector<std::string> Rows;       ///< human-readable detail lines
};

/// Runs timed passes until the budget is spent (at least \p MinPasses,
/// and at least one traced and one untraced pass in traced runs),
/// alternating traced and untraced passes when tracing. A pass returns
/// the seconds of one-off work inside it that its pass time leaves out.
template <typename PassFn>
void runTimedPasses(const Options &O, TraceHarvester &TH, Report &R,
                    unsigned MinPasses, PassFn Pass) {
  auto T0 = SteadyClock::now();
  if (TH.on())
    MinPasses = std::max(MinPasses, 2u);
  while (R.Passes < MinPasses || secondsSince(T0) < O.Seconds) {
    bool Traced = TH.on() && R.Passes % 2 == 0;
    auto P0 = SteadyClock::now();
    double OneOff = Pass(Traced);
    (Traced ? R.TracedPassSeconds : R.UntracedPassSeconds)
        .push_back(secondsSince(P0) - OneOff);
    R.TracedPasses += Traced;
    ++R.Passes;
  }
}

/// True while a repeated measurement still needs samples: at least
/// \p MinReps, and more until \p MinSeconds of them have run (at most
/// \p MaxReps).
bool wantMoreReps(unsigned Done, double Spent, unsigned MinReps,
                  double MinSeconds, unsigned MaxReps) {
  return Done < MinReps || (Spent < MinSeconds && Done < MaxReps);
}

/// Repeats a workload's set-up (in an untraced run at least three times
/// and for at least two seconds, but only twice when those two already took
/// 10 s; once when tracing), timing each and keeping the last state.
template <typename State, typename MakeFn>
std::unique_ptr<State> timedSetup(const Options &O, TraceHarvester &TH,
                                  Report &R, MakeFn Make) {
  bool Once = TH.on() || O.Smoke;
  std::unique_ptr<State> S;
  double Spent = 0;
  auto More = [&](unsigned Done) {
    if (Once)
      return Done == 0;
    if (Done == 2 && Spent >= 10.0)
      return false;
    return wantMoreReps(Done, Spent, 3, 2.0, 25);
  };
  for (unsigned I = 0; More(I); ++I) {
    S.reset(); // release the previous state before building a new one
    native::KernelCache::global().clear();
    auto T0 = SteadyClock::now();
    // The probe compiles a test program; it stays out of the traced
    // set-up so native.compile counts only the workload's kernels.
    native::probeToolchain();
    TH.begin();
    S = Make();
    TH.end("setup");
    R.SetupSeconds.push_back(secondsSince(T0));
    Spent += R.SetupSeconds.back();
  }
  return S;
}

/// The explore pre-pass `liftc tune` runs before a sweep.
void explorePrepass(const ir::Program &P) {
  rewrite::ExplorationOptions EO;
  EO.MaxDepth = 2;
  EO.MaxPrograms = 64;
  BenchSpan S("bench.explore");
  rewrite::explore(P, rewrite::stencilExplorationRules(), EO);
}

/// Inputs and golden output of one benchmark program at one grid.
struct GridData {
  const Benchmark *B = nullptr;
  BenchmarkInstance Instance;
  Extents Grid;
  int Steps = 1; ///< Golden applications (time steps)
  std::vector<std::vector<float>> Inputs;
  std::vector<float> Want;
};

/// Computes the golden outputs on up to four threads. This is the
/// benchmark's own verification work, so it runs outside every timed
/// section and once per run.
void computeGoldens(const std::vector<std::unique_ptr<GridData>> &Data) {
  ThreadPool::shared().parallelFor(
      Data.size(),
      [&](std::size_t I) {
        GridData &D = *Data[I];
        std::vector<float> W = D.B->Golden(D.Inputs, D.Grid);
        for (int T = 1; T < D.Steps; ++T)
          W = D.B->Golden({W}, D.Grid);
        D.Want = std::move(W);
      },
      /*MaxParallelism=*/4);
}

/// A kernel of \p D's program, lowered with \p LO, with its byte
/// accounting filled in.
std::unique_ptr<ReadyKernel> kernelFor(const GridData &D, std::string Label,
                                       rewrite::LoweringOptions LO,
                                       bool Specialize) {
  auto RK = std::make_unique<ReadyKernel>();
  RK->Label = std::move(Label);
  RK->B = D.B;
  RK->Spec = &D.Instance.P;
  RK->LO = std::move(LO);
  RK->Specialize = Specialize;
  RK->Grid = D.Grid;
  double Elems = double(totalElems(D.Grid));
  RK->ElemsPerRun = Elems * D.Steps;
  RK->Env = makeSizeEnv(D.Instance, D.Grid);
  RK->Inputs = &D.Inputs;
  RK->Want = &D.Want;
  // Computed, not measured: every input grid read and the output
  // written once per step (an untiled multi-phase kernel reads and
  // writes one grid per phase).
  RK->ComputedBytes = 4.0 * Elems * (D.Steps > 1 ? 2.0 * D.Steps
                                                 : D.B->NumGrids + 1.0);
  RK->IOBytes = 4.0 * Elems * (D.B->NumGrids + 1.0);
  return RK;
}

/// Adds an executed kernel to the report.
void reportKernel(ReadyKernel &RK, Report &R) {
  if (RK.Seconds.empty())
    return;
  R.Executed.push_back(&RK);
  R.KernelGElems.push_back(kernelGElems(RK));
  R.SourceBytes += double(RK.Kern->source().size());
  R.TempBytes += RK.TempBytes;
}

/// Executes every kernel once, traced as phase "run" when \p Traced.
void executeRound(std::vector<std::unique_ptr<ReadyKernel>> &Kernels,
                  bool Traced, TraceHarvester &TH, Outcome &Out) {
  if (Traced)
    TH.begin();
  for (const auto &RK : Kernels)
    executeKernel(*RK, Out);
  if (Traced)
    TH.end("run");
}

//--- modeled-sweep -------------------------------------------------------===//

struct SweepState {
  std::vector<TuningProblem> Problems;
  // Target-grid execution of the winners, filled after the first pass.
  std::vector<std::unique_ptr<GridData>> Targets;
  std::vector<std::unique_ptr<ReadyKernel>> Kernels;
};

std::unique_ptr<SweepState>
makeSweepState(const Options &O, const std::vector<std::string> &Names) {
  auto S = std::make_unique<SweepState>();
  for (const std::string &N : Names) {
    const Benchmark &B = findBenchmark(N);
    BenchSpan Sp("bench.problem");
    TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
    // The workload seed reaches the program only as generated inputs.
    P.Inputs = makeBenchmarkInputs(B, P.Measure, O.Seed);
    explorePrepass(P.Instance.P);
    S->Problems.push_back(std::move(P));
  }
  return S;
}

/// One tuneStencil call as one operation: a sweep whose candidates were
/// pruned because the native backend failed counts as failed.
TuneResult tuneOne(const TuningProblem &P, const TuneOptions &TO,
                   Outcome &Out, Report &R) {
  static const ocl::DeviceSpec Dev = ocl::deviceNvidiaK20c();
  TuneResult Res;
  {
    BenchSpan S("bench.tune");
    Res = tuneStencil(P, Dev, liftSpace(), TO);
  }
  if (Res.Prunes.NativeFailed)
    Out.fail(P.B->Name + ": " + std::to_string(Res.Prunes.NativeFailed) +
             " candidate(s) pruned because the native backend failed");
  else
    Out.ok();
  R.MemoHits += Res.MemoHits;
  R.MemoEvaluations += Res.All.size();
  return Res;
}

const std::vector<std::string> SweepWinnerBenchmarks = {"Jacobi2D5pt",
                                                        "Jacobi3D7pt"};

/// Prepares the tuned winners of the SweepWinnerBenchmarks for execution
/// at their target grids (the measurement grids in smoke mode).
void prepareWinners(const Options &O, SweepState &S,
                    const std::vector<TuneResult> &Results, Outcome &Out,
                    Report &R) {
  std::vector<Candidate> Chosen;
  for (std::size_t I = 0; I != S.Problems.size(); ++I) {
    const TuningProblem &P = S.Problems[I];
    const Candidate &Best = Results[I].Best.C;
    R.Rows.push_back("winner " + P.B->Name + ": " + Best.describe());
    if (std::count(SweepWinnerBenchmarks.begin(), SweepWinnerBenchmarks.end(),
                   P.B->Name) == 0)
      continue;
    auto D = std::make_unique<GridData>();
    D->B = P.B;
    D->Instance = P.Instance;
    D->Grid = O.Smoke ? P.Measure : P.Target;
    D->Inputs = makeBenchmarkInputs(*P.B, D->Grid, O.Seed + 1);
    S.Targets.push_back(std::move(D));
    Chosen.push_back(Best);
  }
  computeGoldens(S.Targets);
  for (std::size_t I = 0; I != Chosen.size(); ++I) {
    const GridData &D = *S.Targets[I];
    rewrite::LoweringOptions LO = Chosen[I].Options;
    LO.OutputExtents.assign(D.Grid.begin(), D.Grid.end());
    auto RK = kernelFor(D, D.B->Name + "/" + Chosen[I].describe() +
                               " (tuned winner)",
                        LO, /*Specialize=*/false);
    if (prepareKernel(*RK, Out))
      S.Kernels.push_back(std::move(RK));
  }
}

/// Each pass tunes every problem twice in a row: the first call is a
/// tune_s sample, the second a retune_s sample. Modeled tuning keeps no
/// state between calls (the memo lives inside one call), so both start
/// cold today; a cache that outlives a call would show on retune_s.
/// From the second pass on, the tuned winners run at their target grids
/// between problems.
std::unique_ptr<SweepState> runModeledSweep(const Options &O,
                                            TraceHarvester &TH, Report &R,
                                            Outcome &Out) {
  std::vector<std::string> Names;
  for (const Benchmark &B : allBenchmarks())
    Names.push_back(B.Name);
  if (O.Smoke)
    Names = SweepWinnerBenchmarks;
  auto S = timedSetup<SweepState>(O, TH, R,
                                  [&] { return makeSweepState(O, Names); });

  TuneOptions TO;
  TO.Obj = Objective::Modeled;
  TO.Jobs = std::min(4u, ThreadPool::hardwareConcurrency());
  R.Jobs = TO.Jobs;
  R.TuneSeconds.resize(S->Problems.size());
  R.RetuneSeconds.resize(S->Problems.size());

  // At least three passes: the first one in a process runs slower, and
  // the median of three samples per problem leaves it out.
  std::vector<TuneResult> First;
  runTimedPasses(O, TH, R, /*MinPasses=*/O.Smoke ? 2 : 3, [&](bool Traced) {
    std::vector<TuneResult> Res;
    for (std::size_t I = 0; I != S->Problems.size(); ++I) {
      const TuningProblem &P = S->Problems[I];
      for (int Rep = 0; Rep != 2; ++Rep) {
        const char *Phase = Rep == 0 ? "tune" : "retune";
        if (Traced)
          TH.begin();
        auto T0 = SteadyClock::now();
        TuneResult X = tuneOne(P, TO, Out, R);
        double Wall = secondsSince(T0);
        if (Traced)
          TH.end(Phase);
        (Rep == 0 ? R.TuneSeconds : R.RetuneSeconds)[I].push_back(Wall);
        // A deterministic tuner picks the same winner on every call.
        const TuneResult &Ref = First.empty() ? (Rep ? Res[I] : X) : First[I];
        if (X.Best.C.describe() != Ref.Best.C.describe())
          Out.fail(P.B->Name + ": winner changed between identical sweeps");
        if (Rep == 0)
          Res.push_back(std::move(X));
      }
      // One winner execution after each problem, the winners taking
      // turns, so their executions spread over the whole pass.
      if (!S->Kernels.empty()) {
        if (Traced)
          TH.begin();
        executeKernel(*S->Kernels[I % S->Kernels.size()], Out);
        if (Traced)
          TH.end("run");
      }
    }
    if (Traced) {
      R.TracedUnits["tune"] += 1;
      R.TracedUnits["retune"] += 1;
      R.TracedUnits["run"] += !S->Kernels.empty();
    }
    double OneOff = 0;
    if (First.empty()) {
      First = std::move(Res);
      auto T0 = SteadyClock::now();
      TH.begin();
      prepareWinners(O, *S, First, Out, R);
      TH.end("post");
      OneOff = secondsSince(T0);
    }
    return OneOff;
  });
  for (const auto &RK : S->Kernels)
    reportKernel(*RK, R);
  // A sweep's time is the sum over its problems of each one's median.
  for (std::size_t I = 0; I != S->Problems.size(); ++I) {
    R.TuneMetric += median(R.TuneSeconds[I]);
    R.RetuneMetric += median(R.RetuneSeconds[I]);
  }
  return S;
}

//--- target-run ----------------------------------------------------------===//

struct KernelState {
  std::vector<std::unique_ptr<GridData>> Data;
  std::vector<std::unique_ptr<ReadyKernel>> Kernels;
};

const char *const TargetRunBenchmarks[] = {"Jacobi2D5pt", "Gaussian",
                                           "Hotspot2D",   "Jacobi3D7pt",
                                           "Heat",        "Hotspot3D"};

struct FixedVariant {
  const char *Name;
  bool Tile;
  bool Specialize;
};
const FixedVariant TargetRunVariants[] = {
    {"global", false, false},
    {"global+specializeInterior", false, true},
    {"tiled16-local", true, false},
};

constexpr int TimeSteps = 8;

/// iterate(Steps, step) where step is the benchmark's own one-step
/// program; the result keeps the benchmark's size variables.
ir::Program iterateProgram(const BenchmarkInstance &I, int Steps) {
  const ir::ParamPtr &A = I.P->getParams().front();
  ir::ExprPtr StepBody = I.P->getBody();
  ir::LambdaPtr Step = ir::lam("xs", [&](ir::ExprPtr Xs) {
    return ir::substituteParams(StepBody, {{A.get(), Xs}});
  });
  ir::ParamPtr In = ir::param("A", A->getDeclaredType());
  return ir::makeProgram({In}, ir::iterate(Steps, Step, In));
}

/// Spec -> ready kernel for every kernel of the workload: lower,
/// codegen, specialize, compile (or a kernel-cache hit).
void prepareAll(KernelState &S, Outcome &Out) {
  for (const auto &RK : S.Kernels)
    prepareKernel(*RK, Out);
}

/// Set-up of target-run: toolchain probe, programs, the explore
/// pre-pass, seeded inputs, then the cold spec -> ready-kernel
/// preparation (kernel cache empty, fresh private $TMPDIR).
std::unique_ptr<KernelState> makeKernelState(const Options &O, Outcome &Out,
                                             Report &R) {
  auto S = std::make_unique<KernelState>();
  auto AddData = [&](const char *Name, int Steps) -> GridData & {
    auto D = std::make_unique<GridData>();
    D->B = &findBenchmark(Name);
    D->Instance = D->B->Build();
    D->Steps = Steps;
    if (Steps > 1)
      D->Instance.P = iterateProgram(D->Instance, Steps);
    explorePrepass(D->Instance.P);
    D->Grid = O.Smoke ? D->B->MeasureExtents : D->B->SmallExtents;
    BenchSpan Sp("bench.inputs");
    D->Inputs = makeBenchmarkInputs(*D->B, D->Grid, O.Seed);
    S->Data.push_back(std::move(D));
    return *S->Data.back();
  };
  for (const char *N : TargetRunBenchmarks) {
    const GridData &D = AddData(N, 1);
    for (const FixedVariant &V : TargetRunVariants) {
      rewrite::LoweringOptions LO;
      if (V.Tile) {
        LO.Tile = true;
        LO.TileOutputs = 16;
        LO.UseLocalMem = true;
        LO.OutputExtents.assign(D.Grid.begin(), D.Grid.end());
      }
      S->Kernels.push_back(
          kernelFor(D, D.B->Name + "/" + V.Name, LO, V.Specialize));
    }
  }
  // The time-stepped kernel: lowered untiled, one multi-phase kernel.
  const GridData &D = AddData("Jacobi2D5pt", TimeSteps);
  S->Kernels.push_back(kernelFor(D,
                                 "iterate(" + std::to_string(TimeSteps) +
                                     ", " + D.B->Name + ")/global",
                                 rewrite::LoweringOptions(),
                                 /*Specialize=*/false));
  // The same cold preparation as in the timed passes, so it is also a
  // tune_s sample.
  PrivateTmp Tmp(O.WorkDir);
  auto T0 = SteadyClock::now();
  prepareAll(*S, Out);
  R.TuneSeconds[0].push_back(secondsSince(T0));
  return S;
}

/// Each pass prepares every kernel from its spec once with the kernel
/// cache empty (tune_s), executes every kernel, prepares them several
/// times on each CPU against the warm cache (retune_s), and executes
/// every kernel again.
std::unique_ptr<KernelState> runTargetRun(const Options &O,
                                          TraceHarvester &TH, Report &R,
                                          Outcome &Out) {
  native::KernelCache &KC = native::KernelCache::global();
  const std::vector<int> &Cpus = allowedCpus();
  R.TuneSeconds.resize(1);
  R.RetuneSeconds.resize(std::max<std::size_t>(1, Cpus.size()));
  auto S = timedSetup<KernelState>(
      O, TH, R, [&] { return makeKernelState(O, Out, R); });
  computeGoldens(S->Data);
  const unsigned WarmPerCpu = O.Smoke ? 1 : 6;

  runTimedPasses(O, TH, R, /*MinPasses=*/2, [&](bool Traced) {
    {
      // Cold: empty in-process kernel cache, fresh private $TMPDIR.
      KC.clear();
      PrivateTmp Tmp(O.WorkDir);
      std::uint64_t H0 = KC.hits(), M0 = KC.misses();
      if (Traced)
        TH.begin();
      auto T0 = SteadyClock::now();
      prepareAll(*S, Out);
      R.TuneSeconds[0].push_back(secondsSince(T0));
      if (Traced) {
        TH.end("tune");
        R.TracedUnits["tune"] += 1;
      }
      R.CacheHitsCold += KC.hits() - H0;
      R.CacheLookupsCold += KC.hits() - H0 + KC.misses() - M0;
    }
    executeRound(S->Kernels, Traced, TH, Out);
    // Warm: a block of preparations pinned to each CPU in turn, the
    // first of each block untimed (it moves the thread's data onto
    // that CPU's caches).
    std::uint64_t H0 = KC.hits(), M0 = KC.misses();
    for (std::size_t C = 0; C != R.RetuneSeconds.size(); ++C) {
      pinThread(Cpus.empty() ? -1 : Cpus[C]);
      prepareAll(*S, Out);
      for (unsigned I = 0; I != WarmPerCpu; ++I) {
        if (Traced)
          TH.begin();
        auto T0 = SteadyClock::now();
        prepareAll(*S, Out);
        R.RetuneSeconds[C].push_back(secondsSince(T0));
        if (Traced) {
          TH.end("retune");
          R.TracedUnits["retune"] += 1;
        }
      }
    }
    pinThread(-1);
    R.CacheHitsWarm += KC.hits() - H0;
    R.CacheLookupsWarm += KC.hits() - H0 + KC.misses() - M0;
    executeRound(S->Kernels, Traced, TH, Out);
    R.TracedUnits["run"] += Traced;
    return 0.0;
  });
  for (const auto &RK : S->Kernels)
    reportKernel(*RK, R);
  R.TuneMetric = median(R.TuneSeconds[0]);
  // The fastest warm preparation. Each takes about 20 ms of one CPU, and
  // on a shared host a CPU runs up to 2x slower for seconds at a time:
  // over five runs the fastest sample spread 8% between quartiles, the
  // smallest per-CPU median 32% and the median 41%. Samples are taken on
  // every CPU, because unpinned the thread stayed on one CPU, and runs
  // that landed on a slow one had even their fastest sample above the
  // other runs' medians.
  R.RetuneMetric = INFINITY;
  for (const auto &V : R.RetuneSeconds)
    for (double X : V)
      R.RetuneMetric = std::min(R.RetuneMetric, X);
  return S;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// The per-layer metrics of a traced run. Layer work that happens in
/// set-up is reported per set-up; layer work inside the timed section
/// per traced unit of its phase (a sweep, a preparation of every kernel,
/// a round of executions).
std::vector<Metric> perLayerMetrics(const Report &R,
                                    const TraceHarvester &TH,
                                    const Outcome &Out, double StreamGBs,
                                    std::vector<std::string> &Notes) {
  const SpanTotals &Setup = TH.phase("setup");
  std::vector<std::pair<const SpanTotals *, double>> Timed;
  for (const char *P : {"tune", "retune", "run"}) {
    auto It = R.TracedUnits.find(P);
    if (It != R.TracedUnits.end() && It->second > 0)
      Timed.push_back({&TH.phase(P), 1.0 / It->second});
  }
  auto Ms = [&](const std::string &N) {
    double V = Setup.ms(N);
    for (const auto &P : Timed)
      V += P.first->ms(N) * P.second;
    return V;
  };
  auto Count = [&](const std::string &N) {
    double V = double(Setup.count(N));
    for (const auto &P : Timed)
      V += double(P.first->count(N)) * P.second;
    return V;
  };

  std::vector<Metric> M;
  M.push_back({"rewrite.explore_ms", Ms("explore"), "ms"});
  M.push_back({"rewrite.lower_ms", Ms("lower"), "ms"});
  M.push_back({"rewrite.lowerings", Count("lower"), "count"});
  M.push_back({"codegen.compile_ms", Ms("codegen"), "ms"});
  M.push_back({"ocl.sim_ms", Ms("simulate"), "ms"});
  M.push_back({"ocl.sim_runs", Count("simulate"), "count"});
  M.push_back({"tuner.memo_hit_ratio",
               R.MemoEvaluations ? double(R.MemoHits) / R.MemoEvaluations
                                 : 0.0,
               "ratio"});
  // Sigma candidate wall / (sweep wall x jobs), over the traced sweeps.
  double SweepMs = TH.phase("tune").ms("bench.tune") +
                   TH.phase("retune").ms("bench.tune");
  double CandMs = TH.phase("tune").ms("tuner.candidate") +
                  TH.phase("retune").ms("tuner.candidate");
  M.push_back({"tuner.parallel_efficiency",
               SweepMs > 0 ? CandMs / (SweepMs * R.Jobs) : 0.0, "ratio"});
  M.push_back({"native.compile_ms", Ms("native.compile"), "ms"});
  M.push_back({"native.compiles", Count("native.compile"), "count"});
  M.push_back({"native.cache_hit_ratio",
               R.CacheLookupsCold ? double(R.CacheHitsCold) / R.CacheLookupsCold
                                  : 0.0,
               "ratio"});
  M.push_back({"native.cache_hit_ratio_warm",
               R.CacheLookupsWarm ? double(R.CacheHitsWarm) / R.CacheLookupsWarm
                                  : 0.0,
               "ratio"});
  M.push_back({"native.run_ms", Ms("native.run"), "ms"});
  M.push_back({"native.source_bytes", R.SourceBytes, "bytes"});
  std::vector<double> Pct;
  for (const ReadyKernel *RK : R.Executed)
    Pct.push_back(RK->ComputedBytes / kernelSeconds(*RK) / 1e9 /
                  StreamGBs * 100.0);
  M.push_back({"native.stream_pct", StreamGBs > 0 ? geomean(Pct) : 0.0,
               "%"});
  M.push_back({"analysis.specialize_ms", Ms("bench.specialize"), "ms"});
  M.push_back({"native.temp_bytes", R.TempBytes, "bytes"});
  M.push_back({"error_rate",
               Out.Attempted ? double(Out.Failed) / Out.Attempted : 1.0,
               "ratio"});

  // Share of the sweeps' wall (x jobs) covered by the program's layer
  // spans.
  double LayerMs = 0;
  for (const char *L :
       {"lower", "codegen", "simulate", "native.compile", "native.run"})
    LayerMs += TH.phase("tune").ms(L) + TH.phase("retune").ms(L);
  M.push_back({"trace.tune_coverage_pct",
               SweepMs > 0 ? LayerMs / (SweepMs * R.Jobs) * 100.0 : 0.0,
               "%"});
  // Tracing overhead: traced minus untraced passes of the same run.
  double Tr = median(R.TracedPassSeconds), Un = median(R.UntracedPassSeconds);
  M.push_back({"trace.overhead_pct", Un > 0 ? (Tr - Un) / Un * 100.0 : 0.0,
               "%"});

  // Cross-check: where the benchmark calls a layer directly, its own
  // span must cover the program's span of the same stage.
  double WorstGap = 0;
  for (const auto &[Bench, Prog] :
       std::vector<std::pair<std::string, std::string>>{
           {"bench.lower", "lower"},
           {"bench.codegen", "codegen"},
           {"bench.compile", "native.compile"},
           {"bench.run", "native.run"},
           {"bench.tune", "tune"},
           {"bench.explore", "explore"}}) {
    // Only phases in which the benchmark made the call itself (the
    // tuner's inner lowerings, for instance, have no benchmark span).
    double BMs = 0, PMs = 0, BCount = 0, PCount = 0;
    for (const SpanTotals *T :
         {&Setup, &TH.phase("tune"), &TH.phase("retune"), &TH.phase("run"),
          &TH.phase("post")}) {
      if (T->count(Bench) == 0)
        continue;
      BMs += T->ms(Bench);
      PMs += T->ms(Prog);
      BCount += double(T->count(Bench));
      PCount += double(T->count(Prog));
    }
    if (BCount == 0)
      continue;
    double Gap = BMs > 0 ? (BMs - PMs) / BMs * 100.0 : 0.0;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "span check %-14s %10.3f ms (%g calls) vs program %-14s "
                  "%10.3f ms (%g spans): gap %.2f%%",
                  Bench.c_str(), BMs, BCount, Prog.c_str(), PMs, PCount, Gap);
    Notes.push_back(Buf);
    // Direct calls: each benchmark call yields at least one program
    // span (a kernel-cache hit yields none for bench.compile).
    if (Bench != "bench.compile" && PCount < BCount)
      Notes.push_back("span check DISAGREES: fewer " + Prog +
                      " spans than benchmark calls");
    WorstGap = std::max(WorstGap, std::fabs(Gap));
  }
  M.push_back({"trace.span_gap_pct", WorstGap, "%"});
  return M;
}

void printResultLine(const Outcome &Out, const std::vector<Metric> &M) {
  std::string S = "{\"correct\": ";
  S += Out.Failed == 0 && Out.Attempted > 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Out.Attempted);
  S += ", \"failed\": " + std::to_string(Out.Failed);
  S += ", \"metrics\": {";
  for (std::size_t I = 0; I != M.size(); ++I)
    S += (I ? ", \"" : "\"") + M[I].Name + "\": {\"value\": " +
         fmt(M[I].Value) + ", \"unit\": \"" + M[I].Unit + "\"}";
  S += "}}";
  std::printf("%s\n", S.c_str());
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (!(V = Next()))
      return false;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::atoi(V) != 0;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else
      return false;
  }
  return O.Workload == "modeled-sweep" || O.Workload == "target-run";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<modeled-sweep|target-run> "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--smoke]\n");
    return 2;
  }
  fs::create_directories(O.WorkDir);
  // Everything the native backend and its compiler write stays under
  // the work directory.
  PrivateTmp RunTmp(O.WorkDir);

  const std::int64_t Llc = lastLevelCacheBytes();
  native::NativeOptions NO;
  std::string CC = native::findCompiler(NO);
  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d%s\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              int(O.Trace), O.Smoke ? ", smoke grids" : "");
  std::printf("provenance: cxx \"%s\" flags \"%s\" build %s\n", __VERSION__,
              PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE);
  std::printf("provenance: kernel cc \"%s\" (%s) -O%d openmp=%d\n",
              CC.c_str(), firstLineOf("\"" + CC + "\" --version").c_str(),
              NO.OptLevel, int(NO.OpenMP));
  std::printf("provenance: cpu \"%s\" llc %lld bytes nproc %u\n",
              cpuModel().c_str(), (long long)Llc,
              ThreadPool::hardwareConcurrency());

  TraceHarvester TH(O.Trace);
  Report R;
  Outcome Out;
  // Keeps the workload's buffers alive until after the metrics are
  // computed (the per-kernel rows point into it).
  std::shared_ptr<void> Keep;
  try {
    if (O.Workload == "modeled-sweep")
      Keep = runModeledSweep(O, TH, R, Out);
    else
      Keep = runTargetRun(O, TH, R, Out);
  } catch (const RecoverableError &Ex) {
    Out.fail(std::string("workload aborted: ") + Ex.what());
    R.Executed.clear(); // the kernels died with the workload's state
  }
  R.PeakRssMb = peakRssMb();

  for (const ReadyKernel *RK : R.Executed) {
    std::printf("kernel %-52s grid %-12s %8.3f ms median of %zu runs "
                "(min %.3f, max %.3f)  %7.4f Gelem/s  computed %7.1f MB  "
                "working set %.2fx LLC\n",
                RK->Label.c_str(), gridName(RK->Grid).c_str(),
                kernelSeconds(*RK) * 1e3, RK->Seconds.size(),
                *std::min_element(RK->Seconds.begin(), RK->Seconds.end()) *
                    1e3,
                *std::max_element(RK->Seconds.begin(), RK->Seconds.end()) *
                    1e3,
                kernelGElems(*RK), RK->ComputedBytes / 1e6,
                Llc > 0 ? (RK->IOBytes + RK->TempBytes) / double(Llc) : 0.0);
  }
  for (const ReadyKernel *RK : R.Executed) {
    std::printf("kernel-ms %s", RK->Label.c_str());
    for (double X : RK->Seconds)
      std::printf(" %.3f", X * 1e3);
    std::printf("\n");
  }
  for (const auto &V : R.RetuneSeconds) {
    std::printf("retune-ms");
    for (double X : V)
      std::printf(" %.3f", X * 1e3);
    std::printf("\n");
  }
  for (const std::string &Row : R.Rows)
    std::printf("%s\n", Row.c_str());
  auto PrintSamples = [](const char *Name, const std::vector<double> &V) {
    if (!V.empty())
      std::printf("samples %-8s n=%-3zu min %.6f median %.6f max %.6f s\n",
                  Name, V.size(), *std::min_element(V.begin(), V.end()),
                  median(V), *std::max_element(V.begin(), V.end()));
  };
  PrintSamples("setup_s", R.SetupSeconds);
  for (const auto &V : R.TuneSeconds)
    PrintSamples("tune_s", V);
  for (const auto &V : R.RetuneSeconds)
    PrintSamples("retune_s", V);

  std::vector<Metric> M;
  if (!O.Trace) {
    M.push_back({"setup_s", median(R.SetupSeconds), "s"});
    M.push_back({"tune_s", R.TuneMetric, "s"});
    M.push_back({"retune_s", R.RetuneMetric, "s"});
    M.push_back({"kernel_gelems", geomean(R.KernelGElems), "Gelem/s"});
    M.push_back({"peak_rss_mb", R.PeakRssMb, "MB"});
  } else {
    // STREAM triad with at least 4x the last-level cache per pass.
    std::size_t Elems = std::size_t(8) << 20;
    if (Llc > 0)
      Elems = std::max(Elems, std::size_t(4 * Llc / 12 + 1));
    if (O.Smoke)
      Elems = std::size_t(1) << 20;
    native::MachinePeaks Peaks = native::probeMachinePeaks(Elems, 3);
    std::printf("stream triad peak %.2f GB/s (%zu floats per array, "
                "%.1fx LLC per pass)\n",
                Peaks.GBPerSec, Elems,
                Llc > 0 ? 12.0 * double(Elems) / double(Llc) : 0.0);
    std::vector<std::string> Notes;
    M = perLayerMetrics(R, TH, Out, Peaks.GBPerSec, Notes);
    for (const std::string &N : Notes)
      std::printf("%s\n", N.c_str());
    fs::path TracePath =
        O.WorkDir / ("trace-" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".json");
    if (TH.writeChromeTrace(TracePath))
      std::printf("chrome trace written to %s\n", TracePath.c_str());
    if (TH.ParseErrors)
      Out.fail("trace export could not be parsed");
  }

  std::printf("golden check: %llu of %llu operations failed\n",
              (unsigned long long)Out.Failed,
              (unsigned long long)Out.Attempted);
  for (const std::string &F : Out.Failures)
    std::printf("  failure: %s\n", F.c_str());
  for (const Metric &X : M)
    std::printf("metric %-28s %16.6f %s\n", X.Name.c_str(), X.Value,
                X.Unit.c_str());
  std::fflush(stdout);
  printResultLine(Out, M);
  return 0;
}
