//===- Tuner.cpp - Constraint-aware auto-tuning --------------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "analysis/RangeAnalysis.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "native/NativeRunner.h"
#include "obs/Calibration.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>

using namespace lift;
using namespace lift::ocl;
using namespace lift::tuner;
using namespace lift::stencil;
using lift::rewrite::LoweringOptions;

std::string Candidate::describe() const {
  return Options.describe() + "/wg" + std::to_string(Launch.WorkGroupSize);
}

TuningSpace lift::tuner::liftSpace() { return TuningSpace(); }

TuningSpace lift::tuner::ppcgSpace() {
  TuningSpace S;
  S.AllowUntiled = false;
  S.AllowTiling = true;
  S.AllowLocalMem = true;
  S.LocalMemOnly = true; // PPCG always stages tiles in shared memory
  S.AllowUnroll = false;
  S.TileOutputs = {8, 16, 32, 64};
  S.TileCoarsenFactors = {1, 2, 4, 8, 16};
  return S;
}

TuningProblem lift::tuner::makeProblem(const Benchmark &B, bool LargeTarget) {
  TuningProblem P;
  P.B = &B;
  P.Instance = B.Build();
  P.Measure = B.MeasureExtents;
  P.Target = LargeTarget && !B.LargeExtents.empty() ? B.LargeExtents
                                                    : B.SmallExtents;
  P.Inputs = makeBenchmarkInputs(B, P.Measure);
  return P;
}

std::uint64_t PruneStats::total() const {
  return TileStepMisaligned + TileIndivisible + TileCoarsenMisaligned +
         LocalMemOverflow + CoarsenIndivisible + LoweringFailed +
         Divisibility + NativeFailed;
}

std::string PruneStats::describe() const {
  return obs::formatCounts(
      {{"tile-step-misaligned", TileStepMisaligned},
       {"tile-indivisible", TileIndivisible},
       {"tile-coarsen-misaligned", TileCoarsenMisaligned},
       {"local-mem-overflow", LocalMemOverflow},
       {"coarsen-indivisible", CoarsenIndivisible},
       {"lowering-failed", LoweringFailed},
       {"divisibility", Divisibility},
       {"native-compile-failed", NativeFailed}});
}

CacheConfig lift::tuner::scaledCache(const CacheConfig &Base,
                                     const Extents &Measure,
                                     const Extents &Target) {
  double Scale = 1.0;
  for (std::size_t D = 1; D < Measure.size(); ++D)
    Scale *= double(Measure[D]) / double(Target[D]);
  CacheConfig C = Base;
  std::int64_t MinBytes = std::int64_t(C.LineBytes) * C.Ways * 4;
  C.TotalBytes = std::max<std::int64_t>(
      MinBytes, std::int64_t(double(C.TotalBytes) * Scale));
  return C;
}

namespace {

ExecCounters scaleCounters(const ExecCounters &C, double S) {
  ExecCounters R;
  auto Scale = [S](std::uint64_t V) {
    return std::uint64_t(std::llround(double(V) * S));
  };
  R.GlobalLoads = Scale(C.GlobalLoads);
  R.GlobalStores = Scale(C.GlobalStores);
  R.GlobalLoadLineMisses = Scale(C.GlobalLoadLineMisses);
  R.LocalLoads = Scale(C.LocalLoads);
  R.LocalStores = Scale(C.LocalStores);
  R.PrivateAccesses = Scale(C.PrivateAccesses);
  R.Flops = Scale(C.Flops);
  R.UserFunCalls = Scale(C.UserFunCalls);
  R.LoopIterations = Scale(C.LoopIterations);
  R.Barriers = Scale(C.Barriers);
  R.SelectEvals = Scale(C.SelectEvals);
  return R;
}

bool dividesAll(std::int64_t V, const Extents &E) {
  for (std::int64_t X : E)
    if (X % V != 0)
      return false;
  return true;
}

/// Which constraint (if any) rejected a candidate.
enum class PruneReason {
  None,
  TileStepMisaligned,
  TileIndivisible,
  TileCoarsenMisaligned,
  LocalMemOverflow,
  CoarsenIndivisible,
  LoweringFailed,
  Divisibility,
  NativeFailed,
};

/// The stable names shared by the "tuner.prune.<name>" metric keys,
/// PruneStats::describe() and the flight-recorder records.
const char *pruneReasonName(PruneReason R) {
  switch (R) {
  case PruneReason::None:
    return "";
  case PruneReason::TileStepMisaligned:
    return "tile-step-misaligned";
  case PruneReason::TileIndivisible:
    return "tile-indivisible";
  case PruneReason::TileCoarsenMisaligned:
    return "tile-coarsen-misaligned";
  case PruneReason::LocalMemOverflow:
    return "local-mem-overflow";
  case PruneReason::CoarsenIndivisible:
    return "coarsen-indivisible";
  case PruneReason::LoweringFailed:
    return "lowering-failed";
  case PruneReason::Divisibility:
    return "divisibility";
  case PruneReason::NativeFailed:
    return "native-compile-failed";
  }
  unreachable("covered switch");
}

/// Memoizes (counters, NDRange analysis) of one simulated execution,
/// keyed on the *lowered* program's structural identity plus the size
/// bindings and cache configuration that shaped the run. Candidates
/// that differ only in knobs the lowering ignores (e.g. the launch
/// work-group size of mapGlb kernels) collapse onto one simulation.
///
/// Thread-safe with in-flight deduplication: the first caller to
/// acquire a key becomes its owner and computes; concurrent callers
/// block on the entry until the owner publishes.
class EvalMemo {
public:
  struct Entry {
    std::mutex M;
    std::condition_variable CV;
    bool Ready = false;
    ExecCounters Counters;
    NDRangeInfo ND;

    void publish(const ExecCounters &C, const NDRangeInfo &N) {
      std::lock_guard<std::mutex> Lock(M);
      Counters = C;
      ND = N;
      Ready = true;
      CV.notify_all();
    }
    void wait() {
      std::unique_lock<std::mutex> Lock(M);
      CV.wait(Lock, [this] { return Ready; });
    }
  };

  /// Returns the entry for the key; sets \p Owner when this caller
  /// inserted it and must compute + publish.
  Entry *acquire(const ir::Program &Low, const SizeEnv &MeasureEnv,
                 const SizeEnv &TargetEnv, const CacheConfig &Cache,
                 bool &Owner) {
    Key K;
    K.Prog = Low;
    K.Hash = ir::structuralHash(Low);
    auto AddEnv = [&K](const SizeEnv &Env) {
      std::vector<std::pair<unsigned, std::int64_t>> V(Env.begin(), Env.end());
      std::sort(V.begin(), V.end());
      for (const auto &KV : V) {
        K.Hash = hashCombine(K.Hash, KV.first);
        K.Hash = hashCombine(K.Hash, std::size_t(KV.second));
        K.Sizes.push_back(KV);
      }
    };
    AddEnv(MeasureEnv);
    AddEnv(TargetEnv);
    K.Hash = hashCombine(K.Hash, std::size_t(Cache.LineBytes));
    K.Hash = hashCombine(K.Hash, std::size_t(Cache.TotalBytes));
    K.Hash = hashCombine(K.Hash, std::size_t(Cache.Ways));
    K.Cache = Cache;

    std::lock_guard<std::mutex> Lock(M);
    auto It = Map.find(K);
    if (It != Map.end()) {
      Owner = false;
      return It->second.get();
    }
    Owner = true;
    return Map.emplace(std::move(K), std::make_unique<Entry>())
        .first->second.get();
  }

private:
  struct Key {
    std::size_t Hash = 0;
    ir::Program Prog;
    std::vector<std::pair<unsigned, std::int64_t>> Sizes;
    CacheConfig Cache;
  };
  struct KeyHash {
    std::size_t operator()(const Key &K) const { return K.Hash; }
  };
  struct KeyEq {
    bool operator()(const Key &A, const Key &B) const {
      return A.Hash == B.Hash && A.Sizes == B.Sizes &&
             A.Cache.LineBytes == B.Cache.LineBytes &&
             A.Cache.TotalBytes == B.Cache.TotalBytes &&
             A.Cache.Ways == B.Cache.Ways &&
             ir::structuralEquals(A.Prog, B.Prog);
    }
  };

  std::mutex M;
  std::unordered_map<Key, std::unique_ptr<Entry>, KeyHash, KeyEq> Map;
};

/// What a measured sweep carries from preparing a candidate (on the
/// pool) to timing it (serially, after every compile has finished).
struct MeasureSlot {
  codegen::Compiled C;
  native::NativeKernelPtr Kern;
};

/// Lowers, simulates and models one candidate. Under the measured
/// objective it also compiles the candidate natively into \p Slot;
/// tuneStencil times it once every candidate is prepared.
Evaluated evalImpl(const TuningProblem &P, const DeviceSpec &Dev,
                   const Candidate &C, const TuneOptions &Opts,
                   EvalMemo *Memo, PruneReason &Why,
                   obs::CandidateRecord *Rec, MeasureSlot *Slot) {
  Why = PruneReason::None;
  Evaluated R;
  R.C = C;

  const Benchmark &B = *P.B;
  const LoweringOptions &O = C.Options;

  // Structural constraints.
  if (O.Tile) {
    if (O.TileOutputs % B.WindowStep != 0) {
      Why = PruneReason::TileStepMisaligned;
      return R;
    }
    // Remainder tiles are legal since the clamped-tail lowering: a
    // tile no longer has to divide the grid, and a tile larger than a
    // short extent is clamped to it per dimension. The one genuinely
    // unsupported shape left is a remainder fit at window step != 1
    // (the shifted tail tile would leave the output lattice;
    // deferred), and the recorded WhyNot names it.
    std::int64_t TileK = O.TileOutputs / B.WindowStep;
    if (B.WindowStep != 1 &&
        (!dividesAll(TileK, P.Measure) || !dividesAll(TileK, P.Target))) {
      Why = PruneReason::TileIndivisible;
      R.WhyNot = std::string(pruneReasonName(Why)) +
                 ": remainder tiles at window step != 1 are unsupported "
                 "(tile of " +
                 std::to_string(TileK) + " outputs)";
      return R;
    }
    if (O.TileCoarsen > 1 && O.TileOutputs % O.TileCoarsen != 0) {
      Why = PruneReason::TileCoarsenMisaligned;
      return R;
    }
    // Local tile must fit the device's local memory.
    if (O.UseLocalMem) {
      double TileExtent =
          double(O.TileOutputs + B.WindowSize - B.WindowStep);
      double Bytes = 4.0 * std::pow(TileExtent, double(B.Dims));
      if (Bytes > double(Dev.LocalMemPerCU)) {
        Why = PruneReason::LocalMemOverflow;
        return R;
      }
    }
  } else if (O.Coarsen > 1) {
    if (P.Measure.back() % O.Coarsen != 0 || P.Target.back() % O.Coarsen != 0) {
      Why = PruneReason::CoarsenIndivisible;
      return R;
    }
  }

  const BenchmarkInstance &I = P.Instance;
  // Lower against the concrete measurement extents: the clamped
  // tiling scheme can then clamp a tile per dimension (e.g. a
  // 16-output tile on Hotspot3D's 4-deep axis), which a fully
  // symbolic lowering must refuse. Simulation and the measured
  // objective both run at exactly these extents.
  rewrite::LoweringOptions LO = O;
  if (LO.OutputExtents.empty())
    LO.OutputExtents.assign(P.Measure.begin(), P.Measure.end());
  ir::Program Low = rewrite::lowerStencil(I.P, LO);
  if (!Low) {
    Why = PruneReason::LoweringFailed;
    return R;
  }
  std::size_t LowHash = ir::structuralHash(Low);
  if (Rec)
    Rec->LoweredHash = LowHash;

  CacheConfig Cache = scaledCache(Dev.Cache, P.Measure, P.Target);
  auto MeasureEnv = makeSizeEnv(I, P.Measure);
  auto TargetEnv = makeSizeEnv(I, P.Target);

  // Static refutation: a split whose factor provably cannot divide its
  // input length at either grid would only fail later, inside the
  // simulator — discard it here and record why.
  if (analysis::refuteSplitDivisibility(Low, MeasureEnv) ||
      analysis::refuteSplitDivisibility(Low, TargetEnv)) {
    Why = PruneReason::Divisibility;
    return R;
  }

  ExecCounters Counters;
  NDRangeInfo ND;
  EvalMemo::Entry *Ent = nullptr;
  bool Owner = false;
  if (Memo)
    Ent = Memo->acquire(Low, MeasureEnv, TargetEnv, Cache, Owner);
  if (Ent && !Owner) {
    Ent->wait();
    Counters = Ent->Counters;
    ND = Ent->ND;
    R.FromMemo = true;
  } else {
    codegen::Compiled Compiled = codegen::compileProgram(Low, B.Name);
    codegen::RunResult Run = codegen::runCompiled(Compiled, P.Inputs,
                                                  MeasureEnv, Cache,
                                                  Opts.Jobs);
    Counters = Run.Counters;
    ND = analyzeNDRange(Compiled.K, TargetEnv);
    if (Ent)
      Ent->publish(Counters, ND);
  }

  // Per-candidate simulation roll-up. Counted for memo-served
  // candidates too (re-adding the shared counters), so the totals
  // depend only on the candidate set — identical at any job count and
  // with or without the memo, unlike the runner-level "sim." totals.
  exportCountersToMetrics(Counters, "tuner.sim.");

  double CountScale =
      double(totalElems(P.Target)) / double(totalElems(P.Measure));
  ExecCounters Scaled = scaleCounters(Counters, CountScale);

  R.T = estimateTime(Dev, Scaled, ND, C.Launch);
  R.Valid = true;
  R.GElemsPerSec = double(totalElems(P.Target)) / R.T.Total / 1e9;

  // Measured objective: also compile the candidate for real through
  // the native backend. The KernelCache (keyed on LowHash) compiles
  // each distinct lowering once per process, so work-group-size
  // variants of one lowering share a binary.
  if (Opts.Obj == Objective::Measured) {
    try {
      Slot->C = codegen::compileProgram(Low, B.Name);
      Slot->Kern =
          native::KernelCache::global().getOrCompile(LowHash, Slot->C.K);
    } catch (const native::NativeError &) {
      Why = PruneReason::NativeFailed;
      R.Valid = false;
      return R;
    }
  }
  return R;
}

/// evalImpl plus observability: the per-candidate trace span, wall
/// time, prune/valid counters and the flight-recorder record fields
/// (everything except Index, which only the sweep loop knows).
Evaluated evalInstrumented(const TuningProblem &P, const DeviceSpec &Dev,
                           const Candidate &C, const TuneOptions &Opts,
                           EvalMemo *Memo, PruneReason &Why,
                           obs::CandidateRecord *Rec, MeasureSlot *Slot) {
  obs::Span CandSpan("tuner.candidate", "tuner");
  CandSpan.arg("variant", C.describe());
  auto T0 = std::chrono::steady_clock::now();
  Evaluated R = evalImpl(P, Dev, C, Opts, Memo, Why, Rec, Slot);
  // evalImpl may have filled in a detailed message (stable reason name
  // as prefix); only fall back to the bare reason name when it did not.
  if (!R.Valid && R.WhyNot.empty())
    R.WhyNot = pruneReasonName(Why);
  double WallUs = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  obs::Registry &Reg = obs::Registry::global();
  Reg.counter("tuner.candidates.enumerated").inc();
  if (R.Valid)
    Reg.counter("tuner.candidates.valid").inc();
  else
    Reg.counter(std::string("tuner.prune.") + pruneReasonName(Why)).inc();
  if (R.FromMemo)
    Reg.counter("tuner.memo.hits").inc();
  Reg.histogram("tuner.candidate.wall_us").observe(WallUs);
  if (Rec) {
    Rec->Variant = C.describe();
    Rec->PredictedTime = R.Valid ? R.T.Total : 0;
    Rec->GElemsPerSec = R.GElemsPerSec;
    Rec->PruneReason = pruneReasonName(Why);
    Rec->FromMemo = R.FromMemo;
    Rec->Valid = R.Valid;
    Rec->WallMicros = WallUs;
    Rec->Objective =
        Opts.Obj == Objective::Measured ? "measured" : "modeled";
  }
  CandSpan.arg("valid", std::int64_t(R.Valid ? 1 : 0));
  return R;
}

} // namespace

Evaluated lift::tuner::evaluateCandidate(const TuningProblem &P,
                                         const DeviceSpec &Dev,
                                         const Candidate &C, unsigned Jobs) {
  PruneReason Why;
  TuneOptions Opts;
  Opts.Jobs = Jobs;
  return evalInstrumented(P, Dev, C, Opts, /*Memo=*/nullptr, Why,
                          /*Rec=*/nullptr, /*Slot=*/nullptr);
}

TuneResult lift::tuner::tuneStencil(const TuningProblem &P,
                                    const DeviceSpec &Dev,
                                    const TuningSpace &Space,
                                    const TuneOptions &Opts) {
  obs::Span TuneSpan("tune", "tuner");
  TuneSpan.arg("benchmark", P.B->Name);
  TuneSpan.arg("jobs", std::int64_t(Opts.Jobs));
  // Materialize every prune counter up front so metric dumps always
  // carry the full reason set, zeros included — prefix comparisons
  // between runs then compare identical key sets.
  obs::Registry &Reg = obs::Registry::global();
  for (const char *Name :
       {"tile-step-misaligned", "tile-indivisible", "tile-coarsen-misaligned",
        "local-mem-overflow", "coarsen-indivisible", "lowering-failed",
        "divisibility", "native-compile-failed"})
    Reg.counter(std::string("tuner.prune.") + Name);

  std::vector<Candidate> Candidates;

  std::vector<bool> Unrolls = {false};
  if (Space.AllowUnroll)
    Unrolls.push_back(true);

  if (Space.AllowUntiled) {
    for (std::int64_t Coarsen : Space.CoarsenFactors)
      for (std::int64_t Wg : Space.WorkGroupSizes)
        for (bool Unroll : Unrolls) {
          Candidate C;
          C.Options.Tile = false;
          C.Options.Coarsen = Coarsen;
          C.Options.UnrollReduce = Unroll;
          C.Launch.WorkGroupSize = Wg;
          Candidates.push_back(C);
        }
  }

  if (Space.AllowTiling) {
    std::vector<bool> Locals;
    if (!Space.LocalMemOnly)
      Locals.push_back(false);
    if (Space.AllowLocalMem)
      Locals.push_back(true);
    for (std::int64_t V : Space.TileOutputs)
      for (bool Local : Locals)
        for (std::int64_t TC : Space.TileCoarsenFactors)
          for (bool Unroll : Unrolls) {
            Candidate C;
            C.Options.Tile = true;
            C.Options.TileOutputs = V;
            C.Options.UseLocalMem = Local;
            C.Options.TileCoarsen = TC;
            C.Options.UnrollReduce = Unroll;
            // Work-group geometry of tiled kernels comes from the tile
            // shape; the launch knob is unused.
            Candidates.push_back(C);
          }
  }

  // Evaluate every candidate into a preallocated slot so the scan
  // below is independent of evaluation order (and thread schedule).
  std::vector<Evaluated> Evals(Candidates.size());
  std::vector<PruneReason> Reasons(Candidates.size(), PruneReason::None);
  std::vector<obs::CandidateRecord> Recs(Candidates.size());
  const bool Measured = Opts.Obj == Objective::Measured;
  std::vector<MeasureSlot> Slots(Measured ? Candidates.size() : 0);
  EvalMemo Memo;

  obs::FlightRecorder &Recorder = obs::FlightRecorder::global();
  const bool Record = Recorder.enabled();
  if (Record)
    Recorder.beginTune(P.B->Name, Candidates.size());
  TuneSpan.arg("candidates", std::int64_t(Candidates.size()));

  // Stage 1, on up to Jobs pool workers (1: inline on this thread):
  // lower, simulate, model and -- measured objective -- compile.
  ThreadPool::shared().parallelFor(
      Candidates.size(),
      [&](std::size_t I) {
        Recs[I].Index = I;
        Evals[I] = evalInstrumented(P, Dev, Candidates[I], Opts, &Memo,
                                    Reasons[I], Record ? &Recs[I] : nullptr,
                                    Measured ? &Slots[I] : nullptr);
      },
      Opts.Jobs);

  // Stage 2, measured objective only: time the prepared candidates one
  // by one in enumeration order. Stage 1 has finished, so no host
  // compile (or simulation) competes with a timed run for the CPU.
  // Each distinct binary is timed once per sweep: candidates that share
  // a kernel (work-group-size variants of one lowering; the launch size
  // is not part of the emitted C) share its first candidate's time, so
  // the argmin below breaks their tie to the first in enumeration order
  // instead of ranking them by timer noise.
  if (Measured) {
    auto MeasureEnv = makeSizeEnv(P.Instance, P.Measure);
    std::unordered_map<const native::NativeKernel *, std::size_t> TimedBy;
    for (std::size_t I = 0; I != Candidates.size(); ++I) {
      Evaluated &E = Evals[I];
      if (!E.Valid)
        continue;
      auto [Prev, First] = TimedBy.emplace(Slots[I].Kern.get(), I);
      if (!First) {
        E.MeasuredSeconds = Evals[Prev->second].MeasuredSeconds;
        E.MeasuredGElemsPerSec = Evals[Prev->second].MeasuredGElemsPerSec;
        Recs[I].MeasuredTime = E.MeasuredSeconds;
        continue;
      }
      auto T0 = std::chrono::steady_clock::now();
      E.MeasuredSeconds =
          native::runNative(Slots[I].C, *Slots[I].Kern, P.Inputs, MeasureEnv,
                            Opts.MeasureThreads, Opts.MeasureWarmup,
                            Opts.MeasureRepeats)
              .Seconds;
      E.MeasuredGElemsPerSec =
          double(totalElems(P.Measure)) / E.MeasuredSeconds / 1e9;
      Recs[I].MeasuredTime = E.MeasuredSeconds;
      Recs[I].WallMicros += std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - T0)
                                .count();
    }
  }
  if (Record)
    for (std::size_t I = 0; I != Candidates.size(); ++I)
      Recorder.record(I, std::move(Recs[I]));

  // Deterministic argmin: scan in enumeration order, first strictly
  // smaller predicted time wins — the same tie-break the sequential
  // loop always had, for any thread count.
  TuneResult Result;
  double BestTime = 0;
  for (std::size_t I = 0; I != Candidates.size(); ++I) {
    switch (Reasons[I]) {
    case PruneReason::None:
      break;
    case PruneReason::TileStepMisaligned:
      ++Result.Prunes.TileStepMisaligned;
      break;
    case PruneReason::TileIndivisible:
      ++Result.Prunes.TileIndivisible;
      break;
    case PruneReason::TileCoarsenMisaligned:
      ++Result.Prunes.TileCoarsenMisaligned;
      break;
    case PruneReason::LocalMemOverflow:
      ++Result.Prunes.LocalMemOverflow;
      break;
    case PruneReason::CoarsenIndivisible:
      ++Result.Prunes.CoarsenIndivisible;
      break;
    case PruneReason::LoweringFailed:
      ++Result.Prunes.LoweringFailed;
      break;
    case PruneReason::Divisibility:
      ++Result.Prunes.Divisibility;
      break;
    case PruneReason::NativeFailed:
      ++Result.Prunes.NativeFailed;
      break;
    }
    const Evaluated &E = Evals[I];
    if (!E.Valid)
      continue;
    if (E.FromMemo)
      ++Result.MemoHits;
    Result.All.push_back(E);
    // Under the measured objective real wall-clock seconds rank the
    // candidates; the modeled time is still recorded for comparison.
    double Score = Measured ? E.MeasuredSeconds : E.T.Total;
    if (!Result.Best.Valid || Score < BestTime) {
      Result.Best = E;
      BestTime = Score;
    }
  }
  if (!Result.Best.Valid)
    fatalError("tuner: no valid candidate for " + P.B->Name + " (all " +
               std::to_string(Candidates.size()) +
               " candidates pruned: " + Result.Prunes.describe() + ")");

  // Measured sweeps carry both times per candidate; summarize how well
  // the analytical model tracked the wall clock as tune-end gauges so
  // --obs-report surfaces calibration without the full JSON report.
  if (Measured && !Result.All.empty()) {
    std::vector<obs::CalibrationPair> Pairs;
    for (const Evaluated &E : Result.All) {
      if (E.MeasuredSeconds <= 0 || E.T.Total <= 0)
        continue;
      obs::CalibrationPair Pair;
      Pair.Variant = E.C.describe();
      Pair.ModeledSeconds = E.T.Total;
      Pair.MeasuredSeconds = E.MeasuredSeconds;
      Pairs.push_back(std::move(Pair));
    }
    if (!Pairs.empty()) {
      obs::CalibrationReport CR =
          obs::calibrate(P.B->Name, std::move(Pairs));
      Reg.gauge("tuner.calib.pairs").set(double(CR.Pairs.size()));
      Reg.gauge("tuner.calib.spearman_rho").set(CR.SpearmanRho);
      Reg.gauge("tuner.calib.mean_rel_error").set(CR.MeanRelativeError);
      Reg.gauge("tuner.calib.argmin_agreement")
          .set(CR.ArgminAgreement ? 1.0 : 0.0);
    }
  }
  return Result;
}
