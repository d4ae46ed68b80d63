//===- ParallelTunerTest.cpp - Concurrent tuning determinism --------------===//
//
// Part of the liftcpp project.
//
// The parallel tuner must be a pure performance feature: the winning
// candidate, its predicted time, and the set of valid candidates are
// identical for any job count, the evaluation memo never changes
// results, the simulator behind a full sweep reports the reference
// simulator's counters, a measured sweep never times a kernel while a
// compile runs, and a search in which every candidate is pruned
// reports the per-constraint counts instead of failing opaquely.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include "codegen/CodeGen.h"
#include "native/NativeRunner.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "ocl/ParallelSim.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace lift;
using namespace lift::ocl;
using namespace lift::tuner;
using namespace lift::stencil;

namespace {

TuningSpace trimmedSpace() {
  TuningSpace S = liftSpace();
  S.TileOutputs = {8, 16};
  S.CoarsenFactors = {1, 2};
  S.TileCoarsenFactors = {1, 4};
  S.WorkGroupSizes = {64, 128};
  return S;
}

TEST(ParallelTuner, SameWinnerAtJobs128) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneOptions O1; // Jobs = 1: every candidate on the calling thread
  TuneResult R1 = tuneStencil(P, Dev, S, O1);

  for (unsigned Jobs : {2u, 8u}) {
    TuneOptions ON;
    ON.Jobs = Jobs;
    TuneResult RN = tuneStencil(P, Dev, S, ON);
    EXPECT_EQ(R1.Best.C.describe(), RN.Best.C.describe()) << "jobs=" << Jobs;
    EXPECT_EQ(R1.Best.T.Total, RN.Best.T.Total) << "jobs=" << Jobs;
    EXPECT_EQ(R1.All.size(), RN.All.size()) << "jobs=" << Jobs;
    // Valid candidates come back in enumeration order with identical
    // predicted times regardless of the thread schedule.
    for (std::size_t I = 0; I != R1.All.size(); ++I) {
      EXPECT_EQ(R1.All[I].C.describe(), RN.All[I].C.describe());
      EXPECT_EQ(R1.All[I].T.Total, RN.All[I].T.Total);
    }
  }
}

TEST(ParallelTuner, MemoDeduplicatesEquivalentLowerings) {
  // Untiled candidates that differ only in work-group size lower to
  // structurally identical programs; the memo must collapse them onto
  // one simulation without changing any result: every candidate's
  // predicted time equals a memo-free evaluation of that candidate.
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneOptions O;
  O.Jobs = 2;
  TuneResult RM = tuneStencil(P, Dev, S, O);

  EXPECT_GT(RM.MemoHits, 0u);
  for (const Evaluated &E : RM.All) {
    Evaluated Fresh = evaluateCandidate(P, Dev, E.C);
    ASSERT_TRUE(Fresh.Valid) << E.C.describe();
    EXPECT_FALSE(Fresh.FromMemo) << E.C.describe();
    EXPECT_EQ(E.T.Total, Fresh.T.Total) << E.C.describe();
  }
}

TEST(ParallelTuner, WholeSweepMatchesReferenceSimulator) {
  // Every valid liftSpace() candidate of three benchmarks, simulated as
  // the tuner simulates it (lowered and run at the measurement grid
  // under the scaled cache): the compiled, sharded ParallelExecutor
  // reports the reference Executor's counters. Work-group-size variants
  // of one candidate share its lowering, so each lowering runs once.
  // The sweep's winner and every predicted time are also the same at
  // jobs 1 and 4.
  DeviceSpec Dev = deviceNvidiaK20c();
  for (const char *Name : {"Jacobi2D5pt", "Jacobi2D9pt", "Hotspot3D"}) {
    const Benchmark &B = findBenchmark(Name);
    TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
    TuneResult R1 = tuneStencil(P, Dev, liftSpace());
    TuneOptions O4;
    O4.Jobs = 4;
    TuneResult R4 = tuneStencil(P, Dev, liftSpace(), O4);
    EXPECT_EQ(R1.Best.C.describe(), R4.Best.C.describe()) << Name;
    EXPECT_EQ(R1.Best.T.Total, R4.Best.T.Total) << Name;
    ASSERT_EQ(R1.All.size(), R4.All.size()) << Name;
    for (std::size_t I = 0; I != R1.All.size(); ++I) {
      EXPECT_EQ(R1.All[I].C.describe(), R4.All[I].C.describe()) << Name;
      EXPECT_EQ(R1.All[I].T.Total, R4.All[I].T.Total)
          << Name << " " << R1.All[I].C.describe();
    }

    std::vector<rewrite::LoweringOptions> Lowerings;
    std::set<std::string> Seen;
    for (const Evaluated &E : R1.All) {
      rewrite::LoweringOptions LO = E.C.Options;
      LO.OutputExtents.assign(P.Measure.begin(), P.Measure.end());
      if (Seen.insert(LO.describe()).second)
        Lowerings.push_back(LO);
    }
    CacheConfig Cache = scaledCache(Dev.Cache, P.Measure, P.Target);
    auto Sizes = makeSizeEnv(P.Instance, P.Measure);
    std::vector<ExecCounters> Ref(Lowerings.size()), Par(Lowerings.size());
    ThreadPool::shared().parallelFor(
        Lowerings.size(),
        [&](std::size_t I) {
          ir::Program Low = rewrite::lowerStencil(P.Instance.P, Lowerings[I]);
          codegen::Compiled C = codegen::compileProgram(Low, B.Name);
          Executor Seq(C.K, Sizes, Cache);
          ParallelExecutor Sharded(C.K, Sizes, Cache, /*Jobs=*/4);
          for (std::size_t X = 0; X != P.Inputs.size(); ++X) {
            Seq.bindInput(C.InputBufferIds[X], P.Inputs[X]);
            Sharded.bindInput(C.InputBufferIds[X], P.Inputs[X]);
          }
          Seq.run();
          Sharded.run();
          Ref[I] = Seq.counters();
          Par[I] = Sharded.counters();
        },
        4);
    for (std::size_t I = 0; I != Lowerings.size(); ++I) {
      std::string What = std::string(Name) + "/" + Lowerings[I].describe();
      EXPECT_EQ(Ref[I].GlobalLoads, Par[I].GlobalLoads) << What;
      EXPECT_EQ(Ref[I].GlobalStores, Par[I].GlobalStores) << What;
      EXPECT_EQ(Ref[I].GlobalLoadLineMisses, Par[I].GlobalLoadLineMisses)
          << What;
      EXPECT_EQ(Ref[I].LocalLoads, Par[I].LocalLoads) << What;
      EXPECT_EQ(Ref[I].LocalStores, Par[I].LocalStores) << What;
      EXPECT_EQ(Ref[I].PrivateAccesses, Par[I].PrivateAccesses) << What;
      EXPECT_EQ(Ref[I].Flops, Par[I].Flops) << What;
      EXPECT_EQ(Ref[I].UserFunCalls, Par[I].UserFunCalls) << What;
      EXPECT_EQ(Ref[I].LoopIterations, Par[I].LoopIterations) << What;
      EXPECT_EQ(Ref[I].Barriers, Par[I].Barriers) << What;
      EXPECT_EQ(Ref[I].SelectEvals, Par[I].SelectEvals) << What;
    }
  }
}

TEST(ParallelTuner, MeasuredSweepTimesAfterEveryCompile) {
  try {
    native::probeToolchain();
  } catch (const native::NativeError &) {
    GTEST_SKIP() << "no usable host C compiler";
  }
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();
  TuneOptions O;
  O.Obj = Objective::Measured;
  O.MeasureWarmup = 0;
  O.MeasureRepeats = 1;

  TuneResult R1 = tuneStencil(P, Dev, S, O);

  // Empty the kernel cache so the traced sweep compiles for real.
  native::KernelCache::global().clear();
  obs::Tracer &T = obs::Tracer::global();
  T.clear();
  T.enable();
  obs::FlightRecorder &FR = obs::FlightRecorder::global();
  FR.clear();
  FR.setEnabled(true);
  O.Jobs = 4;
  TuneResult R4 = tuneStencil(P, Dev, S, O);
  FR.setEnabled(false);
  T.disable();

  // Same valid set and modeled times as the single-threaded sweep.
  ASSERT_EQ(R1.All.size(), R4.All.size());
  for (std::size_t I = 0; I != R1.All.size(); ++I) {
    EXPECT_EQ(R1.All[I].C.describe(), R4.All[I].C.describe());
    EXPECT_EQ(R1.All[I].T.Total, R4.All[I].T.Total);
    EXPECT_GT(R4.All[I].MeasuredSeconds, 0.0);
  }

  // No timed run overlaps a host compile.
  obs::json::Value Doc;
  std::string Err;
  ASSERT_TRUE(obs::json::parse(T.exportChromeJson(), Doc, &Err)) << Err;
  T.clear();
  std::vector<std::pair<double, double>> Compiles, Runs;
  for (const obs::json::Value &E : Doc.find("traceEvents")->array()) {
    if (E.find("ph")->asString() != "X")
      continue;
    const std::string &Name = E.find("name")->asString();
    double Ts = E.find("ts")->asNumber();
    double End = Ts + E.find("dur")->asNumber();
    if (Name == "native.compile")
      Compiles.emplace_back(Ts, End);
    else if (Name == "native.run")
      Runs.emplace_back(Ts, End);
  }
  ASSERT_FALSE(Compiles.empty());
  // Each distinct binary is timed once: the cache was empty, so every
  // compile made one distinct kernel. Work-group-size variants of one
  // lowering share a binary, so there are fewer runs than candidates,
  // and the variants share the measured time.
  EXPECT_EQ(Runs.size(), Compiles.size());
  EXPECT_LT(Runs.size(), R4.All.size());
  std::map<std::string, double> ByLowering;
  for (const Evaluated &E : R4.All) {
    if (E.C.Options.Tile)
      continue;
    auto [It, First] =
        ByLowering.emplace(E.C.Options.describe(), E.MeasuredSeconds);
    if (!First)
      EXPECT_EQ(E.MeasuredSeconds, It->second) << E.C.describe();
  }
  for (const auto &Run : Runs)
    for (const auto &Compile : Compiles)
      EXPECT_TRUE(Run.second <= Compile.first || Compile.second <= Run.first)
          << "native.run [" << Run.first << ", " << Run.second
          << "] overlaps native.compile [" << Compile.first << ", "
          << Compile.second << "]";

  // Every valid candidate's flight record carries its measured time.
  std::vector<obs::FlightRecorder::TuneLog> Logs = FR.logs();
  FR.clear();
  ASSERT_EQ(Logs.size(), 1u);
  std::size_t Valid = 0;
  for (const obs::CandidateRecord &Rec : Logs[0].Records) {
    if (!Rec.Valid)
      continue;
    ++Valid;
    EXPECT_EQ(Rec.Objective, "measured");
    EXPECT_GT(Rec.MeasuredTime, 0.0) << Rec.Variant;
  }
  EXPECT_EQ(Valid, R4.All.size());
}

TEST(ParallelTuner, RemainderTilesAreNotPruned) {
  // SRAD1's 504x458 grid is indivisible by 8/16/32/64 tiles (and its
  // 56x56 measurement grid cannot even hold a full 64-output tile).
  // Since the clamped remainder-tile lowering all those candidates
  // are legal -- short extents clamp the tile per dimension -- so the
  // tuner must evaluate them instead of recording stale
  // tile-indivisible prunes.
  const Benchmark &B = findBenchmark("SRAD1");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = liftSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneResult R = tuneStencil(P, Dev, S);
  EXPECT_EQ(R.Prunes.TileIndivisible, 0u);
  EXPECT_EQ(R.Prunes.describe().find("tile-indivisible"), std::string::npos);
  // Tiled candidates survived into the valid set.
  bool SawTiled = false;
  for (const auto &E : R.All)
    SawTiled |= E.C.Options.Tile;
  EXPECT_TRUE(SawTiled);
}

TEST(ParallelTuner, StepTwoRemainderPrunesWithDetail) {
  // A remainder fit at window step != 1 is the one shape that stays
  // genuinely unsupported (the shifted tail tile would leave the
  // output lattice), so the prune survives -- and the recorded reason
  // names why.
  Benchmark B = findBenchmark("SRAD1"); // 504 x 458
  B.WindowStep = 2;
  TuningProblem P = makeProblem(B, false);
  TuningSpace S;
  S.AllowUntiled = true;
  S.AllowTiling = true;
  S.TileOutputs = {64}; // k = 32 outputs; 458 % 32 != 0 -> unsupported
  S.TileCoarsenFactors = {1};
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneResult R = tuneStencil(P, Dev, S);
  EXPECT_GT(R.Prunes.TileIndivisible, 0u);
  EXPECT_NE(R.Prunes.describe().find("tile-indivisible"), std::string::npos);
}

TEST(ParallelTunerDeathTest, AllCandidatesPrunedExplainsWhy) {
  // A space whose only tile size leaves a step-2 remainder: every
  // candidate is rejected and the error must carry the per-constraint
  // breakdown.
  Benchmark B = findBenchmark("SRAD1"); // 504 x 458
  B.WindowStep = 2;
  TuningProblem P = makeProblem(B, false);
  TuningSpace S;
  S.AllowUntiled = false;
  S.AllowTiling = true;
  S.TileOutputs = {64}; // k = 32; 458 % 32 != 0 -> tile-indivisible
  S.TileCoarsenFactors = {1};
  DeviceSpec Dev = deviceNvidiaK20c();
  EXPECT_DEATH(tuneStencil(P, Dev, S), "candidates pruned.*tile-indivisible");
}

} // namespace
