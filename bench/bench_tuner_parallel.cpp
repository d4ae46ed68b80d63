//===- bench_tuner_parallel.cpp - Parallel tuning sweep benchmark ----------===//
//
// Part of the liftcpp project.
//
// Times the exhaustive Figure-7-style tuning sweep end-to-end at
// jobs=1 against jobs=N. Both run the same tuner path (compiled
// simulator + structural-equality evaluation memo); jobs=1 evaluates
// every candidate on the calling thread, jobs=N on N pool workers, so
// the speedup is candidate-level threading alone and is bounded by N.
// Each side runs Sweeps times, alternating, and reports the median and
// the spread, so that one descheduled sweep cannot hide (or fake) a
// threading regression. Verifies the winner is identical every time.
//
// Passing --json [path] emits a compact JSON summary (per-benchmark
// jobs=1 and jobs=N median wall milliseconds and spreads, plus the
// speedup of the medians) instead of the console table; the checked-in BENCH_tuner_parallel.json snapshot at
// the repo root is produced this way. --jobs N sets the parallel job
// count (default 4).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "ocl/Device.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

using namespace lift;
using namespace lift::stencil;
using namespace lift::tuner;
using namespace lift::bench;

namespace {

/// Timed sweeps per side.
constexpr unsigned Sweeps = 5;

double wallMs(const std::function<void()> &F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Median and (max - min) / median in % of \p Ms.
std::pair<double, double> medianAndSpread(std::vector<double> Ms) {
  std::sort(Ms.begin(), Ms.end());
  double Median = Ms.size() % 2 ? Ms[Ms.size() / 2]
                                : 0.5 * (Ms[Ms.size() / 2 - 1] +
                                         Ms[Ms.size() / 2]);
  return {Median, Median > 0 ? 100.0 * (Ms.back() - Ms.front()) / Median
                             : 0.0};
}

struct Row {
  std::string Name;
  std::size_t Candidates = 0;
  double SeqMs = 0; ///< median
  double SeqSpreadPct = 0;
  double ParMs = 0; ///< median
  double ParSpreadPct = 0;
  std::uint64_t MemoHits = 0;
  bool SameWinner = true;
  double speedup() const { return SeqMs / ParMs; }
};

} // namespace

int main(int argc, char **argv) {
  obs::ObsSession Obs = obsSessionFromArgs(argc, argv);
  unsigned Jobs = parseJobs(argc, argv, /*Default=*/4);
  if (Jobs == 1)
    Jobs = 4; // the point of this harness is a jobs=1 vs jobs=N contrast

  bool Json = false;
  std::string JsonPath;
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--json") {
      Json = true;
      if (I + 1 < argc && argv[I + 1][0] != '-')
        JsonPath = argv[I + 1];
    }
  }

  ocl::DeviceSpec Dev = ocl::deviceNvidiaK20c();
  std::vector<Row> Rows;
  bool AllSame = true;

  // Acoustic, Jacobi2D9pt and Poisson are the suite's slowest sweeps
  // and almost all simulation, so a simulator slowdown shows in them.
  for (const char *Name : {"Jacobi2D5pt", "Jacobi3D7pt", "Hotspot2D",
                           "Acoustic", "Jacobi2D9pt", "Poisson"}) {
    const Benchmark &B = findBenchmark(Name);
    TuningProblem P = makeProblem(B, /*LargeTarget=*/false);

    Row R;
    R.Name = Name;

    TuneOptions Seq; // Jobs = 1: one thread
    TuneOptions Par;
    Par.Jobs = Jobs;

    std::vector<double> SeqMs, ParMs;
    for (unsigned I = 0; I != Sweeps; ++I) {
      TuneResult RSeq, RPar;
      SeqMs.push_back(
          wallMs([&] { RSeq = tuneStencil(P, Dev, liftSpace(), Seq); }));
      ParMs.push_back(
          wallMs([&] { RPar = tuneStencil(P, Dev, liftSpace(), Par); }));
      R.Candidates = RSeq.All.size();
      R.MemoHits = RPar.MemoHits;
      R.SameWinner = R.SameWinner &&
                     RSeq.Best.C.describe() == RPar.Best.C.describe() &&
                     RSeq.Best.T.Total == RPar.Best.T.Total &&
                     RSeq.All.size() == RPar.All.size();
    }
    std::tie(R.SeqMs, R.SeqSpreadPct) = medianAndSpread(SeqMs);
    std::tie(R.ParMs, R.ParSpreadPct) = medianAndSpread(ParMs);
    AllSame = AllSame && R.SameWinner;
    Rows.push_back(R);
  }

  if (Json) {
    // Both sweeps rank by the device model; a measured-objective sweep
    // (tuner::Objective::Measured) would say "measured" here.
    std::string Out = "{\n\"meta\": " + benchMetaJson() +
                      ",\n\"jobs\": " + std::to_string(Jobs) +
                      ",\n\"repeats\": " + std::to_string(Sweeps) +
                      ",\n\"objective\": \"modeled\"" + ",\n\"sweeps\": [\n";
    for (std::size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      char Buf[384];
      std::snprintf(Buf, sizeof(Buf),
                    "  {\"name\": \"%s\", \"candidates\": %zu, "
                    "\"jobs1_ms\": %.1f, \"jobs1_spread_pct\": %.1f, "
                    "\"jobsN_ms\": %.1f, \"jobsN_spread_pct\": %.1f, "
                    "\"speedup\": %.2f, \"memo_hits\": %llu, "
                    "\"same_winner\": %s}",
                    R.Name.c_str(), R.Candidates, R.SeqMs, R.SeqSpreadPct,
                    R.ParMs, R.ParSpreadPct, R.speedup(),
                    (unsigned long long)R.MemoHits,
                    R.SameWinner ? "true" : "false");
      Out += Buf;
      Out += I + 1 == Rows.size() ? "\n" : ",\n";
    }
    Out += "]\n}\n";
    if (JsonPath.empty()) {
      std::cout << Out;
    } else {
      std::ofstream OS(JsonPath);
      if (!OS) {
        std::cerr << "cannot open " << JsonPath << " for writing\n";
        return 1;
      }
      OS << Out;
    }
  } else {
    std::printf("Exhaustive tuning sweep: one thread (jobs=1) vs "
                "%u pool workers (jobs=%u); median (spread) of %u "
                "sweeps each\n", Jobs, Jobs, Sweeps);
    printRule(104);
    std::printf("%-14s %7s %20s %20s %9s %10s %12s\n", "Benchmark",
                "cands", "jobs=1 ms", "jobs=N ms", "speedup", "memoHits",
                "same winner");
    printRule(104);
    for (const Row &R : Rows)
      std::printf("%-14s %7zu %12.1f (%4.0f%%) %12.1f (%4.0f%%) %8.2fx "
                  "%10llu %12s\n",
                  R.Name.c_str(), R.Candidates, R.SeqMs, R.SeqSpreadPct,
                  R.ParMs, R.ParSpreadPct, R.speedup(),
                  (unsigned long long)R.MemoHits,
                  R.SameWinner ? "yes" : "NO");
    printRule(104);
  }

  int ObsRC = Obs.finish();
  return AllSame ? ObsRC : 1;
}
