//===- FlightRecorder.cpp - Per-candidate tuner event log ------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include "obs/Json.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace lift;
using namespace lift::obs;

FlightRecorder &FlightRecorder::global() {
  // Leaked intentionally, like the tracer and the registry.
  static FlightRecorder *F = new FlightRecorder();
  return *F;
}

void FlightRecorder::beginTune(const std::string &Label,
                               std::size_t NumCandidates) {
  std::lock_guard<std::mutex> Lock(M);
  auto Log = std::make_unique<TuneLog>();
  Log->Label = Label;
  Log->Records.resize(NumCandidates);
  Logs.push_back(std::move(Log));
}

void FlightRecorder::record(std::size_t Index, CandidateRecord R) {
  TuneLog *Cur = nullptr;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Logs.empty())
      return; // record() without beginTune(): drop silently
    Cur = Logs.back().get();
  }
  if (Index >= Cur->Records.size())
    return;
  // Disjoint-slot write; the slots were preallocated by beginTune.
  Cur->Records[Index] = std::move(R);
}

std::vector<FlightRecorder::TuneLog> FlightRecorder::logs() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<TuneLog> Out;
  Out.reserve(Logs.size());
  for (const auto &L : Logs)
    Out.push_back(*L);
  return Out;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Logs.clear();
}

std::string FlightRecorder::summary() const {
  std::vector<TuneLog> All = logs();
  std::string Out;
  char Line[256];
  for (const TuneLog &L : All) {
    std::size_t Valid = 0, Memo = 0;
    double WallUs = 0;
    std::map<std::string, std::uint64_t> Prunes;
    const CandidateRecord *Best = nullptr;
    // The tuner's own argmin: measured sweeps rank by wall clock,
    // modeled ones by the prediction; the first strictly smaller score
    // in candidate order wins.
    auto Score = [](const CandidateRecord &R) {
      return R.Objective == "measured" ? R.MeasuredTime : R.PredictedTime;
    };
    for (const CandidateRecord &R : L.Records) {
      WallUs += R.WallMicros;
      if (R.Valid) {
        ++Valid;
        if (R.FromMemo)
          ++Memo;
        if (!Best || Score(R) < Score(*Best))
          Best = &R;
      } else if (!R.PruneReason.empty()) {
        ++Prunes[R.PruneReason];
      }
    }
    std::snprintf(Line, sizeof(Line),
                  "tune %s: %zu candidates, %zu valid, %zu memo-shared, "
                  "%.1f ms wall\n",
                  L.Label.c_str(), L.Records.size(), Valid, Memo,
                  WallUs / 1000.0);
    Out += Line;
    std::vector<std::pair<std::string, std::uint64_t>> KVs(Prunes.begin(),
                                                           Prunes.end());
    Out += "  pruned: " + formatCounts(KVs) + "\n";
    if (Best) {
      if (Best->MeasuredTime > 0)
        std::snprintf(Line, sizeof(Line),
                      "  best: %s (%.3f GElem/s, predicted %.3g s, "
                      "measured %.3g s)\n",
                      Best->Variant.c_str(), Best->GElemsPerSec,
                      Best->PredictedTime, Best->MeasuredTime);
      else
        std::snprintf(Line, sizeof(Line),
                      "  best: %s (%.3f GElem/s, predicted %.3g s)\n",
                      Best->Variant.c_str(), Best->GElemsPerSec,
                      Best->PredictedTime);
      Out += Line;
    }
  }
  return Out.empty() ? std::string("no tuning sweeps recorded\n") : Out;
}

std::string FlightRecorder::exportJsonArray() const {
  std::vector<TuneLog> All = logs();
  std::string Out = "[";
  for (std::size_t I = 0; I != All.size(); ++I) {
    const TuneLog &L = All[I];
    if (I)
      Out += ',';
    Out += "\n{\"label\":\"" + json::escape(L.Label) + "\",\"candidates\":[";
    for (std::size_t J = 0; J != L.Records.size(); ++J) {
      const CandidateRecord &R = L.Records[J];
      if (J)
        Out += ',';
      char Hash[24];
      std::snprintf(Hash, sizeof(Hash), "%016llx",
                    (unsigned long long)R.LoweredHash);
      char Num[64];
      Out += "\n  {\"index\":" + std::to_string(R.Index) + ",\"variant\":\"" +
             json::escape(R.Variant) + "\",\"lowered_hash\":\"" + Hash +
             "\"";
      std::snprintf(Num, sizeof(Num), ",\"predicted_time\":%.9g",
                    R.PredictedTime);
      Out += Num;
      std::snprintf(Num, sizeof(Num), ",\"gelems_per_sec\":%.9g",
                    R.GElemsPerSec);
      Out += Num;
      Out += ",\"prune_reason\":";
      Out += R.PruneReason.empty() ? "null"
                                   : "\"" + json::escape(R.PruneReason) + "\"";
      Out += ",\"from_memo\":";
      Out += R.FromMemo ? "true" : "false";
      Out += ",\"valid\":";
      Out += R.Valid ? "true" : "false";
      std::snprintf(Num, sizeof(Num), ",\"measured_time\":%.9g",
                    R.MeasuredTime);
      Out += Num;
      Out += ",\"objective\":\"" + json::escape(R.Objective) + "\"";
      std::snprintf(Num, sizeof(Num), ",\"wall_us\":%.3f}", R.WallMicros);
      Out += Num;
    }
    Out += "\n]}";
  }
  Out += "\n]";
  return Out;
}
